"""Doubled-space matrix mechanics: the ground-truth oracle for operator structure.

States of a charged scalar live in a doubled space (charge block x mode
basis) with the indefinite metric eta = diag(+1...+1, -1...-1).  The
first-order Hamiltonian in this space is eta-pseudo-Hermitian rather than
Hermitian; its spectrum comes in +/-E pairs.  The sign operator
Lambda = H (H^2)^(-1/2) splits every operator O into

    even part  (1/2)(O + Lambda O Lambda)   -- commutes with Lambda,
    odd part   (1/2)(O - Lambda O Lambda)   -- anticommutes with Lambda,

and only even parts are observables under the charge superselection rule.
The sign operator is V sign(D) V^-1 from a dense eigendecomposition
H V = V D, taken by one linear solve on the eigenvectors; V^-1 is never
formed.  The odd part is the exact complement O - even of the even part,
so a split forms Lambda O Lambda once.  This makes the module the
numerical referee for the closed forms used elsewhere
(`spectrum.eps_factor` / `chi_factor`, the ladder deformation, the
Newton-Wigner position, the mode-space coupling norm
`rotator.translational_coupling`).  The tests also hold a blockwise
even part built from the per-mode 2x2 charge blocks, checked against
the dense split, as a second referee of the coupling norm.

`kernel_relation_check` never forms a doubled-space product.  Every
Hamiltonian it accepts is a set of independent 2x2 charge blocks, and
the sign operator of a block, Lambda_j = V_j sign(D_j) V_j^-1, is +1 and
-1 on its two branch 2-vectors.  So the even and odd parts of a
charge-invariant kernel, reduced onto the charge branches, are K times
eta products of per-mode 2-vectors: O(M^2) work, with the conditioning
rule of `sign_operator` kept.  The dense split (`sign_operator`,
`even_part`, `branch_reduce`) is its referee in the tests.

The operators fed to it are built in closed form too.  The position
matrix F^-1 diag(q) F on a conjugate grid is a circulant Toeplitz matrix
whose first column is the signed DFT of the q nodes / n, so
`position_kernel` takes one real FFT and one (n, n) copy of a strided
view: O(n log n + n^2), not the O(n^3) product of two dense transforms
(the tests keep that product as its referee).  A Hamiltonian is one
complex zero matrix with its four charge-block diagonals written in,
byte for byte the sum of the two Kronecker products it stands for.

Basis layout: index = branch * M + mode, mode bases are either momentum
nodes or oscillator levels (optionally tensored with a longitudinal
momentum grid, mode = level * n_pz + pz_index).  Total dimension is
capped at 2M = 2048; beyond that dense eigendecomposition stops being a
sensible oracle.
"""

from dataclasses import dataclass

import numpy as np

from .errors import ConditioningError, GridError, ResolutionError
from .grids import NATURAL, MomentumGrid, PhaseSpaceGrid, UnitSystem, centred_dft_size
from .spectrum import EnergyModel, chi_from_energies, energy, eps_from_energies

MAX_DOUBLED_DIM = 2048
_CHECK_ROWS = 32  # kernel rows per block of `kernel_relation_check`'s elementwise stage

TAU1 = np.array([[0.0, 1.0], [1.0, 0.0]])


@dataclass(frozen=True)
class OperatorMatrix:
    """Dense complex matrix over the doubled (charge x mode) basis."""

    mat: np.ndarray
    basis: str

    def __post_init__(self):
        m = np.asarray(self.mat)
        if m.ndim != 2 or m.shape[0] != m.shape[1]:
            raise GridError(f"operator matrix must be square, got {m.shape}")
        if m.shape[0] % 2 != 0:
            raise GridError("doubled-space dimension must be even")
        if m.shape[0] > MAX_DOUBLED_DIM:
            raise GridError(
                f"doubled dimension {m.shape[0]} exceeds cap {MAX_DOUBLED_DIM}"
            )

    @property
    def n_modes(self) -> int:
        return self.mat.shape[0] // 2

    def require_same_basis(self, other: "OperatorMatrix"):
        if self.basis != other.basis or self.mat.shape != other.mat.shape:
            raise GridError(
                f"basis mismatch: {self.basis!r} (dim {self.mat.shape[0]}) vs "
                f"{other.basis!r} (dim {other.mat.shape[0]})"
            )


def charge_metric(n_modes: int) -> np.ndarray:
    """eta = diag(+1 ... +1, -1 ... -1) over the two charge blocks."""
    return np.concatenate([np.ones(n_modes), -np.ones(n_modes)])


def charge_invariant(kernel: np.ndarray, basis: str) -> OperatorMatrix:
    """Lift a mode-space kernel to the doubled space: same action on both blocks."""
    kernel = np.asarray(kernel, dtype=complex)
    if kernel.ndim != 2 or kernel.shape[0] != kernel.shape[1]:
        raise GridError(f"kernel must be square, got {kernel.shape}")
    return OperatorMatrix(np.kron(np.eye(2), kernel), basis)


# ---------------------------------------------------------------------------
# Hamiltonians
# ---------------------------------------------------------------------------


def _fv_from_kinetic(kinetic_diag: np.ndarray, units: UnitSystem) -> np.ndarray:
    """Doubled-space first-order Hamiltonian for a diagonal squared kinetic term.

    H = tau3 (mc^2 + K) + i tau2 K with K = Pi^2 / (2m); squares to the
    diagonal m^2 c^4 + c^2 Pi^2.  Complex, written straight onto the four
    block diagonals; the lower-left one is 0.0 - K, so a p = 0 node holds
    +0.0 as the sum of the two Kronecker products does, not -0.0.
    """
    K = np.asarray(kinetic_diag, dtype=float) / (2.0 * units.m)
    e, m = units.mc2 + K, K.size
    mat = np.zeros((2 * m, 2 * m), dtype=complex)
    idx = np.arange(m)
    mat.reshape(2, m, 2, m)[:, idx, :, idx] = np.moveaxis(np.array([[e, K], [0.0 - K, -e]]), -1, 0)
    return mat


def momentum_basis_tag(grid: MomentumGrid) -> str:
    return f"momentum:n={grid.n_points}:pmax={grid.p_max:g}"


def oscillator_basis_tag(n_levels: int, pz_grid: MomentumGrid | None = None) -> str:
    if pz_grid is None:
        return f"oscillator:n={n_levels}"
    return f"oscillator:n={n_levels}:pz={pz_grid.n_points}:pzmax={pz_grid.p_max:g}"


def build_hamiltonian(
    model: EnergyModel,
    grid: MomentumGrid | None = None,
    n_levels: int | None = None,
    pz_grid: MomentumGrid | None = None,
) -> OperatorMatrix:
    """First-order doubled-space Hamiltonian for a free or magnetic particle.

    Free particles take a momentum `grid`; the magnetic problem takes
    `n_levels` transverse oscillator modes, optionally tensored with a
    longitudinal `pz_grid`.  M >= 16 modes recommended for any use that
    resolves states rather than single matrix elements.
    """
    if model.kind == "free":
        if grid is None:
            raise ValueError("free model requires a momentum grid")
        return OperatorMatrix(_fv_from_kinetic(grid.nodes**2, model.units), momentum_basis_tag(grid))

    if n_levels is None:
        raise ValueError("landau model requires n_levels")
    if n_levels < 2:
        raise ResolutionError(
            f"need n_levels >= 2 to resolve any magnetic state, got {n_levels}"
        )
    u = model.units
    # Pi^2 eigenvalues: (2n+1) hbar m omega + p_z^2
    levels = (2.0 * np.arange(n_levels) + 1.0) * u.hbar * u.m * model.omega
    if pz_grid is None:
        pi2 = levels
    else:
        pi2 = (levels[:, None] + pz_grid.nodes[None, :] ** 2).ravel()
    size = 2 * pi2.size
    if size > MAX_DOUBLED_DIM:
        raise ResolutionError(
            f"requested doubled dimension {size} exceeds cap {MAX_DOUBLED_DIM}; "
            f"reduce n_levels or the pz grid"
        )
    return OperatorMatrix(_fv_from_kinetic(pi2, u), oscillator_basis_tag(n_levels, pz_grid))


# ---------------------------------------------------------------------------
# Sign operator and even/odd decomposition
# ---------------------------------------------------------------------------


def sign_operator(h: OperatorMatrix) -> OperatorMatrix:
    """Lambda = H (H^2)^(-1/2) by dense eigendecomposition.

    With H V = V D, Lambda = V sign(D) V^-1 is the solution of
    Lambda V = V sign(D), found by one solve on the eigenvectors; V^-1
    is never formed.  Lambda^2 = 1 and [Lambda, H] = 0 to roundoff.
    Raises ConditioningError when an eigenvalue sits within 1e-12 of
    zero relative to the spectral radius.
    """
    w, v = np.linalg.eig(h.mat)
    _require_sign_gap(w)
    lam = np.linalg.solve(v.T, (v * np.sign(w.real)).T).T
    return OperatorMatrix(lam, h.basis)


def _require_sign_gap(w: np.ndarray) -> None:
    """Raise ConditioningError when an eigenvalue's real part sits within
    1e-12 of zero relative to the largest |eigenvalue|."""
    if np.abs(w.real).min() < 1e-12 * np.abs(w).max():
        raise ConditioningError(
            "Hamiltonian has a near-zero eigenvalue; sign operator undefined"
        )


def even_part(op: OperatorMatrix, sign: OperatorMatrix) -> OperatorMatrix:
    """(1/2)(O + Lambda O Lambda); commutes with the sign operator."""
    op.require_same_basis(sign)
    return OperatorMatrix(
        0.5 * (op.mat + sign.mat @ op.mat @ sign.mat), op.basis
    )


def odd_part(op: OperatorMatrix, sign: OperatorMatrix) -> OperatorMatrix:
    """(1/2)(O - Lambda O Lambda); anticommutes with the sign operator.

    Taken as the complement O - even_part(O, Lambda), so the even/odd
    split is defined by one formula.
    """
    return OperatorMatrix(op.mat - even_part(op, sign).mat, op.basis)


# ---------------------------------------------------------------------------
# Charge-branch eigenvectors and kernel reduction
# ---------------------------------------------------------------------------


def _mode_blocks(h: OperatorMatrix) -> np.ndarray:
    """The 2x2 charge block of every mode, shape (M, 2, 2).

    Raises GridError when H couples different modes (every Hamiltonian
    this module builds is mode-diagonal) or has a non-finite entry.
    """
    m = h.n_modes
    mat = h.mat.reshape(2, m, 2, m)
    idx = np.arange(m)
    cross = np.abs(mat)
    scale = np.maximum(cross.max(), 1.0)  # NaN or inf for a non-finite entry
    cross[:, idx, :, idx] = 0.0
    if not np.isfinite(scale) or cross.max() > 1e-12 * scale:
        raise GridError("expected a finite, mode-diagonal Hamiltonian")
    return mat[:, idx, :, idx]


def branch_vectors(h: OperatorMatrix):
    """Per-mode eta-normalized +/- charge branch eigenvectors.

    Requires a Hamiltonian with no inter-mode coupling (true for every
    Hamiltonian this module builds): each mode carries an isolated 2x2
    charge block.  Returns (u_plus, u_minus, energies) where the columns
    of u_plus (2M, M) satisfy H u = +E u, u^dag eta u = +1, first charge
    component real positive, and u_minus mirrors it on the negative
    branch (eta-norm -1, second component real positive).
    """
    m = h.n_modes
    vecs, w = _branch_pairs(_mode_blocks(h))
    idx = np.arange(m)
    u = np.zeros((2, 2 * m, m), dtype=complex)
    u[:, idx, idx] = vecs[..., 0]
    u[:, m + idx, idx] = vecs[..., 1]
    return u[0], u[1], w[0].real


def _branch_pairs(blocks: np.ndarray):
    """The charge 2-vectors of `branch_vectors`, (2, M, 2), and their eigenvalues, (2, M).

    Axes (branch, mode, charge component); branch 0 is +, branch 1 is -.
    """
    w, v = np.linalg.eig(blocks)
    order = np.argsort(w.real, axis=1)
    idx = np.arange(blocks.shape[0])
    vecs = np.stack([v[idx, :, order[:, 1]], v[idx, :, order[:, 0]]])
    norm2 = np.abs(vecs[..., 0]) ** 2 - np.abs(vecs[..., 1]) ** 2
    wrong = np.flatnonzero((norm2[0] <= 0) | (norm2[1] >= 0))
    if wrong.size:
        raise ConditioningError(f"mode {wrong[0]}: charge norm of branch eigenvector has wrong sign")
    vecs = vecs / np.sqrt(np.abs(norm2))[..., None]
    anchor = np.stack([vecs[0, :, 0], vecs[1, :, 1]])
    vecs = vecs * (np.abs(anchor) / anchor)[..., None]
    return vecs, np.stack([w[idx, order[:, 1]], w[idx, order[:, 0]]])


def branch_reduce(op: OperatorMatrix, u_left: np.ndarray, u_right: np.ndarray) -> np.ndarray:
    """Mode-space kernel <left_j| O |right_k> in the eta inner product.

    Computed as (eta u_left)^dag O u_right: eta scales the branch vectors,
    not a copy of the operator.
    """
    eta = charge_metric(op.n_modes)
    return (eta[:, None] * u_left).conj().T @ op.mat @ u_right


@dataclass(frozen=True)
class KernelRelationReport:
    even_deviation: float
    odd_deviation: float
    tolerance: float

    @property
    def passed(self) -> bool:
        # a NaN deviation fails; built-in max would drop one that comes second
        return self.even_deviation <= self.tolerance and self.odd_deviation <= self.tolerance


def kernel_relation_check(
    kernel: np.ndarray, h: OperatorMatrix, tolerance: float = 1e-8
) -> KernelRelationReport:
    """Verify even/odd parts of a charge-invariant operator against eps/chi scaling.

    The even part reduced to the positive branch must be
    eps(E_j, E_k) * kernel; the odd part taken between positive and
    negative branches must be chi(E_j, E_k) * kernel.  Hence
    odd = (chi/eps) * even entrywise: even and odd parts are not
    independent objects.  The check works per 2x2 charge block of the
    mode-diagonal H in O(M^2): Lambda_j is +1 and -1 on each block's
    branch 2-vectors, so the reductions are K times products of those
    2-vectors.  The dense (2M)^2 split is its referee in the tests.
    Raises ConditioningError, as `sign_operator` does, when an eigenvalue
    of H sits within 1e-12 of zero relative to the spectral radius, and
    ValueError for a non-finite kernel or a negative or NaN tolerance.
    """
    if not tolerance >= 0.0:
        raise ValueError(f"tolerance must be a non-negative number, got {tolerance}")
    kernel = np.asarray(kernel, dtype=complex)
    if not np.isfinite(kernel).all():
        raise ValueError("kernel has a non-finite entry")
    m = h.n_modes
    if kernel.shape == h.mat.shape:
        blocks = kernel.reshape(2, m, 2, m)
        kernel = blocks[0, :, 0]
        if np.abs(blocks - np.eye(2)[:, None, :, None] * kernel[:, None]).max() > 1e-12:
            raise ValueError("kernel is not charge-invariant (unequal or coupled charge blocks)")
    elif kernel.shape != (m, m):
        raise GridError(f"kernel shape {kernel.shape} incompatible with {m} modes")

    vecs, w = _branch_pairs(_mode_blocks(h))
    _require_sign_gap(w)
    energies = w[0].real

    # O = 1 (x) K has the (j, k) charge block K_jk, and Lambda_j is +1 on
    # the + branch 2-vector u_j of mode j and -1 on the - one, v_j.  Since
    # (eta u_j)^dag Lambda_j = (eta u_j)^dag, the even part reduces to
    # K_jk (eta u_j)^dag u_k and the odd part to K_jk (eta u_j)^dag v_k.
    # The rest is elementwise, so it runs on blocks of rows j, each with
    # only (rows, M) temporaries; np.max over the blocks' maxima keeps a
    # NaN, as the maximum over the whole array does
    left = vecs[0].conj() * charge_metric(1)
    products = left @ vecs.transpose(0, 2, 1)
    devs = []
    for start in range(0, m, _CHECK_ROWS):
        rows = slice(start, start + _CHECK_ROWS)
        k, e = kernel[rows], energies[rows, None]
        even_red, odd_red = k * products[:, rows]
        devs.append((
            np.abs(even_red - eps_from_energies(e, energies) * k).max(),
            np.abs(odd_red - chi_from_energies(e, energies) * k).max(),
        ))
    even_dev, odd_dev = np.max(devs, axis=0)
    return KernelRelationReport(float(even_dev), float(odd_dev), tolerance)


# ---------------------------------------------------------------------------
# Concrete operators on the momentum basis
# ---------------------------------------------------------------------------


def position_kernel(psgrid: PhaseSpaceGrid) -> np.ndarray:
    """Mode-space position matrix F^-1 diag(q) F; Hermitian, spectrum = q nodes.

    On a conjugate grid the product is a circulant Toeplitz matrix,
    K[j, k] = (-1)^(j - k) Q[(j - k) mod n] / n with Q the DFT of the q
    nodes (the grid's offset phases are the signs; see `grids`).  Modes
    0 ... n/2 come from one real FFT and the rest are their conjugates,
    so K is exactly Hermitian; the matrix is one strided view of the
    doubled mode vector, copied once: O(n log n) plus the n^2 fill, not
    the O(n^3) product.
    """
    n = centred_dft_size(psgrid.q_nodes, psgrid)
    modes = np.fft.rfft(psgrid.q_nodes) * (-1.0) ** np.arange(n // 2 + 1) / n
    # entry (j, k) is the conjugate of mode k - j: row j of the doubled
    # conjugate period starts at n - j
    doubled = np.concatenate([modes.conj(), modes[-2:0:-1]] * 2)
    return np.lib.stride_tricks.sliding_window_view(doubled, n)[n:0:-1].copy()


def momentum_kernel(grid: MomentumGrid) -> np.ndarray:
    return np.diag(grid.nodes).astype(complex)


def newton_wigner_matrix(
    psgrid: PhaseSpaceGrid, units: UnitSystem = NATURAL
) -> OperatorMatrix:
    """Observable position of the free particle, built in closed form.

    The mode-diagonal piece is the plain position matrix; the charge
    structure adds the curvature term (i hbar c^2 p / 2 E^2) tau1, which
    vanishes on the positive-energy subspace in the eta inner product, so
    there the operator acts as i hbar d/dp: the canonical conjugate of
    momentum.  `even_part` of the naive position must reproduce this
    matrix; that is the free-particle position oracle.
    """
    q = position_kernel(psgrid)
    p = psgrid.momentum.nodes
    curv = units.hbar * units.c**2 * p / (2.0 * energy(p, units) ** 2)
    mat = np.kron(np.eye(2), q) + 1j * np.kron(TAU1, np.diag(curv))
    return OperatorMatrix(mat, momentum_basis_tag(psgrid.momentum))
