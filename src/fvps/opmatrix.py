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

Basis layout: index = branch * M + mode, mode bases are either momentum
nodes or oscillator levels (optionally tensored with a longitudinal
momentum grid, mode = level * n_pz + pz_index).  Total dimension is
capped at 2M = 2048; beyond that dense eigendecomposition stops being a
sensible oracle.
"""

from dataclasses import dataclass

import numpy as np

from .errors import ConditioningError, GridError, ResolutionError
from .grids import NATURAL, MomentumGrid, PhaseSpaceGrid, UnitSystem, fourier_pair
from .spectrum import EnergyModel, chi_from_energies, energy, eps_from_energies

MAX_DOUBLED_DIM = 2048

TAU1 = np.array([[0.0, 1.0], [1.0, 0.0]])
TAU3 = np.array([[1.0, 0.0], [0.0, -1.0]])
ITAU2 = np.array([[0.0, 1.0], [-1.0, 0.0]])


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
    diagonal m^2 c^4 + c^2 Pi^2.
    """
    K = np.asarray(kinetic_diag, dtype=float) / (2.0 * units.m)
    rest = units.mc2
    return np.kron(TAU3, np.diag(rest + K)) + np.kron(ITAU2, np.diag(K))


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
        mat = _fv_from_kinetic(grid.nodes**2, model.units)
        return OperatorMatrix(mat.astype(complex), momentum_basis_tag(grid))

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
    mat = _fv_from_kinetic(pi2, u)
    return OperatorMatrix(mat.astype(complex), oscillator_basis_tag(n_levels, pz_grid))


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


def commutator(a: OperatorMatrix, b: OperatorMatrix) -> OperatorMatrix:
    a.require_same_basis(b)
    return OperatorMatrix(a.mat @ b.mat - b.mat @ a.mat, a.basis)


# ---------------------------------------------------------------------------
# Charge-branch eigenvectors and kernel reduction
# ---------------------------------------------------------------------------


def _mode_blocks(h: OperatorMatrix) -> np.ndarray:
    """The 2x2 charge block of every mode, shape (M, 2, 2).

    Raises GridError when H couples different modes; every Hamiltonian
    this module builds is mode-diagonal.
    """
    m = h.n_modes
    mat = h.mat.reshape(2, m, 2, m)
    idx = np.arange(m)
    cross = np.abs(mat)
    scale = max(cross.max(), 1.0)
    cross[:, idx, :, idx] = 0.0
    if cross.max() > 1e-12 * scale:
        raise GridError("expected a mode-diagonal Hamiltonian")
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
        return max(self.even_deviation, self.odd_deviation) <= self.tolerance


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
    of H sits within 1e-12 of zero relative to the spectral radius.
    """
    kernel = np.asarray(kernel, dtype=complex)
    m = h.n_modes
    if kernel.shape == h.mat.shape:
        upper = kernel[:m, :m]
        lower = kernel[m:, m:]
        off = max(np.abs(kernel[:m, m:]).max(), np.abs(kernel[m:, :m]).max())
        if off > 1e-12 or np.abs(upper - lower).max() > 1e-12:
            raise ValueError(
                "kernel is not charge-invariant (unequal or coupled charge blocks)"
            )
        kernel = upper
    elif kernel.shape != (m, m):
        raise GridError(f"kernel shape {kernel.shape} incompatible with {m} modes")

    vecs, w = _branch_pairs(_mode_blocks(h))
    _require_sign_gap(w)
    energies = w[0].real
    eps = eps_from_energies(energies[:, None], energies[None, :])
    chi = chi_from_energies(energies[:, None], energies[None, :])

    # O = 1 (x) K has the (j, k) charge block K_jk, and Lambda_j is +1 on
    # the + branch 2-vector u_j of mode j and -1 on the - one, v_j.  Since
    # (eta u_j)^dag Lambda_j = (eta u_j)^dag, the even part reduces to
    # K_jk (eta u_j)^dag u_k and the odd part to K_jk (eta u_j)^dag v_k
    left = vecs[0].conj() * charge_metric(1)
    even_red, odd_red = kernel * (left @ vecs.transpose(0, 2, 1))
    even_dev = float(np.abs(even_red - eps * kernel).max())
    odd_dev = float(np.abs(odd_red - chi * kernel).max())
    return KernelRelationReport(even_dev, odd_dev, tolerance)


# ---------------------------------------------------------------------------
# Concrete operators on the momentum basis
# ---------------------------------------------------------------------------


def position_kernel(psgrid: PhaseSpaceGrid) -> np.ndarray:
    """Mode-space position matrix F^-1 diag(q) F; Hermitian, spectrum = q nodes."""
    fwd = fourier_pair(np.eye(psgrid.momentum.n_points), psgrid, "forward").T
    inv = fourier_pair(np.eye(psgrid.n_q), psgrid, "inverse").T
    return inv @ (psgrid.q_nodes[:, None] * fwd)


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
