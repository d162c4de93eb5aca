"""Four-component phase-space transform, moments, purity criterion, interference gain.

For a two-branch momentum amplitude (phi_+, phi_-) the transform produces
two charge-diagonal (even) components weighted by the eps kernel,

    W_[+-](p, q) = (2 pi hbar)^-1 integral eps(p+P/2, p-P/2)
                   phi_+-^*(p+P/2) phi_+-(p-P/2) exp(-i P q / hbar) dP,

and two cross-branch (odd) components with chi in place of eps and
phi_+-^* phi_-+ products.  Even components are real and carry all
observable content; odd components vanish identically for superselected
(single-branch) states and exist here as diagnostics.

Discretely, the branch amplitude is first interpolated onto the
half-step momentum lattice by a zero-padded FFT (exact for amplitudes
whose position content fits the conjugate window), so the correlation
offset P = j dp runs over all multiples of the momentum spacing, |j| < n,
and the exp(-iPq/hbar) sum is an exact quadrature on the conjugate
position axis.  On the centred conjugate grid (see `grids`) every phase
the grid's offset contributes is a sign: exp(-i P_j q_m / hbar) =
(-1)^j exp(-2 pi i j m / n), and the half-step amplitude at node kappa
is i^kappa times a plain zero-padded FFT.  Pair products of those plain
"lattice amplitudes" already carry the (-1)^j, the offsets fold mod n,
and one length-n FFT per momentum row finishes the sum -- O(n^2 log n)
time and O(n^2) memory for the whole field.

The eps weight is never formed on momentum pairs.  With u = sqrt(E) phi
and v = phi / sqrt(E) on the lattice, eps phi_a^* phi_b =
(u_a^* v_b + v_a^* u_b) / 2 and the second term's transform is the
complex conjugate of the first's, so an even field is Re T[u_a^* v_b];
chi takes the difference of the two terms instead.  T[u_a^* v_b] itself
has a genuine imaginary part (the transform of the antisymmetric half of
the weight), so the discarded imaginary part is not a roundoff residual.

Correlation modes with |P| > p_max fold when a field is re-expanded over
position-axis FFT modes (evolution, kernel reconstruction); widening the
grid so that p_max >~ 9 hbar/sigma + |p_bar| keeps the folded mass below
1e-8.

Second moments may come out negative for strongly localized packets;
that sign is the physical signature of vacuum structure under strong
localization and is reported as-is with a warning flag, never clipped.
"""

from dataclasses import dataclass

import numpy as np
from numpy.lib.stride_tricks import sliding_window_view

from .errors import GridError
from .grids import NATURAL, PhaseSpaceGrid, UnitSystem, centred_dft_size, phase_space_quadrature
from .spectrum import energy, eps_factor, purity_rhs
from .states import ChargeBranchState

EPS_RELATIVISTIC = "relativistic"
EPS_UNITY = "unity"


_I_POWERS = np.array([1, 1j, -1, -1j])


def fine_amplitude(phi: np.ndarray, psgrid: PhaseSpaceGrid) -> np.ndarray:
    """Amplitude on the half-step momentum lattice p = -p_max + kappa dp/2.

    Spectral interpolation through the conjugate position axis; exact for
    amplitudes whose position support fits the window, and equal to the
    input on the even sublattice.  On the centred grid p_kappa q_m / hbar
    is -kappa pi / 2 - m pi + kappa m pi / n modulo 2 pi, so the value is
    i^kappa (an exact table entry) times the lattice amplitude.
    """
    f = _lattice_amplitude(phi, psgrid)
    return _I_POWERS[np.arange(2 * psgrid.n_q) % 4] * f


def _lattice_amplitude(phi: np.ndarray, psgrid: PhaseSpaceGrid) -> np.ndarray:
    """fft(ifft((-1)^k phi), 2n): the fine amplitude without its i^kappa.

    The position samples are psi_m = (-1)^m (n dp / sqrt(2 pi hbar))
    ifft((-1)^k phi)_m, and the interpolation's dq / sqrt(2 pi hbar)
    cancels that prefactor exactly since dq dp n = 2 pi hbar.  A pair
    product conj(f[2k+j]) f[2k-j] of these amplitudes is the fine one
    times conj(i^-(2k+j)) i^-(2k-j) = i^(2j) = (-1)^j = exp(-i P_j q_0 / hbar),
    the offset-dependent part of the q-transform.
    """
    n = centred_dft_size(phi, psgrid)
    alternating = np.array(phi, dtype=complex)
    alternating[..., 1::2] *= -1
    return np.fft.fft(np.fft.ifft(alternating), 2 * n)


def _root_energy(psgrid: PhaseSpaceGrid, units: UnitSystem) -> np.ndarray:
    """sqrt(E) on the half-step lattice p = -p_max + kappa dp/2."""
    fine = -psgrid.momentum.p_max + 0.5 * psgrid.dp * np.arange(2 * psgrid.momentum.n_points)
    return np.sqrt(energy(fine, units))


def _pair_product(bra: np.ndarray, ket: np.ndarray) -> np.ndarray:
    """C[k, j + n] = conj(bra[2k + j]) ket[2k - j] for offsets j in [-n, n).

    bra and ket live on the 2n-node half-step lattice; entries off the
    lattice are zero.  Since 2j = (2k + j) - (2k - j), every nonzero
    offset has |j| <= n - 1.  Both factors are strided views of padded
    copies, so the product is the only (n, 2n) array allocated.
    """
    n = bra.size // 2

    def padded(x):
        out = np.zeros(4 * n, dtype=complex)
        out[n : 3 * n] = x
        return out

    # row k of the bra view starts at padded index 2k; the ket is reversed,
    # so its row k starts at 2n - 1 - 2k and runs backwards through ket
    rows = sliding_window_view(padded(np.conj(bra)), 2 * n)[: 2 * n : 2]
    cols = sliding_window_view(padded(ket[::-1]), 2 * n)[2 * n - 1 :: -2]
    return rows * cols


def _q_transform(corr: np.ndarray, psgrid: PhaseSpaceGrid) -> np.ndarray:
    """W[k, m] = (dp / 2 pi hbar) sum_j C[k, j] exp(-i j dp q_m / hbar), signs already in C.

    With q_m = q_0 + m dq and dp dq n = 2 pi hbar the kernel is
    (-1)^j omega^(j m), omega = exp(-2 pi i / n); C is built from lattice
    amplitudes, whose pair products carry the sign (-1)^j (see
    `_lattice_amplitude`), so the offsets fold mod n and one length-n
    FFT along q finishes the sum.  The fold goes into C's first n
    columns, overwriting C, so the transform allocates one (n_p, n)
    complex array fewer.
    """
    n = psgrid.n_q
    folded = corr[:, :n]
    folded += corr[:, n:]
    return (psgrid.dp / (2.0 * np.pi * psgrid.hbar)) * np.fft.fft(folded, axis=1)


def _branch_or_raise(state: ChargeBranchState, sign: int) -> np.ndarray:
    phi = state.branch(sign)
    if phi is None:
        raise ValueError(f"state has no {'+' if sign > 0 else '-'} branch")
    return phi


def wigner_even(
    state: ChargeBranchState,
    branch: int,
    psgrid: PhaseSpaceGrid,
    eps_mode: str = EPS_RELATIVISTIC,
) -> np.ndarray:
    """Charge-diagonal component on the chosen branch; real (n_p, n_q) field.

    With eps_mode="unity" the kernel weight is forced to 1 and the result
    is the textbook transform of the branch amplitude (the non-local
    theory's distribution).
    """
    phi = _branch_or_raise(state, branch)
    f = _lattice_amplitude(phi, psgrid)
    if eps_mode == EPS_RELATIVISTIC:
        # eps = (sqrt(E1/E2) + sqrt(E2/E1)) / 2; the second term's transform
        # is the complex conjugate of the first's, so W is the real part of one
        root_e = _root_energy(psgrid, state.units)
        bra, ket = root_e * f, f / root_e
    elif eps_mode == EPS_UNITY:
        bra = ket = f
    else:
        raise ValueError(f"unknown kernel {eps_mode!r}")
    # the pair product is a temporary, freed before the real part is copied
    # out, so the copy adds nothing to the transform's peak memory
    return _q_transform(_pair_product(bra, ket), psgrid).real.copy()


def wigner_odd(
    state: ChargeBranchState,
    ordering: int,
    psgrid: PhaseSpaceGrid,
) -> np.ndarray:
    """Cross-branch component (complex); identically zero for physical states.

    ordering=+1 pairs phi_+^* with phi_-; ordering=-1 the reverse.  The
    two orderings are related by W_- = -conj(W_+).
    """
    if state.phi_plus is None or state.phi_minus is None:
        n = psgrid.momentum.n_points
        return np.zeros((n, psgrid.n_q), dtype=complex)
    bra = _lattice_amplitude(state.phi_plus if ordering > 0 else state.phi_minus, psgrid)
    ket = _lattice_amplitude(state.phi_minus if ordering > 0 else state.phi_plus, psgrid)
    # chi = (sqrt(E1/E2) - sqrt(E2/E1)) / 2
    root_e = _root_energy(psgrid, state.units)
    corr = _pair_product(root_e * bra, ket / root_e) - _pair_product(bra / root_e, root_e * ket)
    return _q_transform(0.5 * corr, psgrid)


@dataclass(frozen=True)
class WignerComponents:
    """The four phase-space fields of a two-branch state on a common grid."""

    psgrid: PhaseSpaceGrid
    even_plus: np.ndarray | None
    even_minus: np.ndarray | None
    odd_plus: np.ndarray
    odd_minus: np.ndarray
    eps_mode: str
    units: UnitSystem

    @property
    def even_total(self) -> np.ndarray:
        total = 0.0
        if self.even_plus is not None:
            total = total + self.even_plus
        if self.even_minus is not None:
            total = total + self.even_minus
        if isinstance(total, float):
            raise ValueError("no even component present")
        return total


def wigner_components(
    state: ChargeBranchState,
    psgrid: PhaseSpaceGrid,
    eps_mode: str = EPS_RELATIVISTIC,
) -> WignerComponents:
    even_p = wigner_even(state, +1, psgrid, eps_mode) if state.phi_plus is not None else None
    even_m = wigner_even(state, -1, psgrid, eps_mode) if state.phi_minus is not None else None
    return WignerComponents(
        psgrid=psgrid,
        even_plus=even_p,
        even_minus=even_m,
        odd_plus=wigner_odd(state, +1, psgrid),
        odd_minus=wigner_odd(state, -1, psgrid),
        eps_mode=eps_mode,
        units=state.units,
    )


def _field(w, psgrid: PhaseSpaceGrid) -> np.ndarray:
    """`w` as an (n_p, n_q) array; WignerComponents give their total even part."""
    if isinstance(w, WignerComponents):
        w = w.even_total
    w = np.asarray(w)
    if w.shape != (psgrid.momentum.n_points, psgrid.n_q):
        raise GridError(f"field shape {w.shape} does not match grid")
    return w


def expectation(symbol, w, psgrid: PhaseSpaceGrid):
    """Mean of a phase-space symbol: integral A(p, q) W(p, q) dp dq.

    `symbol` is a sampled (n_p, n_q) array or a callable A(p, q)
    broadcast over the grid; `w` is a field or WignerComponents (whose
    total even part is used).
    """
    w = _field(w, psgrid)
    if callable(symbol):
        symbol = symbol(psgrid.p_nodes[:, None], psgrid.q_nodes[None, :])
    symbol = np.broadcast_to(np.asarray(symbol), w.shape)
    return phase_space_quadrature(symbol * w, psgrid)


@dataclass(frozen=True)
class Moments:
    mean_q: float
    mean_p: float
    var_q: float
    var_p: float

    @property
    def negative_variance(self) -> bool:
        """Signature of vacuum structure under strong localization."""
        return self.var_q < 0 or self.var_p < 0


def moments(w, psgrid: PhaseSpaceGrid) -> Moments:
    """First and second phase-space moments; variances reported unclipped.

    Each of these symbols depends on q or on p alone, so the moments
    come from the field's two marginals by length-n dot products; the
    quadrature weight dp dq cancels in each ratio to the norm.  `w` is
    a field or WignerComponents, as in `expectation`.
    """
    w = _field(w, psgrid)
    p_marginal = w.sum(axis=1)
    q_marginal = w.sum(axis=0)
    p, q = psgrid.p_nodes, psgrid.q_nodes
    norm = p_marginal.sum().real
    mean_q = (q_marginal @ q).real / norm
    mean_p = (p_marginal @ p).real / norm
    var_q = (q_marginal @ q**2).real / norm - mean_q**2
    var_p = (p_marginal @ p**2).real / norm - mean_p**2
    return Moments(mean_q=mean_q, mean_p=mean_p, var_q=var_q, var_p=var_p)


# ---------------------------------------------------------------------------
# Kernel reconstruction and the pure-state criterion
# ---------------------------------------------------------------------------


def reconstruct_kernel(w: np.ndarray, psgrid: PhaseSpaceGrid) -> np.ndarray:
    """Invert the q transform: K[c, j] = kernel at (p_c + j dp/2, p_c - j dp/2).

    Rows are midpoint nodes, columns the symmetric offsets j in the
    resolvable band |j| < n_q/2.  Larger offsets fold (see module notes)
    and are only trustworthy when the correlation support fits the
    window.  The sum over q is an inverse FFT: on the centred conjugate
    grid exp(i q_m P_j / hbar) is (-1)^j times a length-n_q root of unity.

    `w` is a real even field (a complex one raises ValueError), so the
    half spectrum r of its real FFT along q holds the whole band: the
    inverse transform's mode j is conj(r[j]) for j >= 0 and r[-j] for
    j < 0.
    """
    psgrid.require_conjugate()
    n_q = psgrid.n_q
    w = np.asarray(w)
    if np.iscomplexobj(w):
        raise ValueError("reconstruct_kernel takes a real even field")
    if w.shape[-1] != n_q:
        raise GridError(f"field has {w.shape[-1]} position samples, grid has {n_q}")
    half = n_q // 2
    r = np.fft.rfft(w, axis=-1)
    modes = np.concatenate([r[..., half - 1 : 0 : -1], np.conj(r[..., :half])], axis=-1)
    modes *= psgrid.dq
    # column c holds offset j = c - (half - 1) with half - 1 odd, so the
    # odd offsets sit in the even columns
    modes[..., ::2] *= -1
    return modes


def _span(flags: np.ndarray) -> slice:
    """Smallest slice holding every True entry of a 1-D mask (empty if none)."""
    idx = np.flatnonzero(flags)
    return slice(idx[0], idx[-1] + 1) if idx.size else slice(0, 0)


@dataclass(frozen=True)
class PurityReport:
    """Outcome of the pure-state criterion on a reconstructed kernel."""

    max_deviation: float
    max_lhs: float
    max_rhs: float
    phase_curvature_max: float
    window_points: int

    def passed(self, tol: float) -> bool:
        return self.max_deviation <= tol


def purity_check(
    w: np.ndarray,
    psgrid: PhaseSpaceGrid,
    units: UnitSystem = NATURAL,
    window_floor: float = 1e-6,
) -> PurityReport:
    """Mixed log-derivative criterion on the even component of one branch.

    Reconstructs the two-momentum kernel, then compares the mixed second
    derivative of ln|K| against -c^4 p1 p2 / (E1 E2 (E1+E2)^2) over the
    window where |K| exceeds `window_floor` times its maximum.  Central
    differences with step 2 dp, Richardson-refined with step 4 dp.  For a
    pure state of the full theory the two sides agree; a mixture breaks
    the factorization and fails loudly; forcing eps to 1 (non-local
    theory) drives the left side to zero while the right side stays
    finite.
    """
    K = reconstruct_kernel(w, psgrid)
    dp = psgrid.dp
    mag = np.abs(K)
    peak = mag.max()
    if peak <= 0:
        raise ValueError("kernel vanishes identically; log criterion undefined")

    # ln|K| only inside the window: outside it the value never reaches a
    # windowed stencil, and exact zeros would put -inf into the arithmetic
    good = mag > window_floor * peak
    # a stencil is taken only where every one of its points is in the
    # window, so all the arithmetic fits in the window's bounding box
    box = tuple(_span(good.any(axis=other)) for other in (1, 0))
    r0, c0 = box[0].start, box[1].start
    K, mag, good = K[box], mag[box], good[box]
    logmag = np.log(mag, out=np.zeros_like(mag), where=good)

    def mixed(g, s):
        # d^2/dp1dp2 = [D^2 along midpoints (step s dp) - D^2 along offsets
        # (index step 2s = physical step s dp per momentum)] / (4 (s dp)^2);
        # the -2 g(center) terms cancel between the two stencils.
        c_part = g[2 * s :, 2 * s : -2 * s] + g[: -2 * s, 2 * s : -2 * s]
        j_part = g[s:-s, 4 * s :] + g[s:-s, : -4 * s]
        return (c_part - j_part) / (4.0 * (s * dp) ** 2)

    # unit phasors of K inside the window: the stencil on arg K becomes the
    # argument of a product, so no 2 pi branch cut (and no unwrapping
    # through the noise outside the window) enters the differences
    u = np.divide(K, mag, out=np.zeros_like(K), where=good)

    def mixed_phase(s):
        c_part = u[2 * s :, 2 * s : -2 * s] * u[: -2 * s, 2 * s : -2 * s]
        j_part = u[s:-s, 4 * s :] * u[s:-s, : -4 * s]
        # conj(j) * c, in place: with fused multiply-adds a complex product
        # is not bitwise commutative, and numpy's temporary elision turns
        # `c * conj(j)` into this order on large arrays only; spelling it
        # out keeps the result independent of the window's size
        prod = np.conj(j_part)
        prod *= c_part
        return np.angle(prod) / (4.0 * (s * dp) ** 2)

    def window_mask(s):
        ok = good[2 * s :, 2 * s : -2 * s] & good[: -2 * s, 2 * s : -2 * s]
        ok &= good[s:-s, 4 * s :] & good[s:-s, : -4 * s]
        ok &= good[s:-s, 2 * s : -2 * s]
        return ok

    s = 2
    lhs_h = mixed(logmag, s)
    lhs_2h = mixed(logmag, 2 * s)
    m_h = window_mask(s)
    m_2h = window_mask(2 * s)
    # align the step-s and step-2s stencils on the common interior
    inner = (slice(s, -s), slice(2 * s, -2 * s))
    lhs = (4.0 * lhs_h[inner] - lhs_2h) / 3.0
    mask = m_h[inner] & m_2h
    if not mask.any():
        raise ValueError(
            "kernel magnitude below the window floor everywhere; "
            "cannot evaluate the log criterion"
        )

    # the right-hand side is needed on the window only
    rows, cols = np.nonzero(mask)
    n_q = psgrid.n_q
    off = np.arange(-(n_q // 2 - 1), n_q // 2)
    centre = psgrid.p_nodes[r0 + 2 * s + rows]
    half = 0.5 * off[c0 + 4 * s + cols] * dp
    rhs = purity_rhs(centre + half, centre - half, units)
    lhs = lhs[mask]

    phase_curv = np.abs(mixed_phase(s)[inner][mask])
    return PurityReport(
        max_deviation=float(np.abs(lhs - rhs).max()),
        max_lhs=float(np.abs(lhs).max()),
        max_rhs=float(np.abs(rhs).max()),
        phase_curvature_max=float(phase_curv.max()),
        window_points=int(mask.sum()),
    )


def interference_gain(p_a: float, p_b: float, units: UnitSystem = NATURAL) -> float:
    """Amplification factor for interference terms between energy eigenstates.

    Equals the eps kernel at the two momenta: the off-diagonal part of a
    reconstructed kernel for a superposition of eigenpackets at p_a and
    p_b is larger than its eps-free counterpart by exactly this factor,
    which exceeds 1 everywhere off the diagonal.  The enhancement is a
    property of the reconstruction (a "quantum lens"), not a physical
    increase of coherence.
    """
    return float(eps_factor(p_a, p_b, units))
