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
time.  The rows are built, folded and transformed one block at a time,
so the memory is the n x n output plus O(block n) transient.  The
blocks of the transform and of the purity criterion run on the CPUs of
the process's affinity mask (see `grids._run_row_blocks`); each block
writes only its own rows and the criterion reduces only by maxima and
integer sums, so every result is bit-identical for any number of
workers.

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
from .grids import (
    NATURAL,
    PhaseSpaceGrid,
    UnitSystem,
    _run_row_blocks,
    centred_dft_size,
    half_step_lattice,
    phase_space_quadrature,
)
from .spectrum import EPS_RELATIVISTIC, EPS_UNITY, _energy, energy, eps_factor
from .states import ChargeBranchState


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
    return np.sqrt(energy(half_step_lattice(psgrid.momentum), units))


def _pair_views(bra: np.ndarray, ket: np.ndarray):
    """Views R, S with R[k, j + n] S[k, j + n] = conj(bra[2k + j]) ket[2k - j], j in [-n, n).

    bra and ket live on the 2n-node half-step lattice; entries off the
    lattice are zero.  Since 2j = (2k + j) - (2k - j), every nonzero
    offset has |j| <= n - 1.  Both are (n, 2n) strided views of padded
    4n-node copies, so no (n, 2n) array is allocated.
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
    return rows, cols


def _q_transform(psgrid: PhaseSpaceGrid, pair: tuple, minus_pair: tuple | None = None) -> np.ndarray:
    """W[k, m] = (dp / 2 pi hbar) sum_j C[k, j] exp(-i j dp q_m / hbar), signs already in C.

    C is the pair product of the (bra, ket) `pair`, and the field is
    real: Re W.  With a `minus_pair`, C is half the pair product of `pair`
    less that of `minus_pair`, and the field is complex.  With q_m = q_0 + m dq
    and dp dq n = 2 pi hbar the kernel is (-1)^j omega^(j m),
    omega = exp(-2 pi i / n); C is built from lattice amplitudes, whose
    pair products carry the sign (-1)^j (see `_lattice_amplitude`), so
    the offsets fold mod n and one length-n FFT along q finishes the sum.
    C is built, folded and transformed one block of momentum rows at a
    time in buffers each worker reuses, and each block lands in the output.

    Row k of C vanishes outside the band |j| <= min(2k, 2n - 1 - 2k),
    where one of the two lattice indices 2k +- j leaves the lattice, so
    each block multiplies only the columns of its widest row's band J.
    The fold then adds only where the band's two halves meet mod n
    (2J >= n); below that it places j >= 0 in front of the j < 0 half,
    which already sits at its folded columns, with zeros between.
    """
    n = psgrid.n_q
    scale = psgrid.dp / (2.0 * np.pi * psgrid.hbar)
    bra_rows, ket_cols = _pair_views(*pair)
    if minus_pair:
        minus_rows, minus_cols = _pair_views(*minus_pair)
    out = np.empty((n, n), dtype=complex if minus_pair else float)

    def transform(blocks):
        size = blocks[0].stop - blocks[0].start
        corr = np.empty((size, 2 * n), dtype=complex)
        spectrum = np.empty((size, n), dtype=complex)
        if minus_pair:
            minus_corr = np.empty_like(corr)
        for rows in blocks:
            J = min(2 * (rows.stop - 1), 2 * n - 1 - 2 * rows.start, n - 1)
            band = slice(n - J, n + J + 1)
            c = corr[: rows.stop - rows.start]
            band_c = c[:, band]
            np.multiply(bra_rows[rows, band], ket_cols[rows, band], out=band_c)
            if minus_pair:
                band_c -= np.multiply(minus_rows[rows, band], minus_cols[rows, band], out=minus_corr[: len(c), band])
                np.multiply(0.5, band_c, out=band_c)
            alone = min(J + 1, n - J)
            folded = c[:, :n]
            folded[:, :alone] = c[:, n : n + alone]
            folded[:, alone : n - J] = 0
            folded[:, n - J : J + 1] += c[:, 2 * n - J : n + J + 1]
            f = np.fft.fft(folded, axis=1, out=spectrum[: len(c)])
            np.multiply(scale, f, out=f)
            out[rows] = f if minus_pair else f.real

    _run_row_blocks(transform, n, 2 * n)
    return out


def _require_state_grid(state: ChargeBranchState, psgrid: PhaseSpaceGrid):
    """The grid must be built on the state's momentum grid, conjugate for the state's hbar."""
    if psgrid.hbar != state.units.hbar:
        raise GridError(f"grid is conjugate for hbar = {psgrid.hbar}, state has hbar = {state.units.hbar}")
    if psgrid.momentum != state.grid:
        raise GridError(f"grid is built on {psgrid.momentum}, state lives on {state.grid}")


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
    _require_state_grid(state, psgrid)
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
    return _q_transform(psgrid, (bra, ket))


def wigner_odd(
    state: ChargeBranchState,
    ordering: int,
    psgrid: PhaseSpaceGrid,
) -> np.ndarray:
    """Cross-branch component (complex); identically zero for physical states.

    ordering=+1 pairs phi_+^* with phi_-; ordering=-1 the reverse.  The
    two orderings are related by W_- = -conj(W_+).
    """
    _require_state_grid(state, psgrid)
    if state.phi_plus is None or state.phi_minus is None:
        n = psgrid.momentum.n_points
        return np.zeros((n, psgrid.n_q), dtype=complex)
    bra = _lattice_amplitude(state.phi_plus if ordering > 0 else state.phi_minus, psgrid)
    ket = _lattice_amplitude(state.phi_minus if ordering > 0 else state.phi_plus, psgrid)
    # chi = (sqrt(E1/E2) - sqrt(E2/E1)) / 2
    root_e = _root_energy(psgrid, state.units)
    return _q_transform(psgrid, (root_e * bra, ket / root_e), (bra / root_e, root_e * ket))


def expectation(symbol, w, psgrid: PhaseSpaceGrid):
    """Mean of a phase-space symbol: integral A(p, q) W(p, q) dp dq.

    `symbol` is a sampled (n_p, n_q) array or a callable A(p, q)
    broadcast over the grid; `w` is an (n_p, n_q) field.
    """
    w = psgrid.require_field(w)
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

    # a negative variance is the signature of vacuum structure under
    # strong localization, reported per axis
    @property
    def var_q_negative(self) -> bool:
        return bool(self.var_q < 0)

    @property
    def var_p_negative(self) -> bool:
        return bool(self.var_p < 0)


def moments(w, psgrid: PhaseSpaceGrid) -> Moments:
    """First and second phase-space moments; variances reported unclipped.

    Each of these symbols depends on q or on p alone, so the moments
    come from the field's two marginals by length-n dot products; the
    quadrature weight dp dq cancels in each ratio to the norm.  `w` is
    an (n_p, n_q) field, as in `expectation`.
    """
    w = psgrid.require_field(w)
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

    `w` is a real even field (a complex one raises ValueError, and one
    whose shape is not the grid's GridError), so the
    half spectrum r of its real FFT along q holds the whole band: the
    inverse transform's mode j is conj(r[j]) for j >= 0 and r[-j] for
    j < 0.
    """
    j_max = psgrid.n_q // 2 - 1
    r = np.fft.rfft(_real_even_field(w, psgrid), axis=-1)
    return _kernel_modes(r, -j_max, j_max, psgrid.dq)


def _real_even_field(w, psgrid: PhaseSpaceGrid) -> np.ndarray:
    """`w` as an array, raising unless it is a real field on the conjugate grid."""
    psgrid.require_conjugate()
    w = psgrid.require_field(w)
    if np.iscomplexobj(w):
        raise ValueError("the kernel is reconstructed from a real even field")
    return w


def _kernel_modes(r: np.ndarray, j_lo: int, j_hi: int, dq: float) -> np.ndarray:
    """Kernel columns for the offsets j_lo <= j <= j_hi, j_lo <= 0, from the half spectrum `r` along q.

    Column c holds offset j = j_lo + c: conj(r[j]) for j >= 0 and r[-j]
    for j < 0, times dq, with the sign (-1)^j of the centred grid.
    """
    modes = np.concatenate([r[..., 1 : 1 - j_lo][..., ::-1], np.conj(r[..., : j_hi + 1])], axis=-1)
    modes *= dq
    modes[..., (j_lo + 1) % 2 :: 2] *= -1
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


def purity_check(
    w: np.ndarray,
    psgrid: PhaseSpaceGrid,
    units: UnitSystem = NATURAL,
    window_floor: float = 1e-6,
) -> PurityReport:
    """Mixed log-derivative criterion on the even component of one branch.

    Reconstructs the two-momentum kernel, then compares the mixed second
    derivative of ln|K| against -c^4 p1 p2 / (E1 E2 (E1+E2)^2) over the
    window where |K| exceeds `window_floor` times its maximum.  |K| at
    offset -j equals |K| at +j bit for bit (the two differ by a conjugate
    and a sign), so the window's bounding box is found on the half
    spectrum, |j| <= j_max.  Central differences with step 2 dp,
    Richardson-refined with step 4 dp, both on one five-point stencil:
    the midpoint pair c +- s, the offset pair j +- 2s and the centre, at
    index step s = 2 and 4.  Both steps are evaluated on the common
    interior the step-4 stencil reaches, 4 rows and 8 offset columns in
    from the box, and a box with no such interior point in the window
    raises ValueError.  For a pure state of the full theory the two
    sides agree; a mixture breaks the factorization and fails loudly;
    forcing eps to 1 (non-local theory) drives the left side to zero
    while the right side stays finite.  `window_floor` must be finite and
    non-negative: a negative floor admits the exact zeros of K, a NaN
    one admits nothing.

    The field's real FFT along q is never held whole: the window scan
    transforms one block of rows at a time and keeps only row and column
    maxima of |K|, and the stencils transform the box's rows again, one
    block at a time.  Only the stencils centred at j >= 0 are evaluated,
    so only that half of the box, with the 8 columns of halo below j = 0
    they reach, is ever built.  The blocks run on worker threads, each
    forming its own right-hand side through the private `_energy` and
    handing back only its maxima and point count.  Each point at j > 0 also
    stands for its mirror -j, by three rules that keep every report
    field bit-identical to the whole window's: ln|K|, the window mask
    and the left side are the same bits at -j (its sums only trade
    operands); the right side at -j is the one at (p1, p2) swapped,
    -c^4 p2 p1 / den, whose numerator may round apart from -c^4 p1 p2
    when c != 1, so both are formed over one E1, E2 and den; and each
    phasor at -j is the conjugate of its mirror image with j +- 2s
    trading places, so the phase product there is (j- j+) conj(c+ c-),
    in that operand order.  `window_points` counts each j > 0 point
    twice.
    """
    if not 0.0 <= window_floor < np.inf:
        raise ValueError(f"window_floor must be finite and non-negative, got {window_floor}")
    w = _real_even_field(w, psgrid)
    dp, dq, half_n = psgrid.dp, psgrid.dq, psgrid.n_q // 2
    # |K| on the half spectrum, kept only as its row and column maxima:
    # a row or an offset column holds a window point iff its maximum does
    row_max = np.empty(len(w))

    def scan(blocks):
        col_max = np.zeros(half_n)
        for rows in blocks:
            half_mag = np.abs(np.fft.rfft(w[rows], axis=-1)[:, :half_n] * dq)
            row_max[rows] = half_mag.max(axis=1)
            np.maximum(col_max, half_mag.max(axis=0), out=col_max)
        return col_max

    col_max = np.maximum.reduce(_run_row_blocks(scan, len(w), half_n + 1))
    peak = row_max.max()
    if peak <= 0:
        raise ValueError("kernel vanishes identically; log criterion undefined")

    # a stencil is taken only where every one of its points is in the
    # window, so all the arithmetic fits in the window's bounding box:
    # the rows `box` and the offsets |j| <= j_max
    box = _span(row_max > window_floor * peak)
    j_max = _span(col_max > window_floor * peak).stop - 1

    # every stencil point lies within `edge` rows and 2 edge offset columns
    # of its centre, so all views are taken on the common interior that
    # the step-2s stencil reaches; the box is transformed again and
    # evaluated one block of interior rows at a time, each with `edge`
    # rows of halo either side
    s = 2
    edge = 2 * s
    p_nodes = psgrid.p_nodes[box.start + edge :]

    def stencil(a, step):
        """Views c+, c-, j+, j- and the centre of `a`: midpoints +-step, offsets +-2 step."""
        n_rows, n_cols = a.shape

        def at(dr, dc):
            return a[edge + dr : n_rows - edge + dr, 2 * edge + dc : n_cols - 2 * edge + dc]

        return at(step, 0), at(-step, 0), at(0, 2 * step), at(0, -2 * step), at(0, 0)

    def mixed(logmag, step):
        # d^2/dp1dp2 = [D^2 along midpoints (h = step dp) - D^2 along offsets
        # (index step 2 step = physical step h per momentum)] / (4 h^2);
        # the -2 g(center) terms cancel between the two stencils.
        c_plus, c_minus, j_plus, j_minus, _ = stencil(logmag, step)
        return ((c_plus + c_minus) - (j_plus + j_minus)) / (4.0 * (step * dp) ** 2)

    def windowed(blocks):
        """Per block with a windowed stencil: max |lhs - rhs|, max |lhs|, max |rhs|, max phase curvature, points."""
        found = []
        for rows in blocks:
            # the j >= 0 half of the box and the 2 edge columns of halo its
            # stencils reach below j = 0; column c is offset j = c - 2 edge
            spectrum = np.fft.rfft(w[box.start + rows.start : box.start + rows.stop + 2 * edge], axis=-1)
            K = _kernel_modes(spectrum, -2 * edge, j_max, dq)
            mag = np.abs(K)
            # ln|K| only inside the window: outside it the value never reaches a
            # windowed stencil, and exact zeros would put -inf into the arithmetic
            good = mag > window_floor * peak
            logmag = np.log(mag, out=np.zeros_like(mag), where=good)
            mask = np.logical_and.reduce(stencil(good, s) + stencil(good, 2 * s))
            if not mask.any():
                continue
            lhs = ((4.0 * mixed(logmag, s) - mixed(logmag, 2 * s)) / 3.0)[mask]
            centres, cols = np.nonzero(mask)
            centre = p_nodes[rows.start + centres]
            half = 0.5 * cols * dp

            # unit phasors of K inside the window: the stencil on arg K becomes the
            # argument of a product, so no 2 pi branch cut (and no unwrapping
            # through the noise outside the window) enters the differences
            u = np.divide(K, mag, out=np.zeros_like(K), where=good)
            c_plus, c_minus, j_plus, j_minus, _ = stencil(u, s)
            midpoints = c_plus * c_minus
            # conj(j) * c, in place: with fused multiply-adds a complex product
            # is not bitwise commutative, and numpy's temporary elision turns
            # `c * conj(j)` into this order on large arrays only; spelling it
            # out keeps the result independent of the block's size
            prod = np.conj(j_plus * j_minus)
            prod *= midpoints
            # at -j every phasor is the conjugate of its mirror image and j+-
            # trade places, so the product is (j- j+) conj(c+ c-), in that order
            mirror = j_minus[:, 1:] * j_plus[:, 1:]
            mirror *= np.conj(midpoints[:, 1:])
            phases = np.concatenate([prod[mask], mirror[mask[:, 1:]]])
            phase_curv = np.abs(np.angle(phases) / (4.0 * (s * dp) ** 2))
            # lhs and the window are symmetric in j, so each j > 0 point counts twice
            points = mask.sum() + mask[:, 1:].sum()
            # the right-hand side: purity_rhs at (p1, p2) for +j and at (p2, p1)
            # for -j, whose numerators may round differently, over one E1, E2
            # and denominator
            p1, p2 = centre + half, centre - half
            e1, e2 = _energy(p1, units), _energy(p2, units)
            rhs = np.stack([-(units.c**4) * p1 * p2, -(units.c**4) * p2 * p1]) / (e1 * e2 * (e1 + e2) ** 2)
            found.append((np.abs(lhs - rhs).max(), np.abs(lhs).max(), np.abs(rhs).max(), phase_curv.max(), points))
        return found

    # a box without an interior offset column has no stencil centre at all
    interior = box.stop - box.start - 2 * edge if j_max >= 2 * edge else 0
    stats = [found for stripe in _run_row_blocks(windowed, max(interior, 0), half_n + 1) for found in stripe]
    if not stats:
        raise ValueError(
            "kernel magnitude below the window floor everywhere; "
            "cannot evaluate the log criterion"
        )
    stats = np.array(stats)
    max_deviation, max_lhs, max_rhs, phase_curvature_max = stats[:, :4].max(axis=0)
    return PurityReport(
        max_deviation=float(max_deviation),
        max_lhs=float(max_lhs),
        max_rhs=float(max_rhs),
        phase_curvature_max=float(phase_curvature_max),
        window_points=int(stats[:, 4].sum()),
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
