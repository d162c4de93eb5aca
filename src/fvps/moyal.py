"""Star products, Moyal/anti-Moyal brackets, and exact spectral propagators.

Symbols are sampled fields of shape (n_p, n_q), or (m, m, n_p, n_q) for
matrix symbols of any size m, and multiply in the Fourier-kernel form:
plane-wave modes multiply as W_v * W_w = exp(-(i hbar/2) omega(v, w))
W_{v+w} with omega(v, w) = kappa_v lambda_w - lambda_v kappa_w the
symplectic pairing of the mode frequencies.  The sum over all mode pairs
is a twisted convolution, taken by one of two paths.  On either path
matrix entries contract as A_ik B_kl in the same pass and a scalar field
is a 1x1 symbol, so scalar and matrix symbols share its code.

On a square grid that `PhaseSpaceGrid.conjugate` built, at the grid's
own hbar, every shift hbar kappa / 2 is a whole number of half steps of
the momentum lattice (`_lattice_convolution`): each q-mode of A goes
through one zero-padded inverse FFT onto the `half_step_lattice`, its
shifted copies are strided views of it, and the products with B's
q-modes are summed in p, in two parity classes of A's modes, each class
transformed once.  Cost: O(m^3 n_q^2 n_p + m^2 n_q n_p log n_p) time and
at most eight (m, m, n_p, n_q) complex arrays.

Any other hbar or grid -- the product's hbar is its own parameter, and
the grid need be neither conjugate nor square -- takes the general path
(`_twisted_convolution`), one of A's q-modes v at a time: mode v is
shifted along p by hbar kappa_u / 2 for every output q-mode u in one
batched FFT, multiplied by B's q-mode u - v and transformed along p, and
the remaining phase is applied before it is added to one accumulator.
Cost: O(m^2 n_p n_q^2 (m + log n_p)) time and, beyond the operands,
O(m^2 n_q n_p) memory.  Both paths are exact for band-limited
periodic fields; products of modes beyond the grid band alias (the phase
is taken at the wrapped output mode), so keep inputs band-limited to half
the grid band.

Evolution under a momentum-only Hamiltonian symbol never needs the
general product: in the position-axis Fourier representation each mode
kappa evolves by a pure phase,

    even fields:  exp(-(i/hbar) [E(p + hbar kappa/2) - E(p - hbar kappa/2)] t)
    odd fields:   exp(-(i/hbar) [E(p + hbar kappa/2) + E(p - hbar kappa/2)] t)

which is exact for arbitrary dispersion E(p) -- the relativistic square
root with its unbounded derivative order included.  The even phase of
mode -kappa is the conjugate of that of mode kappa, so a real even field
evolves through a real FFT along q.  The anti-Moyal
bracket is normalized as the plain symmetrized product
[A, B] = (A*B + B*A)/2; with that convention the odd-field equation of
motion reads dW/dt = -(2i/hbar) [E, W].
"""

from dataclasses import dataclass

import numpy as np
from numpy.lib.stride_tricks import as_strided, sliding_window_view

from .errors import GridError, StepSizeError
from .grids import PhaseSpaceGrid, _lattice_pairs, _run_row_blocks, half_step_lattice

# ---------------------------------------------------------------------------
# Sampled fields: Fourier-kernel star product
# ---------------------------------------------------------------------------


def _mode_frequencies(psgrid: PhaseSpaceGrid):
    lam = 2.0 * np.pi * np.fft.fftfreq(psgrid.momentum.n_points, psgrid.dp)
    kap = 2.0 * np.pi * np.fft.fftfreq(psgrid.n_q, psgrid.dq)
    return lam, kap


def _symbol_stacks(a, b, psgrid: PhaseSpaceGrid):
    """Both sampled operands as (m, m, n_p, n_q) stacks; a scalar field is 1x1.

    Returns the two stacks and whether the operands were scalar fields.
    """
    a = np.asarray(a, dtype=complex)
    b = np.asarray(b, dtype=complex)
    if a.ndim != b.ndim:
        raise GridError("matrix symbols multiply with matrix symbols")
    scalar = a.ndim == 2
    if scalar:
        a, b = a[None, None], b[None, None]
    grid = (psgrid.momentum.n_points, psgrid.n_q)
    if a.shape != b.shape or a.shape[2:] != grid or a.shape[0] != a.shape[1]:
        raise GridError(f"symbol shapes {a.shape}, {b.shape} are not (m, m) + grid {grid}")
    return a, b, scalar


def _twisted_convolution(a: np.ndarray, b: np.ndarray, psgrid: PhaseSpaceGrid, hbar: float) -> np.ndarray:
    """sum_k A_ik * B_kl for (m, m, n_p, n_q) stacks, one of A's q-modes at a time.

    In mode space (A * B)_u = sum_v a_v b_{u-v} exp(-(i hbar/2) omega(v, u)),
    using omega(v, u - v) = omega(v, u), with omega taken at the output
    mode u after the cyclic wrap.  The lambda_v kappa_u half of the phase
    shifts a's q-mode v along p; the sum over p-modes is then a product
    in p, and the kappa_v lambda_u half is applied after the p-transform.
    Each mode v goes through these steps and adds its term to one
    (m, m, n_q, n_p) accumulator, whose 2-D inverse transform is the
    product; beyond the operands the memory is O(m^2 n_q n_p).
    """
    m, _, n_p, n_q = a.shape
    lam, kap = _mode_frequencies(psgrid)
    twist = np.exp(0.5j * hbar * np.multiply.outer(kap, lam))
    # axes (i, k, v, p): a's q-mode v as a function of p
    ca = np.fft.fft2(a).swapaxes(-1, -2)
    ca /= n_q
    # axes (k, l, v, u, p): b's q-mode (u - v) mod n_q, a strided view into
    # its q-modes written twice over, in which row v starts at mode n_q - v
    cb = np.fft.fft(b, axis=-1).swapaxes(-1, -2)
    cb = np.concatenate([cb, cb], axis=2)
    columns = sliding_window_view(cb, n_q, axis=2)[:, :, n_q:0:-1].swapaxes(-1, -2)
    out = np.zeros((m, m, n_q, n_p), dtype=complex)
    for v in range(n_q):
        # axes (i, k, u, p): a's q-mode v shifted by hbar kappa_u / 2
        shifted = ca[:, :, v, None, :] * twist
        np.fft.ifft(shifted, axis=-1, out=shifted)
        term = np.einsum("ikup,klup->ilup", shifted, columns[:, :, v])
        np.fft.fft(term, axis=-1, out=term)
        term *= twist[v].conj()
        out += term
    return np.fft.ifft2(out.swapaxes(-1, -2))


def _lattice_convolution(a: np.ndarray, b: np.ndarray) -> np.ndarray:
    """`_twisted_convolution` on an n x n grid that `PhaseSpaceGrid.conjugate` built, at the grid's hbar.

    There hbar kappa_u / 2 = u' dp / 2 for the signed mode index u', so a's
    q-mode v shifted by hbar kappa_u / 2 is its value L_v at node 2p + u'
    of the `half_step_lattice`, which one zero-padded inverse FFT of
    length 2n gives for every u.  The untwist exp(-i pi v' k' / n) of mode
    v' = 2t + c is a roll by t samples along p and, for odd v', the
    half-sample phase exp(-i pi k' / n), so the sum over v is taken in p,
    one parity class c at a time:

        S_c[u, p] = sum_t L_v[2p + u' - 2t] b_{u - v}(p - t),

    and the product's q-mode u is S_0 plus S_1 shifted by half a sample.
    Row s of class c holds mode t = n/4 - 1 - s, its lattice values
    rolled by 2t and B's modes written out so that both factors are
    strided views over (s, u, p); one einsum (no BLAS) sums over s and k.
    Beyond its operands it holds at most eight (m, m, n, n) complex arrays
    at once.
    """
    m, _, n, _ = a.shape
    half, quarter = n // 2, n // 4
    t = quarter - 1 - np.arange(half)
    modes = (2 * t + np.arange(2)[:, None]).ravel() % n  # a's q-modes, class by class
    ca = np.fft.fft2(a, norm="forward")[..., modes]
    lattice = np.zeros((m, m, n, 2 * n), dtype=complex)
    lattice[..., :half] = ca[..., :half, :].swapaxes(-1, -2)
    lattice[..., -half:] = ca[..., half:, :].swapaxes(-1, -2)
    del ca
    np.fft.ifft(lattice, axis=-1, norm="forward", out=lattice)
    # row (c, s) at x = 2p + u' + n/2 holds L_v[2p + u' - 2t]
    nodes = (np.arange(3 * n - 1) - half - 2 * t[:, None]) % (2 * n)
    lat = np.take_along_axis(lattice.reshape(m, m, 2, half, 2 * n), nodes[None, None, None], axis=-1)
    del lattice, nodes
    # b's q-mode (r + 1) mod n at sample (y + 1 - n/4) mod n, so that class c
    # reads mode u - v at row u' + n/2 + 2s + 1 - c and p - t at column p + s
    cb = np.fft.fft(b, axis=-1).swapaxes(-1, -2)
    cols = np.arange(1 - quarter, n + quarter) % n
    bext = cb[..., (np.arange(2 * n - 1) + 1)[:, None] % n, cols]
    del cb
    li, lk, _, ls, lx = lat.strides
    bk, bl, br, by = bext.strides
    sums = np.empty((2, m, m, n, n), dtype=complex)  # (c, i, l, u' + n/2, p)
    for c in range(2):
        np.einsum("iksup,klsup->ilup",
                  as_strided(lat[:, :, c], (m, m, half, n, n), (li, lk, ls, lx, 2 * lx)),
                  as_strided(bext[:, :, 1 - c :], (m, m, half, n, n), (bk, bl, 2 * br + by, br, by)),
                  out=sums[c])
    del lat, bext
    even, odd = sums
    np.fft.fft(odd, axis=-1, out=odd)
    odd *= np.exp(-1j * np.pi * np.fft.fftfreq(n))
    np.fft.ifft(odd, axis=-1, out=odd)
    even += odd
    # q-modes in centred order: their inverse transform carries (-1)^q
    out = np.fft.ifft(even.swapaxes(-1, -2), axis=-1)
    out[..., 1::2] *= -1
    return out


def star_product(a, b, psgrid: PhaseSpaceGrid, hbar: float = 1.0):
    """Noncommutative symbol product replacing the pointwise one.

    Sampled fields, scalar (n_p, n_q) or matrix (m, m, n_p, n_q), use the
    spectral kernel form.  On a grid that `PhaseSpaceGrid.conjugate`
    built, at hbar = psgrid.hbar, every twist is a whole number of half
    steps of the momentum lattice and `_lattice_convolution` takes the
    product, O(m^3 n_q^2 n_p + m^2 n_q n_p log n_p); any other hbar or
    grid, one conjugate only within `is_conjugate`'s 1e-9 included, takes
    `_twisted_convolution`, O(m^2 n_p n_q^2 (m + log n_p)).  In the
    hbar -> 0 limit the result tends to the pointwise (matrix) product,
    which hbar = 0 gives; a non-finite hbar raises ValueError.
    """
    if not np.isfinite(hbar):
        raise ValueError(f"hbar must be finite, got {hbar}")
    a, b, scalar = _symbol_stacks(a, b, psgrid)
    if hbar == psgrid.hbar and psgrid == PhaseSpaceGrid.conjugate(psgrid.momentum, psgrid.hbar):
        out = _lattice_convolution(a, b)
    else:
        out = _twisted_convolution(a, b, psgrid, hbar)
    return out[0, 0] if scalar else out


def moyal_bracket(a, b, psgrid: PhaseSpaceGrid, hbar: float = 1.0):
    """(A*B - B*A) / (i hbar); tends to the Poisson bracket for scalars.

    hbar must be finite and nonzero (ValueError otherwise).
    """
    if not np.isfinite(hbar) or hbar == 0:
        raise ValueError(f"hbar must be finite and nonzero, got {hbar}")
    ab = star_product(a, b, psgrid, hbar)
    ba = star_product(b, a, psgrid, hbar)
    return (1.0 / (1j * hbar)) * (ab - ba)


def anti_moyal_bracket(a, b, psgrid: PhaseSpaceGrid, hbar: float = 1.0):
    """Symmetrized product (A*B + B*A)/2, the symbol analogue of the anticommutator.

    Normalization is a package convention (hbar-free symmetric mean);
    the odd-field evolution equation with this convention carries the
    prefactor -(2i/hbar), matching the sum-of-energies propagator phase.
    """
    ab = star_product(a, b, psgrid, hbar)
    ba = star_product(b, a, psgrid, hbar)
    return 0.5 * (ab + ba)


def _spectral_derivative(field: np.ndarray, psgrid: PhaseSpaceGrid, axis: int) -> np.ndarray:
    """d/dp (axis -2) or d/dq (axis -1) of a stack of sampled fields."""
    lam, kap = _mode_frequencies(psgrid)
    freq = lam[:, None] if axis == -2 else kap
    return np.fft.ifft(1j * freq * np.fft.fft(field, axis=axis), axis=axis)


def poisson_bracket(a, b, psgrid: PhaseSpaceGrid):
    """dA/dq dB/dp - dA/dp dB/dq with matrix ordering preserved."""
    a, b, scalar = _symbol_stacks(a, b, psgrid)
    da_q, da_p, db_q, db_p = (_spectral_derivative(x, psgrid, axis) for x in (a, b) for axis in (-1, -2))
    out = np.einsum("ik...,kl...->il...", da_q, db_p) - np.einsum("ik...,kl...->il...", da_p, db_q)
    return out[0, 0] if scalar else out


@dataclass(frozen=True)
class ClassicalLimitReport:
    """Scaling of the Moyal-vs-Poisson gap over an hbar scan."""

    hbars: tuple
    gaps: tuple
    exponent: float | None


def classical_limit_gap(a, b, psgrid: PhaseSpaceGrid, hbars) -> ClassicalLimitReport:
    """Fit || {A,B}_Moyal - {A,B}_Poisson || ~ hbar^exponent for matrix symbols.

    Pointwise-commuting matrix symbols close onto the Poisson bracket at
    rate hbar^2; non-commuting ones diverge as 1/hbar because the matrix
    commutator term survives division by hbar -- the classical limit
    simply does not exist for them.  The scan needs at least two
    distinct, finite, positive hbar values, and every gap must be finite
    (ValueError otherwise).
    """
    hbars = tuple(hbars)
    if len(set(hbars)) < 2 or not all(np.isfinite(hb) and hb > 0 for hb in hbars):
        raise ValueError(f"hbars must hold at least two distinct finite positive values, got {hbars}")
    pb = poisson_bracket(a, b, psgrid)
    gaps = []
    for hb in hbars:
        mb = moyal_bracket(a, b, psgrid, hbar=hb)
        gaps.append(float(np.abs(mb - pb).max()))
    gaps = tuple(gaps)
    if not np.isfinite(gaps).all():
        raise ValueError(f"the Moyal-Poisson gaps must be finite, got {gaps}")
    if max(gaps) < 1e-14:
        return ClassicalLimitReport(hbars, gaps, None)
    slope = np.polyfit(np.log(np.asarray(hbars, dtype=float)), np.log(np.asarray(gaps)), 1)[0]
    return ClassicalLimitReport(hbars, gaps, float(slope))


# ---------------------------------------------------------------------------
# Exact spectral propagators for momentum-diagonal Hamiltonians
# ---------------------------------------------------------------------------


def _mode_lattice(psgrid: PhaseSpaceGrid) -> np.ndarray:
    """The nodes on which E is evaluated once for every p_k +- hbar kappa_m / 2.

    On a conjugate grid hbar kappa_m / 2 = m dp / 2 for the FFT mode index
    m, so p_k +- hbar kappa_m / 2 = p_0 + (2k +- m) dp / 2: every shifted
    momentum is a node of `half_step_lattice` padded by n_q / 2 half steps
    at either end, index 2k + n_q/2 +- m, and E is evaluated once per node
    instead of on 2 n_p n_q pairs.  `_mode_pairs` reads the pairs.
    """
    psgrid.require_conjugate()
    return half_step_lattice(psgrid.momentum, psgrid.n_q // 2)


def _mode_pairs(op, ahead: np.ndarray, behind: np.ndarray, psgrid: PhaseSpaceGrid) -> np.ndarray:
    """(n_p, n_q) op(X+, X-) in FFT mode order, X+ read from `ahead` and X- from `behind` (reversed).

    X+- = X(p_k +- hbar kappa_m / 2) on the `_mode_lattice` nodes 2k +
    n_q/2 +- m: the `grids._lattice_pairs` views of width n_q hold mode m
    = c - n_q/2 in column c, so their columns n_q/2 .. n_q - 1 (modes 0 ..
    n_q/2 - 1) and 0 .. n_q/2 - 1 (the negative modes) are written to the
    two halves of the output in turn, which is the ifftshift.
    """
    n_p, n_q = psgrid.momentum.n_points, psgrid.n_q
    half = n_q // 2
    plus, minus = _lattice_pairs(ahead, behind, n_p, n_q)
    out = np.empty((n_p, n_q), dtype=np.result_type(ahead, behind))
    op(plus[:, half:n_q], minus[:, half:n_q], out=out[:, :half])
    op(plus[:, :half], minus[:, :half], out=out[:, half:])
    return out


def _mode_phase(energy_fn, t: float, psgrid: PhaseSpaceGrid) -> np.ndarray:
    """z = exp(-i E t / hbar) on the `_mode_lattice` nodes.

    A t that is not finite raises ValueError, and so does a phase
    argument -i E t / hbar that is not finite on every node (a non-finite
    E, or a finite one whose product with t overflows), without a
    warning first and before any FFT.
    """
    if not np.isfinite(t):
        raise ValueError(f"t must be finite, got {t}")
    with np.errstate(over="ignore", invalid="ignore"):
        arg = -1j * energy_fn(_mode_lattice(psgrid)) * t / psgrid.hbar
    if not np.isfinite(arg).all():
        raise ValueError(f"the mode phase is not finite: -i E t / hbar is non-finite on "
                         f"{np.count_nonzero(~np.isfinite(arg))} of {arg.size} lattice nodes")
    return np.exp(arg)


def _bracket_multiplier(energy_fn, psgrid: PhaseSpaceGrid, kind: str = "moyal") -> np.ndarray:
    """(n_p, n_q) mode multiplier of {E, W}: (E+ - E-) / (i hbar), or (E+ + E-) / 2 for kind="anti".

    E+- = E(p +- hbar kappa/2), read by `_mode_pairs` from one E on the
    `_mode_lattice` nodes; the real difference or sum is put in FFT order
    before the division by i hbar.  An E that is not finite on every node
    raises ValueError, and so does a finite E whose multiplier overflows,
    without a warning first.
    """
    if kind not in ("moyal", "anti"):
        raise ValueError(f"kind must be 'moyal' or 'anti', got {kind!r}")
    e = energy_fn(_mode_lattice(psgrid))
    if not np.isfinite(e).all():
        raise ValueError(f"the {{E, W}} mode multiplier is not finite: energy_fn gave "
                         f"{np.count_nonzero(~np.isfinite(e))} non-finite of {e.size} lattice values")
    with np.errstate(over="ignore", invalid="ignore"):
        mult = _mode_pairs(np.subtract if kind == "moyal" else np.add, e, e[::-1], psgrid)
        mult = mult / (1j * psgrid.hbar) if kind == "moyal" else 0.5 * mult
    if not np.isfinite(mult).all():
        raise ValueError(f"the {{E, W}} mode multiplier is not finite: it overflows on "
                         f"{np.count_nonzero(~np.isfinite(mult))} of {mult.size} modes")
    return mult


def _mode_multiply(w, mult: np.ndarray, psgrid: PhaseSpaceGrid) -> np.ndarray:
    """ifft(fft(w) * mult) along q: the complex field `w` with its position-axis modes scaled."""
    return np.fft.ifft(np.fft.fft(np.asarray(psgrid.require_field(w), dtype=complex), axis=1) * mult, axis=1)


def propagator_phases(energy_fn, t: float, psgrid: PhaseSpaceGrid, parity: str = "even") -> np.ndarray:
    """Per-(p, kappa) phase factors of the exact evolution.

    The propagator itself never sees which theory supplied the initial
    field; the difference between the full and the non-local theory
    lives entirely in the admissible initial data.  Both parities are
    products of the two `_mode_pairs` views of one vector
    exp(-i E t / hbar) on the half-step lattice, the second conjugated
    for the even parity.
    """
    if parity not in ("even", "odd"):
        raise ValueError(f"parity must be 'even' or 'odd', got {parity!r}")
    z = _mode_phase(energy_fn, t, psgrid)
    return _mode_pairs(np.multiply, z, np.conj(z[::-1]) if parity == "even" else z[::-1], psgrid)


def evolve_even(w: np.ndarray, energy_fn, t: float, psgrid: PhaseSpaceGrid) -> np.ndarray:
    """Evolve a real charge-diagonal (n_p, n_q) field by the exact mode phases.

    The field is real, so its position-axis spectrum is Hermitian and the
    even phase of mode -kappa is the conjugate of that of mode kappa: one
    real FFT along q, the phases on its n_q/2 + 1 columns, and the inverse
    real FFT give the field, one block of momentum rows at a time, the
    blocks cut and dealt to the CPUs of the process's affinity mask by
    the one rule of `grids._run_row_blocks`; each block writes only its
    own rows, so the field is bit-identical for any number of workers.
    Row k's phases z(2k + n_q/2 + m) conj(z(2k + n_q/2 - m)) are products
    of the two `grids._lattice_pairs` views that `propagator_phases`
    reads: modes m = 0 .. n_q/2 - 1 are their columns n_q/2 onwards, and
    the Nyquist mode m = -n_q/2 their column 0.  A block's phases are
    formed in its rows of the output, viewed as complex, which the
    inverse FFT then overwrites, so a float64 field's block allocates
    only its spectrum.  A complex field raises ValueError (a cross-branch
    field evolves with `evolve_odd`), and one whose shape is not the
    grid's GridError; so does a mode phase that is not finite
    (`_mode_phase`), before any FFT.

    Exact, unitary and additive in t for fields without weight in the
    unpaired Nyquist column (kappa = -pi/dq).  That column has no partner
    mode, so the real inverse keeps only the real part of its phase and
    scales it by cos(omega t), which neither preserves its norm nor
    composes.  A random real 64 x 64 field (p_max 8) evolved by 2 and
    then by 3 misses the field evolved by 5 by 0.42 at a maximum of 3.9,
    and by 1e-14 with its Nyquist column zeroed.  A packet on the window
    9 hbar/sigma + |p_bar| + 0.5 keeps ~1e-9 of its spectrum there and
    composes to ~4e-11 of its maximum; at 12 hbar/sigma the column is at
    roundoff.
    """
    w = psgrid.require_field(w)
    if np.iscomplexobj(w):
        raise ValueError("evolve_even takes a real charge-diagonal field; "
                         "evolve a complex (cross-branch) field with evolve_odd")
    z = _mode_phase(energy_fn, t, psgrid)
    n_p, half = psgrid.momentum.n_points, psgrid.n_q // 2
    plus, minus = _lattice_pairs(z, np.conj(z[::-1]), n_p, psgrid.n_q)
    out = np.empty(w.shape, dtype=np.result_type(w, 1.0))

    def evolve(rows):
        wk = np.fft.rfft(w[rows], axis=1)
        # the phases go in the block's output rows, which the inverse overwrites,
        # unless a field of another float type leaves them no room
        phases = out[rows].view(complex) if out.dtype == float else None
        wk[:, :half] *= np.multiply(plus[rows, half:-1], minus[rows, half:-1], out=phases)
        wk[:, half] *= plus[rows, 0] * minus[rows, 0]
        np.fft.irfft(wk, psgrid.n_q, axis=1, out=out[rows])

    _run_row_blocks(evolve, n_p, half + 1)
    return out


def evolve_odd(w: np.ndarray, energy_fn, t: float, psgrid: PhaseSpaceGrid) -> np.ndarray:
    """Evolve a cross-branch field; the mode phase carries the sum of energies."""
    return _mode_multiply(w, propagator_phases(energy_fn, t, psgrid, "odd"), psgrid)


def bracket_with_energy(energy_fn, w: np.ndarray, psgrid: PhaseSpaceGrid,
                        kind: str = "moyal") -> np.ndarray:
    """{E(p), W} under the Moyal (or anti-Moyal) bracket, exactly, via mode shifts.

    This is the instantaneous generator of `evolve_even` (kind="moyal"):
    the propagator's t-derivative at t=0 equals this bracket.  For
    kind="anti" the symmetrized product (E*W + W*E)/2 is returned.
    """
    return _mode_multiply(w, _bracket_multiplier(energy_fn, psgrid, kind), psgrid)


def evolve_timestep_reference(w: np.ndarray, energy_fn, t: float, steps: int,
                              psgrid: PhaseSpaceGrid) -> np.ndarray:
    """Second-order midpoint integrator of dW/dt = {E, W}_Moyal, in mode space.

    Independent cross-check of the exact spectral propagator; converges
    at O(dt^2).  The generator is diagonal in the position-axis modes, so
    one midpoint step scales mode kappa by the rule's stability function
    R(z) = 1 + z + z^2/2 at z = dt * {E, .} multiplier: the field goes
    through one FFT, the product of `steps` factors R(z) and one inverse
    FFT.  Stability requires the per-step phase
    y = dt * max|E(p + hbar kappa/2) - E(p - hbar kappa/2)| / hbar to stay
    below 1.  z is imaginary, so |R(z)|^2 = 1 + |z|^4 / 4 exactly and no
    mode grows by more than (1 + y^4/4)^(steps/2); both violations, y > 1
    and a growth bound above 10, raise StepSizeError before any FFT, as
    an E that is not finite on the half-step lattice raises ValueError.
    """
    if steps < 1:
        raise ValueError("steps must be >= 1")
    if not np.isfinite(t):
        raise ValueError(f"t must be finite, got {t}")
    # Python floats: a step hint past the float range reads inf, with no warning
    t = float(t)
    dt = t / steps
    mult = _bracket_multiplier(energy_fn, psgrid)
    max_omega = float(np.abs(mult).max())
    y = abs(dt) * max_omega
    if y > 1.0:
        raise StepSizeError(f"dt*max|Delta E|/hbar = {y:.3g} > 1; "
                            f"need at least {np.ceil(abs(t) * max_omega):.0f} steps")
    if steps * np.log1p(y**4 / 4) / 2 > np.log(10.0):
        raise StepSizeError("field grew by >10x; time step unstable")
    z = dt * mult
    step = 1.0 + z + 0.5 * z * z
    factor = step.copy()
    for _ in range(steps - 1):
        factor *= step
    field = _mode_multiply(w, factor, psgrid)
    return field.real if np.isrealobj(w) else field
