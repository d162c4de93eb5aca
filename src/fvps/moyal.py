"""Star products, Moyal/anti-Moyal brackets, and exact spectral propagators.

Two symbol representations coexist:

* `PolySymbol` holds polynomial coefficients in (q, p).  The two halves
  of the Moyal operator, <-d_q ->d_p and <-d_p ->d_q, commute, so the
  star exponential factorises into one exponential per half and the
  product of two polynomials is a finite double sum over the two
  derivative orders, each bounded by the operands' degrees.  It is
  evaluated exactly on coefficient arrays, each pointwise product being
  one 1-D convolution, so canonical identities like q*p = qp + i hbar/2
  hold to roundoff.
* Sampled fields of shape (n_p, n_q), or (m, m, n_p, n_q) for matrix
  symbols of any size m, use the Fourier-kernel form: plane-wave modes
  multiply as W_v * W_w = exp(-(i hbar/2) omega(v, w)) W_{v+w} with
  omega(v, w) = kappa_v lambda_w - lambda_v kappa_w the symplectic
  pairing of the mode frequencies.  The sum over all mode pairs is a
  twisted convolution (`_twisted_convolution`) taken over A's q-modes v
  one block at a time: each q-mode v of the block is shifted along p by
  hbar kappa_u / 2 for every output q-mode u in one batched FFT,
  multiplied by B's q-mode u - v and transformed along p, and the
  remaining phase is applied and summed over the block's v into one
  accumulator.  Matrix entries contract as A_ik B_kl in the same pass
  and a scalar field is a 1x1 symbol, so both take one code path.  Cost:
  O(m^2 n_p n_q^2 (m + log n_p)) time; the work buffers are reused from
  block to block and hold at most `_MODE_BLOCK_BYTES` each (three for a
  matrix symbol, one for a scalar), so the memory is O(m^2 n_p n_q)
  beyond them.  The product's hbar is its own parameter, not the
  grid's, and the grid need be neither conjugate nor square.  This is
  exact for band-limited periodic fields; products of modes beyond the
  grid band alias (the phase is taken at the wrapped output mode), so
  keep inputs band-limited to half the grid band.

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
from math import factorial

import numpy as np
from numpy.lib.stride_tricks import sliding_window_view
from numpy.polynomial.polynomial import polyder, polyval2d

from .errors import GridError, StepSizeError
from .grids import PhaseSpaceGrid, half_step_lattice, row_blocks

# ---------------------------------------------------------------------------
# Polynomial symbols: exact finite star-product algebra
# ---------------------------------------------------------------------------


@dataclass(frozen=True)
class PolySymbol:
    """Polynomial in (q, p): coeffs[i, j] multiplies q^i p^j."""

    coeffs: np.ndarray

    def __post_init__(self):
        object.__setattr__(self, "coeffs", np.atleast_2d(np.asarray(self.coeffs, dtype=complex)))

    @classmethod
    def q(cls) -> "PolySymbol":
        return cls(np.array([[0.0], [1.0]]))

    @classmethod
    def p(cls) -> "PolySymbol":
        return cls(np.array([[0.0, 1.0]]))

    @classmethod
    def constant(cls, value) -> "PolySymbol":
        return cls(np.array([[value]]))

    def __mul__(self, other):
        if not isinstance(other, PolySymbol):
            return PolySymbol(self.coeffs * other)
        # with both padded to the product's width W, a[i, j] b[k, l] lands
        # at flat index (i + k) W + (j + l), and j + l < W never carries
        # into the next row: one 1-D convolution is the 2-D product
        a, b = self.coeffs, other.coeffs
        rows, width = a.shape[0] + b.shape[0] - 1, a.shape[1] + b.shape[1] - 1
        flat = np.convolve(*(np.pad(c, ((0, 0), (0, width - c.shape[1]))).ravel() for c in (a, b)))
        return PolySymbol(flat[: rows * width].reshape(rows, width))

    __rmul__ = __mul__

    def __add__(self, other):
        if not isinstance(other, PolySymbol):
            other = PolySymbol.constant(other)
        a, b = self.coeffs, other.coeffs
        ni = max(a.shape[0], b.shape[0])
        nj = max(a.shape[1], b.shape[1])
        out = np.zeros((ni, nj), dtype=complex)
        out[: a.shape[0], : a.shape[1]] += a
        out[: b.shape[0], : b.shape[1]] += b
        return PolySymbol(out)

    def __sub__(self, other):
        return self + (-1.0) * other

    def evaluate(self, p, q):
        """Evaluate on broadcastable arrays of momenta and positions."""
        return polyval2d(*np.broadcast_arrays(q, p), self.coeffs)

    def sample(self, psgrid: PhaseSpaceGrid):
        return self.evaluate(psgrid.p_nodes[:, None], psgrid.q_nodes[None, :])


def _poly_star(a: PolySymbol, b: PolySymbol, hbar: float) -> PolySymbol:
    """Factorised Moyal series; finite for polynomials.

    The two halves of the bidifferential operator commute, so the star
    exponential splits into exp(i hbar/2 <-d_q ->d_p) exp(-i hbar/2 <-d_p ->d_q):
    the sum over r, s of (i hbar/2)^(r+s) (-1)^s / (r! s!) times
    (d_q^r d_p^s a)(d_q^s d_p^r b).  So r runs up to the smaller of a's q
    degree and b's p degree, s up to the smaller of a's p degree and b's
    q degree; every other term is zero.  coeffs axis 0 is the q power,
    axis 1 the p power.
    """
    a, b = a.coeffs, b.coeffs
    terms = (
        ((0.5j * hbar) ** (r + s) * (-1) ** s / (factorial(r) * factorial(s)))
        * PolySymbol(polyder(polyder(a, r, axis=0), s, axis=1))
        * PolySymbol(polyder(polyder(b, s, axis=0), r, axis=1))
        for r in range(min(a.shape[0], b.shape[1]))
        for s in range(min(a.shape[1], b.shape[0]))
    )
    return sum(terms, PolySymbol.constant(0.0))


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
    if isinstance(a, PolySymbol) or isinstance(b, PolySymbol):
        raise GridError("polynomial symbols multiply with polynomial symbols")
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


# Bytes of one work buffer of the sampled star product, which takes A's
# q-modes a block at a time and reuses its (m, m, block, n_q, n_p) complex
# buffers.  768 KiB is 12 modes of a scalar 64 x 64 field or of a 2 x 2
# symbol on 32 x 32.  On a 2-core Xeon (numpy 2.4.6, one BLAS thread) 6 to
# 24 modes per block time the same, 5.6-7.1 and 3.5-5.0 ms a product, 2
# modes 5-20 % slower; the whole-array contraction took 17.8-19.9 and
# 5.9-7.2 ms.  Not a power of two, so power-of-two grids can end on a
# ragged block.
_MODE_BLOCK_BYTES = 768 * 1024


def _q_mode_blocks(m: int, n_p: int, n_q: int) -> list[slice]:
    """Consecutive slices of the n_q q-modes of an (m, m, n_p, n_q) symbol, sized to `_MODE_BLOCK_BYTES`."""
    size = max(1, _MODE_BLOCK_BYTES // (16 * m * m * n_q * n_p))
    return [slice(start, min(start + size, n_q)) for start in range(0, n_q, size)]


def _twisted_convolution(a: np.ndarray, b: np.ndarray, psgrid: PhaseSpaceGrid, hbar: float) -> np.ndarray:
    """sum_k A_ik * B_kl for (m, m, n_p, n_q) stacks, one block of A's q-modes at a time.

    In mode space (A * B)_u = sum_v a_v b_{u-v} exp(-(i hbar/2) omega(v, u)),
    using omega(v, u - v) = omega(v, u), with omega taken at the output
    mode u after the cyclic wrap.  The lambda_v kappa_u half of the phase
    shifts a's q-mode v along p; the sum over p-modes is then a product
    in p, and the kappa_v lambda_u half is applied after the p-transform.
    Each block of modes v (`_q_mode_blocks`) goes through these steps in
    reused buffers and adds its sum over v to one (m, m, n_q, n_p)
    accumulator, whose 2-D inverse transform is the product.
    """
    m, _, n_p, n_q = a.shape
    lam, kap = _mode_frequencies(psgrid)
    twist = np.exp(0.5j * hbar * np.multiply.outer(kap, lam))
    untwist = twist.conj()
    # axes (i, k, v, p): a's q-mode v as a function of p
    ca = (np.fft.fft2(a) / n_q).swapaxes(-1, -2)
    # axes (k, l, v, u, p): b's q-mode (u - v) mod n_q, a strided view into
    # its q-modes written twice over, in which row v starts at mode n_q - v
    cb = np.fft.fft(b, axis=-1).swapaxes(-1, -2)
    columns = sliding_window_view(np.concatenate([cb, cb], axis=2), n_q, axis=2)[:, :, n_q:0:-1].swapaxes(-1, -2)
    blocks = _q_mode_blocks(m, n_p, n_q)
    shifted = np.empty((m, m, blocks[0].stop, n_q, n_p), dtype=complex)
    # a scalar field multiplies in place; a matrix symbol sums its k terms into `conv`
    conv, term = (shifted, None) if m == 1 else (np.empty_like(shifted), np.empty_like(shifted))
    out = np.zeros((m, m, n_q, n_p), dtype=complex)
    for vb in blocks:
        n = vb.stop - vb.start
        sh, cv = shifted[:, :, :n], conv[:, :, :n]
        # axes (i, k, v, u, p): a's q-mode v shifted by hbar kappa_u / 2
        np.multiply(ca[:, :, vb, None, :], twist, out=sh)
        np.fft.ifft(sh, axis=-1, out=sh)
        if m == 1:  # sh itself: numpy copies an input that is the output through another view
            np.multiply(sh, columns[:, :, vb], out=sh)
        else:
            np.multiply(sh[:, 0, None], columns[None, 0, :, vb], out=cv)
            for k in range(1, m):
                np.multiply(sh[:, k, None], columns[None, k, :, vb], out=term[:, :, :n])
                cv += term[:, :, :n]
        np.fft.fft(cv, axis=-1, out=cv)
        cv *= untwist[vb, None, :]
        out += cv.sum(axis=2)
    return np.fft.ifft2(out.swapaxes(-1, -2))


def star_product(a, b, psgrid: PhaseSpaceGrid | None = None, hbar: float = 1.0):
    """Noncommutative symbol product replacing the pointwise one.

    Polynomial symbols multiply exactly; sampled fields (scalar
    (n_p, n_q) or matrix (m, m, n_p, n_q)) use the spectral kernel form
    and require the grid.  In the hbar -> 0 limit the result tends to
    the pointwise (matrix) product, which hbar = 0 gives; a non-finite
    hbar raises ValueError.
    """
    if not np.isfinite(hbar):
        raise ValueError(f"hbar must be finite, got {hbar}")
    if isinstance(a, PolySymbol) and isinstance(b, PolySymbol):
        return _poly_star(a, b, hbar)
    if psgrid is None:
        raise GridError("sampled-field star product needs the phase-space grid")
    a, b, scalar = _symbol_stacks(a, b, psgrid)
    out = _twisted_convolution(a, b, psgrid, hbar)
    return out[0, 0] if scalar else out


def moyal_bracket(a, b, psgrid: PhaseSpaceGrid | None = None, hbar: float = 1.0):
    """(A*B - B*A) / (i hbar); tends to the Poisson bracket for scalars.

    hbar must be finite and nonzero (ValueError otherwise).
    """
    if not np.isfinite(hbar) or hbar == 0:
        raise ValueError(f"hbar must be finite and nonzero, got {hbar}")
    ab = star_product(a, b, psgrid, hbar)
    ba = star_product(b, a, psgrid, hbar)
    return (1.0 / (1j * hbar)) * (ab - ba)


def anti_moyal_bracket(a, b, psgrid: PhaseSpaceGrid | None = None, hbar: float = 1.0):
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

    @property
    def classical_limit_attained(self) -> bool:
        return self.exponent is not None and self.exponent > 0


def classical_limit_gap(a, b, psgrid: PhaseSpaceGrid, hbars) -> ClassicalLimitReport:
    """Fit || {A,B}_Moyal - {A,B}_Poisson || ~ hbar^exponent for matrix symbols.

    Pointwise-commuting matrix symbols close onto the Poisson bracket at
    rate hbar^2; non-commuting ones diverge as 1/hbar because the matrix
    commutator term survives division by hbar -- the classical limit
    simply does not exist for them.  The scan needs at least two
    distinct, finite, positive hbar values (ValueError otherwise).
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
    if max(gaps) < 1e-14:
        return ClassicalLimitReport(hbars, gaps, None)
    slope = np.polyfit(np.log(np.asarray(hbars, dtype=float)), np.log(np.asarray(gaps)), 1)[0]
    return ClassicalLimitReport(hbars, gaps, float(slope))


# ---------------------------------------------------------------------------
# Exact spectral propagators for momentum-diagonal Hamiltonians
# ---------------------------------------------------------------------------


def _mode_lattice(psgrid: PhaseSpaceGrid, n_modes: int | None = None):
    """(nodes, centre, m): p_k +- hbar kappa_m / 2 is nodes[centre[k] +- m].

    On a conjugate grid hbar kappa_m / 2 = m dp / 2 for the FFT mode index
    m, so p_k +- hbar kappa_m / 2 = p_0 + (2k +- m) dp / 2: every shifted
    momentum is a node of `half_step_lattice` padded by n_q / 2 half steps
    at either end, and E is evaluated once per node instead of on
    2 n_p n_q pairs.  centre is an (n_p, 1) column and m holds the first
    n_modes FFT-ordered mode indices (all n_q by default).
    """
    psgrid.require_conjugate()
    n_p, n_q = psgrid.momentum.n_points, psgrid.n_q
    m = np.fft.ifftshift(np.arange(-(n_q // 2), n_q // 2))[:n_modes]  # fftfreq order
    return half_step_lattice(psgrid.momentum, n_q // 2), 2 * np.arange(n_p)[:, None] + n_q // 2, m


def _mode_phase(energy_fn, t: float, psgrid: PhaseSpaceGrid, n_modes: int | None = None):
    """(z, centre, m): z = exp(-i E t / hbar) on the `_mode_lattice` nodes, gathered as z[centre +- m]."""
    if not np.isfinite(t):
        raise ValueError(f"t must be finite, got {t}")
    nodes, centre, m = _mode_lattice(psgrid, n_modes)
    return np.exp(-1j * energy_fn(nodes) * t / psgrid.hbar), centre, m


def _bracket_multiplier(energy_fn, psgrid: PhaseSpaceGrid, kind: str = "moyal") -> np.ndarray:
    """(n_p, n_q) mode multiplier of {E, W}: (E+ - E-) / (i hbar), or (E+ + E-) / 2 for kind="anti".

    E+- = E(p +- hbar kappa/2), gathered from one E on the `_mode_lattice` nodes.
    """
    nodes, centre, m = _mode_lattice(psgrid)
    e = energy_fn(nodes)
    if kind == "moyal":
        return (e[centre + m] - e[centre - m]) / (1j * psgrid.hbar)
    if kind == "anti":
        return 0.5 * (e[centre + m] + e[centre - m])
    raise ValueError(f"kind must be 'moyal' or 'anti', got {kind!r}")


def _mode_multiply(w, mult: np.ndarray, psgrid: PhaseSpaceGrid) -> np.ndarray:
    """ifft(fft(w) * mult) along q: the complex field `w` with its position-axis modes scaled."""
    return np.fft.ifft(np.fft.fft(np.asarray(psgrid.require_field(w), dtype=complex), axis=1) * mult, axis=1)


def propagator_phases(energy_fn, t: float, psgrid: PhaseSpaceGrid, parity: str = "even") -> np.ndarray:
    """Per-(p, kappa) phase factors of the exact evolution.

    The propagator itself never sees which theory supplied the initial
    field; the difference between the full and the non-local theory
    lives entirely in the admissible initial data.  Both parities are
    products of two gathers from one vector exp(-i E t / hbar) on the
    half-step lattice.
    """
    z, centre, m = _mode_phase(energy_fn, t, psgrid)
    if parity == "even":
        return z[centre + m] * np.conj(z[centre - m])
    if parity == "odd":
        return z[centre + m] * z[centre - m]
    raise ValueError(f"parity must be 'even' or 'odd', got {parity!r}")


def evolve_even(w: np.ndarray, energy_fn, t: float, psgrid: PhaseSpaceGrid) -> np.ndarray:
    """Evolve a real charge-diagonal (n_p, n_q) field by the exact mode phases.

    The field is real, so its position-axis spectrum is Hermitian and the
    even phase of mode -kappa is the conjugate of that of mode kappa: one
    real FFT along q, the phases on its n_q/2 + 1 columns, and the inverse
    real FFT give the field, one block of momentum rows at a time.  A
    complex field raises ValueError (a cross-branch field evolves with
    `evolve_odd`), and one whose shape is not the grid's GridError.

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
    z, centre, m = _mode_phase(energy_fn, t, psgrid, psgrid.n_q // 2 + 1)
    out = np.empty(w.shape, dtype=np.result_type(w, 1.0))
    for rows in row_blocks(len(centre)):
        wk = np.fft.rfft(w[rows], axis=1)
        wk *= z[centre[rows] + m] * np.conj(z[centre[rows] - m])
        np.fft.irfft(wk, psgrid.n_q, axis=1, out=out[rows])
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
    and a growth bound above 10, raise StepSizeError before any FFT.
    """
    if steps < 1:
        raise ValueError("steps must be >= 1")
    if not np.isfinite(t):
        raise ValueError(f"t must be finite, got {t}")
    dt = t / steps
    mult = _bracket_multiplier(energy_fn, psgrid)
    max_omega = float(np.abs(mult).max())
    y = abs(dt) * max_omega
    if y > 1.0:
        raise StepSizeError(f"dt*max|Delta E|/hbar = {y:.3g} > 1; "
                            f"need at least {int(np.ceil(abs(t) * max_omega))} steps")
    if steps * np.log1p(y**4 / 4) / 2 > np.log(10.0):
        raise StepSizeError("field grew by >10x; time step unstable")
    z = dt * mult
    step = 1.0 + z + 0.5 * z * z
    factor = step.copy()
    for _ in range(steps - 1):
        factor *= step
    field = _mode_multiply(w, factor, psgrid)
    return field.real if np.isrealobj(w) else field
