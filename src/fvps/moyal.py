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
  pairing of the mode frequencies.  The sum over all mode pairs is one
  batched contraction (`_twisted_convolution`): each q-mode of A is
  shifted along p by hbar kappa_u / 2 for every output q-mode u in one
  batched FFT, multiplied by B's q-mode u - v and transformed along p,
  and the remaining phase is summed over v in one einsum.  Matrix
  entries contract as A_ik B_kl in the same pass and a scalar field is a
  1x1 symbol, so both take one code path.  Cost: O(m^2 n_p n_q^2
  (m + log n_p)) time and O(m^2 n_p n_q^2) memory.  The product's hbar
  is its own parameter, not the grid's, and the grid need be neither
  conjugate nor square.  This is exact for band-limited periodic fields;
  products of modes beyond the grid band alias (the phase is taken at
  the wrapped output mode), so keep inputs band-limited to half the grid
  band.

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
from numpy.polynomial.polynomial import polyder, polyval2d

from .errors import GridError, StepSizeError
from .grids import PhaseSpaceGrid

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


def _twisted_convolution(a: np.ndarray, b: np.ndarray, psgrid: PhaseSpaceGrid, hbar: float) -> np.ndarray:
    """sum_k A_ik * B_kl for (m, m, n_p, n_q) stacks, over all mode pairs at once.

    In mode space (A * B)_u = sum_v a_v b_{u-v} exp(-(i hbar/2) omega(v, u)),
    using omega(v, u - v) = omega(v, u), with omega taken at the output
    mode u after the cyclic wrap.  The lambda_v kappa_u half of the phase
    shifts a's q-mode v along p; the sum over p-modes is then a product
    in p, and the kappa_v lambda_u half is applied after the p-transform.
    """
    n_q = a.shape[-1]
    lam, kap = _mode_frequencies(psgrid)
    twist = np.exp(0.5j * hbar * np.multiply.outer(kap, lam))
    # axes (i, k, v, u, p): a's q-mode v shifted by hbar kappa_u / 2, as a function of p
    ca = (np.fft.fft2(a) / n_q).swapaxes(-1, -2)[..., :, None, :]
    shifted = np.fft.ifft(ca * twist, axis=-1)
    v = np.arange(n_q)
    columns = np.fft.fft(b, axis=-1).swapaxes(-1, -2)[..., (v[None, :] - v[:, None]) % n_q, :]
    conv = np.fft.fft(np.einsum("ikvup,klvup->ilvup", shifted, columns), axis=-1)
    return np.fft.ifft2(np.einsum("ilvup,vp->ilpu", conv, twist.conj()))


def star_product(a, b, psgrid: PhaseSpaceGrid | None = None, hbar: float = 1.0):
    """Noncommutative symbol product replacing the pointwise one.

    Polynomial symbols multiply exactly; sampled fields (scalar
    (n_p, n_q) or matrix (m, m, n_p, n_q)) use the spectral kernel form
    and require the grid.  In the hbar -> 0 limit the result tends to
    the pointwise (matrix) product.
    """
    if isinstance(a, PolySymbol) and isinstance(b, PolySymbol):
        return _poly_star(a, b, hbar)
    if psgrid is None:
        raise GridError("sampled-field star product needs the phase-space grid")
    a, b, scalar = _symbol_stacks(a, b, psgrid)
    out = _twisted_convolution(a, b, psgrid, hbar)
    return out[0, 0] if scalar else out


def moyal_bracket(a, b, psgrid: PhaseSpaceGrid | None = None, hbar: float = 1.0):
    """(A*B - B*A) / (i hbar); tends to the Poisson bracket for scalars."""
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
    simply does not exist for them.
    """
    pb = poisson_bracket(a, b, psgrid)
    gaps = []
    for hb in hbars:
        mb = moyal_bracket(a, b, psgrid, hbar=hb)
        gaps.append(float(np.abs(mb - pb).max()))
    gaps = tuple(gaps)
    if max(gaps) < 1e-14:
        return ClassicalLimitReport(tuple(hbars), gaps, None)
    slope = np.polyfit(np.log(np.asarray(hbars, dtype=float)), np.log(np.asarray(gaps)), 1)[0]
    return ClassicalLimitReport(tuple(hbars), gaps, float(slope))


# ---------------------------------------------------------------------------
# Exact spectral propagators for momentum-diagonal Hamiltonians
# ---------------------------------------------------------------------------


def _shifted_energies(energy_fn, psgrid: PhaseSpaceGrid, n_modes: int | None = None):
    """E on the half-step lattice, and where p +- hbar kappa/2 sit in it.

    On a conjugate grid hbar kappa_m / 2 = m dp / 2 for the FFT mode index
    m, so p_k +- hbar kappa_m / 2 = p_0 + (2k +- m) dp / 2: every shifted
    momentum is a lattice node, and E is evaluated once per node instead
    of on 2 n_p n_q pairs.  Returns (e, plus, minus) with
    e[plus] = E(p + hbar kappa/2) and e[minus] = E(p - hbar kappa/2) as
    (n_p, n_modes) arrays over the first n_modes FFT-ordered modes (all
    n_q by default).
    """
    psgrid.require_conjugate()
    n_p, n_q = psgrid.momentum.n_points, psgrid.n_q
    m = np.fft.ifftshift(np.arange(-(n_q // 2), n_q // 2))[:n_modes]  # fftfreq order
    centre = 2 * np.arange(n_p)[:, None] + n_q // 2
    lattice = psgrid.p_nodes[0] + 0.5 * psgrid.dp * (np.arange(2 * n_p + n_q) - n_q // 2)
    return energy_fn(lattice), centre + m, centre - m


def propagator_phases(energy_fn, t: float, psgrid: PhaseSpaceGrid, parity: str = "even") -> np.ndarray:
    """Per-(p, kappa) phase factors of the exact evolution.

    The propagator itself never sees which theory supplied the initial
    field; the difference between the full and the non-local theory
    lives entirely in the admissible initial data.  Both parities are
    products of two gathers from one vector exp(-i E t / hbar) on the
    half-step lattice.
    """
    e, plus, minus = _shifted_energies(energy_fn, psgrid)
    z = np.exp(-1j * e * t / psgrid.hbar)
    if parity == "even":
        return z[plus] * np.conj(z[minus])
    if parity == "odd":
        return z[plus] * z[minus]
    raise ValueError(f"parity must be 'even' or 'odd', got {parity!r}")


def evolve_even(w: np.ndarray, energy_fn, t: float, psgrid: PhaseSpaceGrid) -> np.ndarray:
    """Evolve a real charge-diagonal (n_p, n_q) field by the exact mode phases.

    The field is real, so its position-axis spectrum is Hermitian and the
    even phase of mode -kappa is the conjugate of that of mode kappa: one
    real FFT along q, the phases on its n_q/2 + 1 columns, and the inverse
    real FFT give the field.  A complex field raises ValueError (a
    cross-branch field evolves with `evolve_odd`).

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
    w = np.asarray(w)
    if np.iscomplexobj(w):
        raise ValueError("evolve_even takes a real charge-diagonal field; "
                         "evolve a complex (cross-branch) field with evolve_odd")
    e, plus, minus = _shifted_energies(energy_fn, psgrid, psgrid.n_q // 2 + 1)
    z = np.exp(-1j * e * t / psgrid.hbar)
    wk = np.fft.rfft(w, axis=1)
    wk *= z[plus] * np.conj(z[minus])
    return np.fft.irfft(wk, psgrid.n_q, axis=1)


def evolve_odd(w: np.ndarray, energy_fn, t: float, psgrid: PhaseSpaceGrid) -> np.ndarray:
    """Evolve a cross-branch field; the mode phase carries the sum of energies."""
    psgrid.require_conjugate()
    wk = np.fft.fft(np.asarray(w, dtype=complex), axis=1)
    wk *= propagator_phases(energy_fn, t, psgrid, "odd")
    return np.fft.ifft(wk, axis=1)


def bracket_with_energy(energy_fn, w: np.ndarray, psgrid: PhaseSpaceGrid,
                        kind: str = "moyal") -> np.ndarray:
    """{E(p), W} under the Moyal (or anti-Moyal) bracket, exactly, via mode shifts.

    This is the instantaneous generator of `evolve_even` (kind="moyal"):
    the propagator's t-derivative at t=0 equals this bracket.  For
    kind="anti" the symmetrized product (E*W + W*E)/2 is returned.
    """
    e, plus, minus = _shifted_energies(energy_fn, psgrid)
    wk = np.fft.fft(np.asarray(w, dtype=complex), axis=1)
    if kind == "moyal":
        mult = (e[plus] - e[minus]) / (1j * psgrid.hbar)
    elif kind == "anti":
        mult = 0.5 * (e[plus] + e[minus])
    else:
        raise ValueError(f"kind must be 'moyal' or 'anti', got {kind!r}")
    out = np.fft.ifft(wk * mult, axis=1)
    return out


def evolve_timestep_reference(w: np.ndarray, energy_fn, t: float, steps: int,
                              psgrid: PhaseSpaceGrid) -> np.ndarray:
    """Second-order midpoint integrator of dW/dt = {E, W}_Moyal.

    Independent cross-check of the exact spectral propagator; converges
    at O(dt^2).  Stability requires the per-step phase
    dt * max|E(p + hbar kappa/2) - E(p - hbar kappa/2)| / hbar to stay
    below 1; violations raise StepSizeError up front, and runaway field
    growth aborts the run.
    """
    if steps < 1:
        raise ValueError("steps must be >= 1")
    dt = t / steps
    e, plus, minus = _shifted_energies(energy_fn, psgrid)
    max_omega = float(np.abs(e[plus] - e[minus]).max()) / psgrid.hbar
    if abs(dt) * max_omega > 1.0:
        raise StepSizeError(
            f"dt*max|Delta E|/hbar = {abs(dt) * max_omega:.3g} > 1; "
            f"need at least {int(np.ceil(abs(t) * max_omega))} steps"
        )
    field = np.asarray(w, dtype=complex)
    bound = 10.0 * max(float(np.abs(field).max()), 1e-300)
    for _ in range(steps):
        k1 = bracket_with_energy(energy_fn, field, psgrid)
        k2 = bracket_with_energy(energy_fn, field + 0.5 * dt * k1, psgrid)
        field = field + dt * k2
        if np.abs(field).max() > bound:
            raise StepSizeError("field grew by >10x; time step unstable")
    return field.real if np.isrealobj(w) else field
