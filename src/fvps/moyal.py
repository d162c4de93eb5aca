"""Star products, Moyal/anti-Moyal brackets, and exact spectral propagators.

Two symbol representations coexist:

* `PolySymbol` holds polynomial coefficients in (q, p).  Its star product
  is the finite bidifferential series, evaluated exactly on coefficient
  arrays, so canonical identities like q*p = qp + i hbar/2 hold to
  roundoff.
* Sampled fields of shape (n_p, n_q) (or (2, 2, n_p, n_q) for
  matrix-valued symbols) use the Fourier-kernel form: plane-wave modes
  multiply as W_v * W_w = exp((i hbar/2) omega(v, w)) W_{v+w} with
  omega the symplectic pairing of the mode frequencies.  This is exact
  for band-limited periodic fields; products of modes beyond the grid
  band alias, so keep inputs band-limited to half the grid band.

Evolution under a momentum-only Hamiltonian symbol never needs the
general product: in the position-axis Fourier representation each mode
kappa evolves by a pure phase,

    even fields:  exp(-(i/hbar) [E(p + hbar kappa/2) - E(p - hbar kappa/2)] t)
    odd fields:   exp(-(i/hbar) [E(p + hbar kappa/2) + E(p - hbar kappa/2)] t)

which is exact for arbitrary dispersion E(p) -- the relativistic square
root with its unbounded derivative order included.  The anti-Moyal
bracket is normalized as the plain symmetrized product
[A, B] = (A*B + B*A)/2; with that convention the odd-field equation of
motion reads dW/dt = -(2i/hbar) [E, W].
"""

from dataclasses import dataclass

import numpy as np

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

    def diff_q(self) -> "PolySymbol":
        c = self.coeffs
        if c.shape[0] == 1:
            return PolySymbol(np.zeros((1, 1)))
        i = np.arange(1, c.shape[0])
        return PolySymbol(c[1:, :] * i[:, None])

    def diff_p(self) -> "PolySymbol":
        c = self.coeffs
        if c.shape[1] == 1:
            return PolySymbol(np.zeros((1, 1)))
        j = np.arange(1, c.shape[1])
        return PolySymbol(c[:, 1:] * j[None, :])

    def __mul__(self, other):
        if isinstance(other, PolySymbol):
            a, b = self.coeffs, other.coeffs
            out = np.zeros((a.shape[0] + b.shape[0] - 1, a.shape[1] + b.shape[1] - 1), dtype=complex)
            for i in range(a.shape[0]):
                for j in range(a.shape[1]):
                    if a[i, j] != 0:
                        out[i : i + b.shape[0], j : j + b.shape[1]] += a[i, j] * b
            return PolySymbol(out)
        return PolySymbol(self.coeffs * other)

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

    @property
    def is_zero(self) -> bool:
        return not np.any(self.coeffs)

    def evaluate(self, p, q):
        """Evaluate on broadcastable arrays of momenta and positions."""
        acc = 0.0
        for i in range(self.coeffs.shape[0]):
            for j in range(self.coeffs.shape[1]):
                c = self.coeffs[i, j]
                if c != 0:
                    acc = acc + c * np.asarray(q) ** i * np.asarray(p) ** j
        return acc

    def sample(self, psgrid: PhaseSpaceGrid):
        return self.evaluate(psgrid.p_nodes[:, None], psgrid.q_nodes[None, :])


def _poly_star(a: PolySymbol, b: PolySymbol, hbar: float) -> PolySymbol:
    """Finite bidifferential series; terminates for polynomials."""
    from math import comb, factorial

    result = a * b
    n = 1
    while True:
        term = PolySymbol(np.zeros((1, 1)))
        alive = False
        for k in range(n + 1):
            da = a
            for _ in range(n - k):
                da = da.diff_q()
            for _ in range(k):
                da = da.diff_p()
            if da.is_zero:
                continue
            db = b
            for _ in range(n - k):
                db = db.diff_p()
            for _ in range(k):
                db = db.diff_q()
            if db.is_zero:
                continue
            alive = True
            term = term + ((-1) ** k * comb(n, k)) * (da * db)
        if not alive:
            return result
        result = result + ((1j * hbar / 2) ** n / factorial(n)) * term
        n += 1


# ---------------------------------------------------------------------------
# Sampled fields: Fourier-kernel star product
# ---------------------------------------------------------------------------


def _mode_frequencies(psgrid: PhaseSpaceGrid):
    lam = 2.0 * np.pi * np.fft.fftfreq(psgrid.momentum.n_points, psgrid.dp)
    kap = 2.0 * np.pi * np.fft.fftfreq(psgrid.n_q, psgrid.dq)
    return lam, kap


def _field_star(a: np.ndarray, b: np.ndarray, psgrid: PhaseSpaceGrid, hbar: float,
                mode_tol: float = 1e-14) -> np.ndarray:
    """Twisted convolution of the mode coefficients of two scalar fields."""
    n_p, n_q = psgrid.momentum.n_points, psgrid.n_q
    if a.shape != (n_p, n_q) or b.shape != (n_p, n_q):
        raise GridError(f"field shapes {a.shape}, {b.shape} do not match grid ({n_p}, {n_q})")
    lam, kap = _mode_frequencies(psgrid)
    ca = np.fft.fft2(a) / (n_p * n_q)
    cb = np.fft.fft2(b)  # leave the 1/N in ca only
    out = np.zeros_like(cb)
    peak = np.abs(ca).max()
    active = np.argwhere(np.abs(ca) > mode_tol * peak)
    half = 0.5 * hbar
    for av, bv in active:
        # W_v * W_w = exp(-(i hbar/2) omega(v, w)) W_{v+w} with
        # omega(v, w) = kappa_v lambda_w - lambda_v kappa_w, and
        # omega(v, u - v) = omega(v, u) by antisymmetry
        phase = np.exp(-1j * half * (kap[bv] * lam[:, None] - lam[av] * kap[None, :]))
        out += ca[av, bv] * phase * np.roll(cb, (av, bv), axis=(0, 1))
    return np.fft.ifft2(out)


def _is_matrix_field(x) -> bool:
    return isinstance(x, np.ndarray) and x.ndim == 4


def star_product(a, b, psgrid: PhaseSpaceGrid | None = None, hbar: float = 1.0):
    """Noncommutative symbol product replacing the pointwise one.

    Polynomial symbols multiply exactly; sampled fields (scalar
    (n_p, n_q) or matrix (2, 2, n_p, n_q)) use the spectral kernel form
    and require the grid.  In the hbar -> 0 limit the result tends to
    the pointwise (matrix) product.
    """
    if isinstance(a, PolySymbol) and isinstance(b, PolySymbol):
        return _poly_star(a, b, hbar)
    a = np.asarray(a, dtype=complex)
    b = np.asarray(b, dtype=complex)
    if psgrid is None:
        raise GridError("sampled-field star product needs the phase-space grid")
    if _is_matrix_field(a) or _is_matrix_field(b):
        if not (_is_matrix_field(a) and _is_matrix_field(b)):
            raise GridError("matrix symbols multiply with matrix symbols")
        out = np.zeros_like(a)
        for i in range(2):
            for l in range(2):
                for k in range(2):
                    out[i, l] += _field_star(a[i, k], b[k, l], psgrid, hbar)
        return out
    return _field_star(a, b, psgrid, hbar)


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
    lam, kap = _mode_frequencies(psgrid)
    freq = lam if axis == 0 else kap
    shape = [1, 1]
    shape[axis] = -1
    fr = freq.reshape(shape)
    return np.fft.ifft(1j * fr * np.fft.fft(field, axis=axis), axis=axis)


def poisson_bracket(a, b, psgrid: PhaseSpaceGrid):
    """dA/dq dB/dp - dA/dp dB/dq with matrix ordering preserved."""
    a = np.asarray(a, dtype=complex)
    b = np.asarray(b, dtype=complex)
    if _is_matrix_field(a):
        out = np.zeros_like(a)
        for i in range(2):
            for l in range(2):
                for k in range(2):
                    out[i, l] += _spectral_derivative(a[i, k], psgrid, 1) * _spectral_derivative(b[k, l], psgrid, 0)
                    out[i, l] -= _spectral_derivative(a[i, k], psgrid, 0) * _spectral_derivative(b[k, l], psgrid, 1)
        return out
    da_q = _spectral_derivative(a, psgrid, 1)
    da_p = _spectral_derivative(a, psgrid, 0)
    db_q = _spectral_derivative(b, psgrid, 1)
    db_p = _spectral_derivative(b, psgrid, 0)
    return da_q * db_p - da_p * db_q


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


def _shifted_energies(energy_fn, psgrid: PhaseSpaceGrid):
    """E on the half-step lattice, and where p +- hbar kappa/2 sit in it.

    On a conjugate grid hbar kappa_m / 2 = m dp / 2 for the FFT mode index
    m, so p_k +- hbar kappa_m / 2 = p_0 + (2k +- m) dp / 2: every shifted
    momentum is a lattice node, and E is evaluated once per node instead
    of on 2 n_p n_q pairs.  Returns (e, plus, minus) with
    e[plus] = E(p + hbar kappa/2) and e[minus] = E(p - hbar kappa/2) as
    (n_p, n_q) arrays.
    """
    psgrid.require_conjugate()
    n_p, n_q = psgrid.momentum.n_points, psgrid.n_q
    m = np.fft.ifftshift(np.arange(-(n_q // 2), n_q // 2))  # fftfreq order
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
    """Evolve a charge-diagonal field: exact, unitary, composes additively in t."""
    psgrid.require_conjugate()
    w = np.asarray(w)
    wk = np.fft.fft(w, axis=1)
    wk *= propagator_phases(energy_fn, t, psgrid, "even")
    out = np.fft.ifft(wk, axis=1)
    return out.real if np.isrealobj(w) else out


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
