"""Magnetic-field problem: deformed ladder algebra and orbit-radius dynamics.

The observable parts of the rotational ladder operators are deformed: the
even annihilation operator A carries matrix elements sqrt(n+1) f(n+1)
with f the spectrum-derived deformation factor, so [A, A^dag] is no
longer the identity and the pair generates a deformed algebra.  The
anharmonic level spacing then dephases coherent superpositions, and the
orbit radius r(t) -- operationalized as the guiding-center distance
sqrt(2) l |<A(t)>|, which is exactly constant for an equally spaced
spectrum -- develops a slow envelope: a low-frequency modulation far
below the cyclotron frequency, read off the spectrum of r(t).  The
"additional damping" visible over a finite window is the first collapse
of that envelope, not true dissipation.

The longitudinal degree of freedom does not decouple: the even
rotational ladder fails to commute with the even longitudinal position,
so no state is sharp in both; `translational_coupling` measures that
commutator on the joint basis.

Every Hamiltonian here is a set of independent 2x2 charge blocks, so the
production paths use closed forms in mode space: the ladder from
`deformation_f`, and the coupling norm from eps = 1 + delta on the level
energies.  None builds a doubled-space matrix.  The dense doubled-space
oracle (`sign_operator`, `even_part`, `branch_reduce`) runs only in
`orbit_series_matrix_oracle` and the tests, as the referee.
"""

import math
import warnings
from dataclasses import dataclass

import numpy as np

from .errors import GridError, ResolutionError, ResolutionWarning
from .grids import NATURAL, MomentumGrid, PhaseSpaceGrid, UnitSystem
from .opmatrix import (
    branch_reduce,
    branch_vectors,
    build_hamiltonian,
    charge_invariant,
    even_part,
    position_kernel,
    sign_operator,
)
from .spectrum import EnergyModel, deformation_f, landau_energy
from .states import FockExpansion


@dataclass(frozen=True)
class RotatorModel:
    """Field strength, level truncation, and optional longitudinal grid."""

    b: float
    n_max: int = 64
    units: UnitSystem = NATURAL
    pz_grid: MomentumGrid | None = None

    def __post_init__(self):
        if not 0.0 < self.b < np.inf:
            raise ValueError(f"field strength b must be finite and positive, got {self.b}")
        if self.n_max < 2:
            raise ValueError(f"n_max must be >= 2, got {self.n_max}")

    @property
    def energy_model(self) -> EnergyModel:
        return EnergyModel.landau(self.b, self.units)

    @property
    def omega(self) -> float:
        return self.energy_model.omega

    @property
    def ladder_length(self) -> float:
        """Transverse length scale sqrt(hbar / (m omega))."""
        u = self.units
        return float(np.sqrt(u.hbar / (u.m * self.omega)))


def _bare_ladder(n_levels: int) -> np.ndarray:
    """Undeformed annihilation matrix, <n-1| a |n> = sqrt(n)."""
    return np.diag(np.sqrt(np.arange(1, n_levels)), k=1).astype(complex)


def _even_superdiagonal(model: EnergyModel, n_levels: int) -> np.ndarray:
    """<n-1| A |n> = sqrt(n) f(n) for n = 1 .. n_levels - 1."""
    n = np.arange(1, n_levels)
    return np.sqrt(n) * deformation_f(n, model)


def even_ladder(model: RotatorModel):
    """Observable ladder pair (A, A^dag) reduced to the positive charge branch.

    Closed form: the positive-branch reduction of an even part is
    eps(E_j, E_k) times the bare kernel (`opmatrix.kernel_relation_check`),
    so A is bidiagonal with superdiagonal sqrt(n) f(n), f = eps on
    neighbouring levels, and A^dag = A^H.  This ties the spectrum-derived
    deformation factor to the matrix mechanics; as b -> 0 the pair
    reverts to the undeformed ladder.  The tests check it against the
    doubled-space oracle.
    """
    a = np.diag(_even_superdiagonal(model.energy_model, model.n_max), k=1).astype(complex)
    return a, a.conj().T


def deformed_commutator(model: RotatorModel) -> np.ndarray:
    """Diagonal of [A, A^dag] on the positive branch.

    The identity for an undeformed pair; for b > 0 the entries start at
    f(1)^2 and decay toward 1 with n.  The last level is dropped: its
    entry is a truncation artifact (the matrix cannot see A_{n_max,
    n_max+1}).  A is bidiagonal with superdiagonal s, so [A, A^dag] is
    diagonal with entries s_n^2 - s_(n-1)^2 (s_0 = 0).
    """
    return np.diff(_even_superdiagonal(model.energy_model, model.n_max) ** 2, prepend=0.0)


@dataclass(frozen=True)
class OrbitSeries:
    """Orbit radius r(t) and transverse centroid track in natural length units."""

    times: np.ndarray
    radius: np.ndarray
    x: np.ndarray
    y: np.ndarray
    omega: float

    def to_rows(self):
        return zip(self.times, self.radius, self.x, self.y)


def orbit_series(
    state: FockExpansion,
    model: RotatorModel,
    t_max: float,
    dt: float,
    force_linear_spectrum: bool = False,
) -> OrbitSeries:
    """Track r(t) = sqrt(2) l |<A(t)>| under level-phase evolution.

    With force_linear_spectrum the levels are replaced by the equally
    spaced reference hbar omega (n + 1/2): every term of <A(t)> then
    rotates at the same frequency and r(t) is exactly constant, isolating
    the relativistic anharmonicity as the only source of modulation.
    dt must resolve the fundamental spacing (>= 8 samples per cyclotron
    period).

    <A(t)> = sum_n w_n exp(-i g_n t) over the N-1 level gaps g_n.  The
    T sample times are uniform, t_k = k dt, so with B = ceil(sqrt(T)) and
    k = i B + j the phase splits as exp(-i g t_iB) exp(-i g t_j): one
    (ceil(T/B), N-1) table of block starts, weights folded in, times the
    transpose of one (B, N-1) table of offsets gives every amplitude,
    row-major.  Row i of each table is its row 0 times the i-th power of
    one phase step, exp(-i g B dt) or exp(-i g dt), formed by a running
    product down the table.  That is 2(N-1) exponentials, two running
    products of about sqrt(T) rows and one matrix product, where the
    direct sum takes T (N-1) exponentials, and beyond the outputs it
    holds O(sqrt(T) N) memory.  Its rounding is that of the direct sum
    exp(-i g t_k) @ w (the referee in the tests): each lies within a
    small multiple of eps (N-1 + max g t_max) sum |w_n| of the exact sum
    (summation, then phase; a running product's phase drifts by about
    eps per row and eps g B dt per start row, which that bound covers),
    and on criterion 8's 108 226-sample series the two differ by 1.2e-11
    of max |<A>|.
    """
    if not 0.0 < dt < t_max < np.inf:
        raise ValueError(f"need finite 0 < dt < t_max, got dt={dt}, t_max={t_max}")
    u = model.units
    period = 2.0 * np.pi / model.omega
    if dt > period / 8.0:
        raise ResolutionError(
            f"dt={dt:.4g} undersamples the cyclotron period {period:.4g}; "
            f"need dt <= {period / 8:.4g}"
        )
    c = state.coeffs
    n_levels = len(c)
    n = np.arange(n_levels)
    if force_linear_spectrum:
        energies = u.hbar * model.omega * (n + 0.5)
    else:
        energies = landau_energy(n, 0.0, model.energy_model)
    super_diag = _even_superdiagonal(model.energy_model, n_levels)

    times = np.arange(0.0, t_max, dt)
    gaps = (energies[1:] - energies[:-1]) / u.hbar
    weights = np.conj(c[:-1]) * c[1:] * super_diag
    block = math.isqrt(len(times) - 1) + 1
    starts = np.empty((-(-len(times) // block), len(gaps)), dtype=complex)
    offsets = np.empty((block, len(gaps)), dtype=complex)
    starts[0], starts[1:] = weights, np.exp(-1j * (block * dt * gaps))
    offsets[0], offsets[1:] = 1.0, np.exp(-1j * (dt * gaps))
    np.multiply.accumulate(starts, out=starts)
    np.multiply.accumulate(offsets, out=offsets)
    amp = (starts @ offsets.T).ravel()[: len(times)]
    del starts, offsets  # freed first, so the outputs do not stack on the tables
    scale = np.sqrt(2.0) * model.ladder_length
    return OrbitSeries(
        times=times,
        radius=scale * np.abs(amp),
        x=scale * amp.real,
        y=scale * amp.imag,
        omega=model.omega,
    )


def orbit_series_matrix_oracle(
    state: FockExpansion, model: RotatorModel, times: np.ndarray
) -> np.ndarray:
    """r(t) from level-by-level evolution on the positive subspace.

    Independent pipeline for cross-checking `orbit_series`: evolves the
    coefficient vector with the diagonal exponential exp(-i E_n t / hbar)
    of the positive-branch energies from `branch_vectors` (the exact
    propagator of that diagonal Hamiltonian) and re-measures |<A>| with
    the ladder built by the doubled-space oracle (dense sign operator,
    even part of the bare ladder, reduction onto the positive branch).
    """
    n_levels = len(state.coeffs)
    h = build_hamiltonian(model.energy_model, n_levels=n_levels)
    u_plus, _, energies = branch_vectors(h)
    a_even = even_part(charge_invariant(_bare_ladder(n_levels), h.basis), sign_operator(h))
    a = branch_reduce(a_even, u_plus, u_plus)
    scale = np.sqrt(2.0) * model.ladder_length
    out = np.empty(len(times))
    for i, t in enumerate(times):
        ct = np.exp(-1j * energies * t / model.units.hbar) * state.coeffs
        out[i] = scale * abs(np.conj(ct) @ (a @ ct))
    return out


@dataclass(frozen=True)
class SpectralPeak:
    frequency: float
    amplitude: float


def modulation_spectrum(series: OrbitSeries, rel_threshold: float = 1e-8):
    """Detrended magnitude spectrum of r(t), peaks sorted by amplitude.

    A peak is a local maximum of |FFT| above rel_threshold len(r) max |r|.
    An inner bin of a real series' FFT holds at most len(r) max |r - mean|
    / sqrt(2), so a series within rel_threshold max |r| of its mean, a
    constant one among them, returns no peaks.  Emits a ResolutionWarning
    when the window holds fewer than four periods of the lowest detected
    peak (that peak's frequency is then window limited).  `rel_threshold`
    must be finite and non-negative: a NaN or infinite one admits no
    peak, a negative one every local maximum.
    """
    if not 0.0 <= rel_threshold < np.inf:
        raise ValueError(f"rel_threshold must be finite and non-negative, got {rel_threshold}")
    r = series.radius
    dt = series.times[1] - series.times[0]
    detrended = r - r.mean()
    scale = np.abs(r).max()
    spec = np.abs(np.fft.rfft(detrended))
    freqs = 2.0 * np.pi * np.fft.rfftfreq(len(r), dt)
    floor = rel_threshold * scale * len(r)
    inner = spec[1:-1]
    idx = 1 + np.flatnonzero((inner > spec[:-2]) & (inner >= spec[2:]) & (inner > floor))
    idx = idx[np.argsort(-spec[idx], kind="stable")]
    peaks = [SpectralPeak(frequency=float(freqs[i]), amplitude=float(spec[i])) for i in idx]
    if peaks:
        lowest = min(pk.frequency for pk in peaks)
        if series.times[-1] < 4.0 * 2.0 * np.pi / lowest:
            warnings.warn(
                f"series window {series.times[-1]:.4g} holds fewer than four "
                f"periods of the lowest peak ({2 * np.pi / lowest:.4g})",
                ResolutionWarning,
            )
    return peaks


def modulation_depth(series: OrbitSeries) -> float:
    """(max - min) / mean of the radius track."""
    mean = series.radius.mean()
    if mean == 0:
        return 0.0
    return float((series.radius.max() - series.radius.min()) / mean)


def translational_coupling(model: RotatorModel) -> float:
    """Max-entry norm of [A_even, Z_even] on the joint (level x p_z) basis.

    Z is the charge-invariant longitudinal position.  The norm is
    strictly positive for b > 0 -- rotational and longitudinal observable
    positions cannot be diagonalized together -- and vanishes in the
    b -> 0 limit where the branch structure loses its n-dependence.

    Closed form in mode space, no doubled-space matrix: the charge blocks
    of the commutator are eps * C and -chi * C entrywise, with
    C = [eps * A, eps * Z] the commutator of the positive-branch
    reductions, so the norm is max |eps * C| (eps^2 - chi^2 = 1).  Written
    as eps = 1 + delta, with
    delta(E_a, E_b) = (sqrt E_a - sqrt E_b)^2 / (2 sqrt(E_a E_b)), it
    carries no cancellation.  A = a x 1 and Z = 1 x z act on different factors,
    so [A, Z] = 0 and only level blocks (l, l+1) of C survive:
    sqrt(l+1) z_ik [d_i - d_k + dhi_ik - dlo_ik + d_i dhi_ik - dlo_ik d_k],
    with dlo, dhi the delta within levels l and l+1 and d_i the delta
    between (l, i) and (l+1, i).
    """
    if model.pz_grid is None:
        raise GridError("translational_coupling needs a RotatorModel with a pz_grid")
    z = position_kernel(PhaseSpaceGrid.conjugate(model.pz_grid, model.units.hbar))
    levels = np.arange(model.n_max)[:, None]
    root = np.sqrt(landau_energy(levels, model.pz_grid.nodes, model.energy_model))
    i, k = root[:, :, None], root[:, None, :]

    def delta(ra, rb):
        return (ra - rb) ** 2 / (2.0 * ra * rb)

    d_i, d_k = delta(i[:-1], i[1:]), delta(k[:-1], k[1:])
    d_lo, d_hi = delta(i[:-1], k[:-1]), delta(i[1:], k[1:])
    c = z * (d_i - d_k + d_hi - d_lo + d_i * d_hi - d_lo * d_k)
    eps = 1.0 + delta(i[:-1], k[1:])
    return float((np.sqrt(levels[1:, :, None]) * np.abs(eps * c)).max())
