"""State constructors: Gaussian packets, coherent states, number states, rotator states.

States are stored per charge branch as a single momentum-space amplitude;
the doubled two-component structure is never materialized because the
phase-space transform reinstates it through the eps/chi kernels.  The
charge norm of a two-branch object is integral(|phi_+|^2 - |phi_-|^2);
physical (superselected) states carry exactly one branch with charge norm
+-1, while mixed-branch states exist only as diagnostics for the
charge-off-diagonal components.

A Gaussian packet is the n = 0 Hermite-Gaussian: `gaussian_state`
resolves its width and calls `displaced_number_state`, so one builder,
one Hermite recurrence and one resolution check serve every number
state.
"""

from dataclasses import dataclass

import numpy as np

from .errors import ResolutionError, TruncationError
from .grids import NATURAL, MomentumGrid, UnitSystem, quadrature
from .spectrum import EnergyModel, deformation_f


@dataclass(frozen=True)
class ChargeBranchState:
    """Pair of momentum-space amplitudes (phi_plus, phi_minus), one per charge branch."""

    grid: MomentumGrid
    phi_plus: np.ndarray | None = None
    phi_minus: np.ndarray | None = None
    units: UnitSystem = NATURAL

    def __post_init__(self):
        if self.phi_plus is None and self.phi_minus is None:
            raise ValueError("state needs at least one charge branch")
        for phi in (self.phi_plus, self.phi_minus):
            if phi is not None and phi.shape != (self.grid.n_points,):
                raise ValueError(
                    f"branch amplitude shape {phi.shape} does not match grid "
                    f"({self.grid.n_points},)"
                )

    def branch(self, sign: int) -> np.ndarray | None:
        return self.phi_plus if sign > 0 else self.phi_minus


@dataclass(frozen=True)
class CoherentSpec:
    """alpha = (q_bar/sigma + i sigma p_bar/hbar)/sqrt(2) and the branch it lives on."""

    alpha: complex
    sigma: float
    branch: int = +1

    def __post_init__(self):
        if self.sigma <= 0:
            raise ValueError(f"sigma must be positive, got {self.sigma}")

    def centers(self, units: UnitSystem = NATURAL):
        """(q_bar, p_bar) encoded by alpha."""
        q_bar = np.sqrt(2.0) * self.sigma * self.alpha.real
        p_bar = np.sqrt(2.0) * units.hbar * self.alpha.imag / self.sigma
        return q_bar, p_bar


def _resolves(grid: MomentumGrid, sigma: float, units: UnitSystem) -> bool:
    """The one spacing rule of every packet grid: dp < hbar/(4 sigma) and dp <= 2 pi mc / ln(1e8).

    The first bound is the sigma-packet's own.  The second, about
    0.34 mc, is the eps weight's: the trapezoid rule's error on an
    integrand analytic in a strip of half-width a falls as
    exp(-2 pi a / dp) (Trefethen & Weideman, SIAM Rev. 56, 385, 2014),
    and E(p) has branch points at p = +-i mc, so the grid's momentum sums
    converge to about 1e-8 relative.
    """
    return grid.spacing < 0.25 * units.hbar / sigma and grid.spacing <= 2.0 * np.pi * units.mc / np.log(1e8)


def momentum_grid(sigma: float, p_max: float, units: UnitSystem, n_min: int) -> MomentumGrid:
    """The fewest nodes on [-p_max, p_max], a power of two >= n_min, that meet `_resolves`.

    The grid stops doubling at 2^16 nodes, where it may still miss the
    rule; the state builders' `_check_resolution` then refuses it.
    """
    grid = MomentumGrid(n_min, p_max)
    while grid.n_points < 2**16 and not _resolves(grid, sigma, units):
        grid = MomentumGrid(2 * grid.n_points, p_max)
    return grid


def _check_resolution(grid: MomentumGrid, sigma: float, p_bar: float, units: UnitSystem, reach: float):
    """Require `_resolves(grid, sigma, units)` and p_max > |p_bar| + reach hbar/sigma.

    The spacing is checked first.  Its error names the nodes that
    `momentum_grid` gives the grid's p_max, or says that no grid of up to
    2^16 nodes resolves the packet there.
    """
    if not _resolves(grid, sigma, units):
        sized = momentum_grid(sigma, grid.p_max, units, grid.n_points)
        need = f"use {sized.n_points} nodes" if _resolves(sized, sigma, units) else "no grid of up to 2^16 nodes does"
        raise ResolutionError(
            f"{grid.n_points} nodes on p_max {grid.p_max:.4g} (dp = {grid.spacing:.4g}) do not resolve a packet of "
            f"width sigma = {sigma:.4g}, which needs dp < hbar/(4 sigma) and dp <= 2 pi mc/ln(1e8): {need}"
        )
    width = units.hbar / sigma
    if grid.p_max <= abs(p_bar) + reach * width:
        raise ResolutionError(
            f"p_max {grid.p_max:.4g} cannot hold packet support; need "
            f"p_max > |p_bar| + {reach:.4g} hbar/sigma = {abs(p_bar) + reach * width:.4g}"
        )


def _as_state(grid, phi, branch, units) -> ChargeBranchState:
    norm2 = quadrature(np.abs(phi) ** 2, grid).real
    if not 0.0 < norm2 < np.inf:
        raise ValueError(f"packet norm^2 on the grid is {norm2}, not finite and positive")
    phi = phi / np.sqrt(norm2)
    if branch > 0:
        return ChargeBranchState(grid, phi_plus=phi, units=units)
    return ChargeBranchState(grid, phi_minus=phi, units=units)


def gaussian_state(
    grid: MomentumGrid,
    sigma: float | None = None,
    lam: float | None = None,
    p_bar: float = 0.0,
    q_bar: float = 0.0,
    branch: int = +1,
    units: UnitSystem = NATURAL,
) -> ChargeBranchState:
    """Minimal Gaussian packet phi(p) ~ exp(-sigma^2 (p-p_bar)^2 / 2 hbar^2 - i q_bar p/hbar).

    Width may be given directly as sigma or through the localization
    parameter lam = compton_length / sigma; lam of order 1 and above is
    the strongly localized (relativistic) regime regardless of velocity.
    The packet is the n = 0 member of `displaced_number_state`.
    """
    if (sigma is None) == (lam is None):
        raise ValueError("give exactly one of sigma or lam")
    if sigma is None:
        if not 0.0 < lam < np.inf:
            raise ValueError(f"lam must be finite and positive, got {lam}")
        sigma = units.compton_length / lam
    return displaced_number_state(0, grid, sigma, q_bar, p_bar, branch, units)


def free_coherent_state(
    spec: CoherentSpec, grid: MomentumGrid, units: UnitSystem = NATURAL
) -> ChargeBranchState:
    """Eigenstate of the even part of the annihilation operator on one branch.

    Within a fixed charge branch the even annihilation operator acts as
    the ordinary (q/sigma + i sigma p/hbar)/sqrt(2), so the state is the
    Gaussian packet whose centers are read off alpha; both defining
    conditions (standard first moments and single-branch expansion) hold
    at once.
    """
    q_bar, p_bar = spec.centers(units)
    return gaussian_state(
        grid, sigma=spec.sigma, p_bar=p_bar, q_bar=q_bar, branch=spec.branch, units=units
    )


_MAX_HERMITE = 12


def displaced_number_state(
    n: int,
    grid: MomentumGrid,
    sigma: float,
    q_bar: float = 0.0,
    p_bar: float = 0.0,
    branch: int = +1,
    units: UnitSystem = NATURAL,
) -> ChargeBranchState:
    """n-th Hermite-Gaussian of width sigma displaced to (q_bar, p_bar).

    H_n comes from the recurrence H_(k+1) = 2x H_k - 2k H_(k-1) from
    H_0 = 1, for every n: bit for bit numpy's Hermite-series evaluation
    (the tests' referee) for n <= 2, and apart from it by at most
    2.1e-15 of max |H_n e^(-x^2/2)| for 3 <= n <= 12.
    The family is orthonormal under the grid quadrature; n is capped at
    12, past which raw Hermite recursion is not worth trusting at desk
    scale.
    """
    if not 0 <= n <= _MAX_HERMITE:
        raise ValueError(f"number-state index must be in [0, {_MAX_HERMITE}], got {n}")
    if not 0.0 < sigma < np.inf:
        raise ValueError(f"sigma must be finite and positive, got {sigma}")
    if not np.isfinite([q_bar, p_bar]).all():
        raise ValueError(f"centres must be finite, got q_bar={q_bar}, p_bar={p_bar}")
    # support reaches the classical turning point sqrt(2n+1) hbar/sigma
    # plus Gaussian tails; resolution requirement is that of the n=0 width
    _check_resolution(grid, sigma, p_bar, units, reach=np.sqrt(2.0 * n + 1.0) + 5.0)
    p = grid.nodes
    x = sigma * (p - p_bar) / units.hbar
    herm, previous = np.ones_like(x), np.zeros_like(x)
    for k in range(n):
        herm, previous = 2.0 * x * herm - 2.0 * k * previous, herm
    phi = herm * np.exp(
        -(sigma**2) * (p - p_bar) ** 2 / (2.0 * units.hbar**2)
        - 1j * q_bar * p / units.hbar
    )
    return _as_state(grid, phi, branch, units)


@dataclass(frozen=True)
class FockExpansion:
    """Coefficients over the magnetic-problem level basis, truncation-checked."""

    coeffs: np.ndarray

    def __post_init__(self):
        norm = np.sum(np.abs(self.coeffs) ** 2)
        if not abs(norm - 1.0) <= 1e-10:  # NaN fails too
            raise ValueError(f"coefficients not normalized: sum |c|^2 = {norm}")


def rotator_coherent_state(
    alpha: complex, model: EnergyModel, n_max: int = 128
) -> FockExpansion:
    """Eigenstate of the even rotational ladder operator, c_n ~ alpha^n / (sqrt(n!) f(n)!).

    f(n)! is the running product f(1)...f(n) of the ladder deformation;
    in the weak-field limit the coefficients reduce to the standard
    coherent alpha^n/sqrt(n!).  alpha is quoted in ladder units, so
    |alpha| sets the orbit radius in units of the magnetic length scale;
    alpha = 0 is the ground state (zero orbit radius).
    """
    if n_max < 1 or n_max > 512:
        raise ValueError(f"n_max must be in [1, 512], got {n_max}")
    if not np.isfinite(alpha):
        raise ValueError(f"alpha must be finite, got {alpha}")
    n = np.arange(1, n_max + 1)
    f = deformation_f(n, model)
    # log-magnitude recursion keeps very large n_max stable
    # alpha = 0: log 0 = -inf makes every c_n past c_0 zero, also under the command line's divide="raise"
    with np.errstate(divide="ignore"):
        log_terms = np.log(abs(alpha)) - 0.5 * np.log(n) - np.log(f)
    log_mag = np.concatenate([[0.0], np.cumsum(log_terms)])
    phase = np.angle(complex(alpha)) * np.arange(n_max + 1)
    log_norm = 0.5 * np.log(np.sum(np.exp(2.0 * (log_mag - log_mag.max()))))
    c = np.exp(log_mag - log_mag.max() - log_norm) * np.exp(1j * phase)
    tail = abs(c[-1]) ** 2
    if tail >= 1e-12:
        # crude growth estimate: coefficients peak near |alpha|^2 levels
        suggested = int(np.ceil(abs(alpha) ** 2 + 12.0 * abs(alpha) + 16))
        raise TruncationError(
            f"|c_nmax|^2 = {tail:.3e} >= 1e-12 at n_max={n_max}; "
            f"increase n_max (try {max(suggested, 2 * n_max)})",
            suggested_size=max(suggested, 2 * n_max),
        )
    return FockExpansion(coeffs=c)

