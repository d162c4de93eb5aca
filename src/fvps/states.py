"""State constructors: Gaussian packets, coherent states, number states, rotator states.

States are stored per charge branch as a single momentum-space amplitude;
the doubled two-component structure is never materialized because the
phase-space transform reinstates it through the eps/chi kernels.  The
charge norm of a two-branch object is integral(|phi_+|^2 - |phi_-|^2);
physical (superselected) states carry exactly one branch with charge norm
+-1, while mixed-branch states exist only as diagnostics for the
charge-off-diagonal components.

A Gaussian packet is the n = 0 Hermite-Gaussian: `gaussian_state`
resolves its width and calls `displaced_number_state`, so one builder
and one resolution check serve both.
"""

from dataclasses import dataclass

import numpy as np

from .errors import ResolutionError, TruncationError
from .grids import NATURAL, MomentumGrid, UnitSystem, quadrature
from .spectrum import EnergyModel, deformation_f
from .tables import write_csv, write_json


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

    @property
    def charge_norm(self) -> float:
        total = 0.0
        if self.phi_plus is not None:
            total += quadrature(np.abs(self.phi_plus) ** 2, self.grid).real
        if self.phi_minus is not None:
            total -= quadrature(np.abs(self.phi_minus) ** 2, self.grid).real
        return float(total)

    @property
    def is_physical(self) -> bool:
        """Single nonzero branch with charge norm +-1 (superselection rule)."""
        single = (self.phi_plus is None) != (self.phi_minus is None)
        return single and abs(abs(self.charge_norm) - 1.0) < 1e-10


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


def _check_resolution(grid: MomentumGrid, sigma: float, p_bar: float, units: UnitSystem, reach: float):
    """Require dp < hbar/(4 sigma) and p_max > |p_bar| + reach hbar/sigma."""
    width = units.hbar / sigma
    if grid.spacing >= 0.25 * width:
        raise ResolutionError(
            f"grid spacing {grid.spacing:.4g} too coarse for packet of momentum "
            f"width {width:.4g}; need dp < hbar/(4 sigma) = {0.25 * width:.4g}"
        )
    if grid.p_max <= abs(p_bar) + reach * width:
        raise ResolutionError(
            f"p_max {grid.p_max:.4g} cannot hold packet support; need "
            f"p_max > |p_bar| + {reach:.4g} hbar/sigma = {abs(p_bar) + reach * width:.4g}"
        )


def _as_state(grid, phi, branch, units) -> ChargeBranchState:
    phi = phi / np.sqrt(quadrature(np.abs(phi) ** 2, grid).real)
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
    coeffs = np.zeros(n + 1)
    coeffs[n] = 1.0
    herm = np.polynomial.hermite.hermval(sigma * (p - p_bar) / units.hbar, coeffs)
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
        if abs(norm - 1.0) > 1e-10:
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
    log_terms = np.log(abs(alpha) + (abs(alpha) == 0.0)) - 0.5 * np.log(n) - np.log(f)
    log_mag = np.concatenate([[0.0], np.cumsum(log_terms)])
    if alpha == 0:
        log_mag[1:] = -np.inf
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


# ---------------------------------------------------------------------------
# Serialization
# ---------------------------------------------------------------------------


def state_to_csv(state: ChargeBranchState, path, metadata: dict | None = None):
    """Write (p, Re phi, Im phi) rows per populated branch with '#' metadata lines."""
    nodes = state.grid.nodes.tolist()
    rows = (
        (p, sign, re, im)
        for sign, phi in ((+1, state.phi_plus), (-1, state.phi_minus))
        if phi is not None
        for p, re, im in zip(nodes, phi.real.tolist(), phi.imag.tolist())
    )
    meta = {"charge_norm": state.charge_norm, **(metadata or {})}
    write_csv(path, meta, ["p", "branch", "re_phi", "im_phi"], rows)


def state_metadata_json(state: ChargeBranchState, path, extra: dict | None = None):
    meta = {
        "n_points": state.grid.n_points,
        "p_max": state.grid.p_max,
        "charge_norm": state.charge_norm,
        "branches": [
            s for s, phi in ((+1, state.phi_plus), (-1, state.phi_minus)) if phi is not None
        ],
        "units": {
            "m": state.units.m,
            "c": state.units.c,
            "hbar": state.units.hbar,
        },
    }
    meta.update(extra or {})
    write_json(path, meta)
