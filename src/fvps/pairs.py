"""Two identical particles in Gaussian orbitals: exchange energetics.

Symmetrizing or antisymmetrizing a two-particle product state adds a
correlation term to the mean energy.  For bosons it is mild; for
(spinless-modeled) fermions the Pauli principle makes coincident packets
expensive: as the centers merge, one particle is pushed into the first
excited displaced number state, and the energy excess over two separated
packets is the Fermi-repulsion penalty.  With the relativistic kinetic
energy E(p) - mc^2, whose growth in p is sublinear past mc, the excited
mode costs less than in the quadratic theory, so the penalty shrinks:
overlap states become energetically more accessible for packets
localized near the Compton length.

Energies are per-pair, rest energy subtracted, computed by momentum-space
quadrature of the exchange-projected single-particle brackets.  Both
statistics expand the pair in the orthogonal sum and difference
orbitals; the fermi energy never divides a vanishing norm, so nearly and
exactly coincident centers need no special case.
"""

from dataclasses import dataclass

import numpy as np

from .grids import NATURAL, MomentumGrid, UnitSystem, quadrature
from .spectrum import energy
from .states import displaced_number_state, momentum_grid


@dataclass(frozen=True)
class PairState:
    """Two same-width Gaussian packets at rest, centered q1 and q2."""

    q1: float
    q2: float
    sigma: float
    statistics: str = "fermi"

    def __post_init__(self):
        if not np.isfinite([self.q1, self.q2, float(self.q1) - float(self.q2)]).all():
            raise ValueError(f"q1, q2 and their separation must be finite, got q1={self.q1}, q2={self.q2}")
        if not 0.0 < self.sigma < np.inf:
            raise ValueError(f"sigma must be finite and positive, got {self.sigma}")
        if self.statistics not in ("bose", "fermi"):
            raise ValueError(f"statistics must be 'bose' or 'fermi', got {self.statistics!r}")

    @property
    def separation(self) -> float:
        return abs(self.q1 - self.q2)


def _pair_grid(sigma: float, units: UnitSystem) -> MomentumGrid:
    return momentum_grid(sigma, 12.0 * units.hbar / sigma, units, n_min=2048)


def _kinetic(p, model: str, units: UnitSystem):
    if model == "rel":
        return energy(p, units) - units.mc2
    if model == "nonrel":
        return np.asarray(p) ** 2 / (2.0 * units.m)
    raise ValueError(f"model must be 'rel' or 'nonrel', got {model!r}")


def _mode_kinetic(n: int, model: str, sigma: float, units: UnitSystem) -> float:
    grid = _pair_grid(sigma, units)
    phi = displaced_number_state(n, grid, sigma, units=units).phi_plus
    return quadrature(_kinetic(grid.nodes, model, units) * np.abs(phi) ** 2, grid).real


def pair_energy(pair: PairState, model: str = "rel", units: UnitSystem = NATURAL) -> float:
    """Mean kinetic energy of the (anti)symmetrized pair, rest energy removed.

    Both statistics expand the pair in one orthogonal orbital pair, the
    sum and the difference of the two orbitals without their common
    centre phase: psi_a = base cos(d p / 2 hbar) and
    psi_b = base sin(d p / 2 hbar), each with its norm N = <psi|psi> and
    kinetic bracket T = <psi|T|psi>.  base is the normalized packet, so
    N_a + N_b = 1 and the products N T stay in range.  The symmetric state is
    psi_a psi_a - psi_b psi_b, so bosons have
    E = 2 (N_a T_a + N_b T_b) / (N_a^2 + N_b^2); the Slater determinant
    is psi_a psi_b - psi_b psi_a, so fermions have E = T_a/N_a + T_b/N_b,
    with psi_b divided by d / 2 hbar (base p sinc(d p / 2 pi hbar)) so
    that no norm vanishes.  These equal the overlap forms
    [T_11 + T_22 +- 2 Re(s* T_12)] / (1 +- |s|^2) with s the orbital
    overlap, but the fermion form has no 0/0 as d -> 0 and at d = 0 is
    the orthogonalized limit T_0 + T_1 over the local harmonic modes.
    Both depend on the separation only (so are exactly
    exchange-symmetric) and tend to twice the single-packet energy once
    the packets separate.

    The pair grid spans p_max = 12 hbar/sigma with the nodes
    `states.momentum_grid` asks for, at least 2048, so dp <= 0.012
    hbar/sigma at every width, and it meets `states._resolves` up to its
    2^16-node cap (sigma down to about 1.074e-3 Compton lengths; below
    that the packet builder raises ResolutionError).  A quadrature on the
    spacing dp reads the pair's densities at separation d as at
    d - 2 pi hbar/dp as well, so a separation that is not 12 sigma below
    that position window (about 536 sigma at 2048 nodes) raises
    ValueError (at 8 sigma below it the image still moves the energy by
    up to ~1e-9 relative, at 12 sigma by roundoff).
    """
    grid = _pair_grid(pair.sigma, units)
    window = 2.0 * np.pi * units.hbar / grid.spacing
    if not pair.separation < window - 12.0 * pair.sigma:
        raise ValueError(
            f"separation {pair.separation:.4g} must stay 12 sigma below the pair grid's position window "
            f"2 pi hbar/dp = {window:.4g}, past which the densities alias"
        )
    p = grid.nodes
    base = np.exp(-(pair.sigma**2) * p**2 / (2.0 * units.hbar**2))
    base /= np.sqrt(quadrature(base**2, grid).real)
    T = _kinetic(p, model, units)
    half = pair.separation * p / (2.0 * units.hbar)
    fermi = pair.statistics == "fermi"
    difference = base * p * np.sinc(half / np.pi) if fermi else base * np.sin(half)
    brackets = []
    for psi in (base * np.cos(half), difference):
        density = psi**2
        brackets.append((quadrature(density, grid).real, quadrature(T * density, grid).real))
    if fermi:
        return float(sum(t / n for n, t in brackets))
    return float(2.0 * sum(n * t for n, t in brackets) / sum(n * n for n, _ in brackets))


def overlap_penalty(sigma: float, model: str = "rel", units: UnitSystem = NATURAL) -> float:
    """Fermi energy cost of coincident centers relative to full separation.

    Equals the local mode gap T_1 - T_0; for the quadratic theory this
    is hbar^2/(2 m sigma^2) exactly, and the relativistic value is
    strictly smaller, approaching it only when sigma covers many Compton
    lengths.
    """
    return _mode_kinetic(1, model, sigma, units) - _mode_kinetic(0, model, sigma, units)


@dataclass(frozen=True)
class PenaltyTable:
    sigmas: tuple
    models: tuple
    columns: dict

    def rows(self):
        for i, s in enumerate(self.sigmas):
            yield (s,) + tuple(self.columns[m][i] for m in self.models)


def penalty_curve(sigmas, models=("nonrel", "rel"), units: UnitSystem = NATURAL) -> PenaltyTable:
    """Overlap penalty vs packet width for each kinetic model."""
    sigmas = tuple(float(s) for s in sigmas)
    models = tuple(models)
    if not all(0.0 < s < np.inf for s in sigmas):
        raise ValueError(f"all sigma values must be finite and positive, got {sigmas}")
    columns = {m: tuple(overlap_penalty(s, m, units) for s in sigmas) for m in models}
    return PenaltyTable(sigmas=sigmas, models=models, columns=columns)
