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
quadrature of the exchange-projected single-particle brackets.  The
fermi pair is expanded in the orthogonal sum and difference orbitals,
whose energies never divide vanishing norms, so nearly and exactly
coincident centers need no special case.
"""

from dataclasses import dataclass

import numpy as np

from .grids import NATURAL, MomentumGrid, UnitSystem, quadrature
from .spectrum import energy
from .states import displaced_number_state


@dataclass(frozen=True)
class PairState:
    """Two same-width Gaussian packets at rest, centered q1 and q2."""

    q1: float
    q2: float
    sigma: float
    statistics: str = "fermi"

    def __post_init__(self):
        if self.sigma <= 0:
            raise ValueError(f"sigma must be positive, got {self.sigma}")
        if self.statistics not in ("bose", "fermi"):
            raise ValueError(f"statistics must be 'bose' or 'fermi', got {self.statistics!r}")

    @property
    def separation(self) -> float:
        return abs(self.q1 - self.q2)


def _pair_grid(sigma: float, units: UnitSystem) -> MomentumGrid:
    width = units.hbar / sigma
    p_max = 12.0 * max(width, units.mc)
    n = 2048
    while 2.0 * p_max / n > 0.1 * width and n < 2**16:
        n *= 2
    return MomentumGrid(n, p_max)


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

    Bosons: E = [T_11 + T_22 + 2 Re(s* T_12)] / (1 + |s|^2) with s the
    orbital overlap.  Fermions: the same Slater determinant is built from
    the orthogonal pair psi_+ = base cos(d p / 2 hbar) and
    psi_- = base p sinc(d p / 2 pi hbar) -- the sum and the difference of
    the two orbitals, without their common centre phase and with the
    difference divided by d / 2 hbar -- so E = sum over +- of
    <psi|T|psi> / <psi|psi>.  This equals
    [T_11 + T_22 - 2 Re(s* T_12)] / (1 - |s|^2) but has no 0/0 as d -> 0,
    is even in d (so exactly exchange-symmetric), and at d = 0 is the
    orthogonalized limit T_0 + T_1 over the local harmonic modes.  Both
    tend to twice the single-packet energy once the packets separate.
    """
    grid = _pair_grid(pair.sigma, units)
    p = grid.nodes
    base = np.exp(-(pair.sigma**2) * p**2 / (2.0 * units.hbar**2))
    T = _kinetic(p, model, units)
    if pair.statistics == "fermi":
        half = pair.separation * p / (2.0 * units.hbar)
        total = 0.0
        for psi in (base * np.cos(half), base * p * np.sinc(half / np.pi)):
            density = psi**2
            total += quadrature(T * density, grid).real / quadrature(density, grid).real
        return float(total)
    base = base / np.sqrt(quadrature(np.abs(base) ** 2, grid).real)
    phi1 = base * np.exp(-1j * pair.q1 * p / units.hbar)
    phi2 = base * np.exp(-1j * pair.q2 * p / units.hbar)
    t11 = quadrature(T * np.abs(phi1) ** 2, grid).real
    t22 = quadrature(T * np.abs(phi2) ** 2, grid).real
    t12 = quadrature(T * np.conj(phi1) * phi2, grid)
    s = quadrature(np.conj(phi1) * phi2, grid)
    return float((t11 + t22 + 2.0 * (np.conj(s) * t12).real) / (1.0 + abs(s) ** 2))


def correlation_energy(pair: PairState, model: str = "rel", units: UnitSystem = NATURAL) -> float:
    """Exchange-induced excess over two independent packets."""
    single = _mode_kinetic(0, model, pair.sigma, units)
    return pair_energy(pair, model, units) - 2.0 * single


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

    @classmethod
    def from_rows(cls, models, rows) -> "PenaltyTable":
        """Inverse of `rows`: each row is (sigma, penalty per model)."""
        rows = list(rows)
        models = tuple(models)
        columns = {m: tuple(r[i + 1] for r in rows) for i, m in enumerate(models)}
        return cls(sigmas=tuple(r[0] for r in rows), models=models, columns=columns)

    def rows(self):
        for i, s in enumerate(self.sigmas):
            yield (s,) + tuple(self.columns[m][i] for m in self.models)


def penalty_curve(sigmas, models=("nonrel", "rel"), units: UnitSystem = NATURAL) -> PenaltyTable:
    """Overlap penalty vs packet width for each kinetic model."""
    sigmas = tuple(float(s) for s in sigmas)
    if any(s <= 0 for s in sigmas):
        raise ValueError("all sigma values must be positive")
    return PenaltyTable.from_rows(
        models, [(s,) + tuple(overlap_penalty(s, m, units) for m in models) for s in sigmas]
    )
