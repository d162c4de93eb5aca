"""Units, sampling grids, quadrature, and transform conventions.

Everything downstream integrates over momentum with a periodic Riemann sum
(the trapezoid rule for our symmetric grids), which is spectrally accurate
for smooth decaying integrands.  The momentum->position transform uses the
kernel exp(-i p q / hbar) so that phase-space correlation integrals built
later reproduce their continuum definitions without stray signs.

The transform is a centred DFT.  A conjugate grid has p_0 = -n dp / 2,
q_0 = -n dq / 2 and dq dp n = 2 pi hbar, so

    p_k q_m / hbar = n pi / 2 - k pi - m pi + 2 pi k m / n,

and since n is a power of two >= 8 the constant phase exp(i n pi / 2) is
1: every phase that the grid's offset adds to the plain DFT is a sign
(-1)^k or (-1)^m, which is what fftshift/ifftshift apply.  No exp ramp
is evaluated, so nothing picks up roundoff that grows with n.
"""

from dataclasses import dataclass, field

import numpy as np

from .errors import ConjugacyError, GridError


@dataclass(frozen=True)
class UnitSystem:
    """Mass, speed of light, and reduced Planck constant.

    Defaults to natural units m = c = hbar = 1, in which the Compton
    length hbar/(m c) is also 1.  Positions are then measured in Compton
    lengths and momenta in units of m c.
    """

    m: float = 1.0
    c: float = 1.0
    hbar: float = 1.0

    def __post_init__(self):
        if self.m <= 0 or self.c <= 0 or self.hbar <= 0:
            raise ValueError("mass, c, and hbar must all be strictly positive")

    @property
    def mc(self) -> float:
        return self.m * self.c

    @property
    def mc2(self) -> float:
        return self.m * self.c**2

    @property
    def compton_length(self) -> float:
        return self.hbar / (self.m * self.c)


NATURAL = UnitSystem()


def _is_power_of_two(n: int) -> bool:
    return n >= 1 and (n & (n - 1)) == 0


@dataclass(frozen=True)
class MomentumGrid:
    """Uniform symmetric momentum lattice p_k = -p_max + k dp.

    n_points must be a power of two (>= 8) so spectral transforms stay
    cheap; the lattice is symmetric about zero up to the single-node
    offset of an even grid.
    """

    n_points: int
    p_max: float

    def __post_init__(self):
        if self.n_points < 8 or not _is_power_of_two(self.n_points):
            raise GridError(
                f"n_points must be a power of two >= 8, got {self.n_points}"
            )
        if self.p_max <= 0:
            raise GridError(f"p_max must be positive, got {self.p_max}")

    @property
    def spacing(self) -> float:
        return 2.0 * self.p_max / self.n_points

    @property
    def nodes(self) -> np.ndarray:
        return -self.p_max + self.spacing * np.arange(self.n_points)

    def __len__(self) -> int:
        return self.n_points


def default_p_max(units: UnitSystem, sigma: float) -> float:
    """Momentum window capturing relativistic tails of a width-sigma packet."""
    return max(20.0 * units.mc, 10.0 * units.hbar / sigma)


@dataclass(frozen=True)
class PhaseSpaceGrid:
    """Momentum axis paired with a uniform position axis.

    Spectral (Fourier-pair) operations additionally require conjugacy,
    dq * dp * n_q = 2 pi hbar, which `conjugate` builds by construction.
    """

    momentum: MomentumGrid
    n_q: int
    q_max: float
    hbar: float = 1.0

    def __post_init__(self):
        if self.n_q < 8 or not _is_power_of_two(self.n_q):
            raise GridError(f"n_q must be a power of two >= 8, got {self.n_q}")
        if self.q_max <= 0:
            raise GridError(f"q_max must be positive, got {self.q_max}")

    @classmethod
    def conjugate(cls, momentum: MomentumGrid, hbar: float = 1.0) -> "PhaseSpaceGrid":
        """Position axis that is the exact discrete Fourier dual of `momentum`."""
        n_q = momentum.n_points
        dq = 2.0 * np.pi * hbar / (momentum.spacing * n_q)
        return cls(momentum=momentum, n_q=n_q, q_max=0.5 * n_q * dq, hbar=hbar)

    @property
    def dq(self) -> float:
        return 2.0 * self.q_max / self.n_q

    @property
    def q_nodes(self) -> np.ndarray:
        return -self.q_max + self.dq * np.arange(self.n_q)

    @property
    def p_nodes(self) -> np.ndarray:
        return self.momentum.nodes

    @property
    def dp(self) -> float:
        return self.momentum.spacing

    @property
    def is_conjugate(self) -> bool:
        target = 2.0 * np.pi * self.hbar
        return abs(self.dq * self.dp * self.n_q - target) <= 1e-9 * target

    def require_conjugate(self):
        if not self.is_conjugate:
            raise ConjugacyError(
                "spectral transform requires dq*dp*n_q = 2*pi*hbar; "
                f"got {self.dq * self.dp * self.n_q:.6g} vs {2 * np.pi * self.hbar:.6g}"
            )


def quadrature(values: np.ndarray, grid: MomentumGrid) -> complex:
    """Integrate sampled values over the momentum grid.

    Periodic Riemann sum = trapezoid rule here; linear in `values`.
    """
    values = np.asarray(values)
    if values.shape[-1] != grid.n_points:
        raise GridError(
            f"values length {values.shape[-1]} != grid length {grid.n_points}"
        )
    return values.sum(axis=-1) * grid.spacing


def phase_space_quadrature(field: np.ndarray, psgrid: PhaseSpaceGrid) -> complex:
    """Integrate a (n_p, n_q) field over dp dq."""
    field = np.asarray(field)
    if field.shape != (psgrid.momentum.n_points, psgrid.n_q):
        raise GridError(
            f"field shape {field.shape} != grid shape "
            f"({psgrid.momentum.n_points}, {psgrid.n_q})"
        )
    return field.sum() * psgrid.dp * psgrid.dq


def centred_dft_size(values: np.ndarray, psgrid: PhaseSpaceGrid) -> int:
    """n of the centred DFT that `values` (n samples on the last axis) take.

    The phases are signs only on conjugate axes of equal length, so
    anything else raises.
    """
    psgrid.require_conjugate()
    n = psgrid.n_q
    if psgrid.momentum.n_points != n or np.shape(values)[-1] != n:
        raise GridError(
            f"expected {n} samples on a square {psgrid.momentum.n_points} x {n} grid, "
            f"got {np.shape(values)[-1]}"
        )
    return n


def fourier_pair(values: np.ndarray, psgrid: PhaseSpaceGrid, direction: str = "forward") -> np.ndarray:
    """Unitary transform between the momentum and position axes.

    forward:  psi(q_m) = (dp / sqrt(2 pi hbar)) sum_k phi(p_k) exp(+i p_k q_m / hbar)
    inverse:  phi(p_k) = (dq / sqrt(2 pi hbar)) sum_m psi(q_m) exp(-i p_k q_m / hbar)

    The forward sign makes the position operator +i hbar d/dp in the
    momentum representation, which is the orientation the phase-space
    correlation kernel exp(-i P q / hbar) assumes (its p-marginal is then
    |psi(q)|^2).  Requires conjugate axes of equal length; the sums are
    centred DFTs (see the module notes), so forward o inverse is the
    identity to machine precision at every n and Parseval holds under
    the grid quadrature weights.  Transforms along the last axis.
    """
    n = centred_dft_size(values, psgrid)
    centred = np.fft.ifftshift(np.asarray(values, dtype=complex), axes=-1)
    if direction == "forward":
        spectrum = (psgrid.dp * n / np.sqrt(2 * np.pi * psgrid.hbar)) * np.fft.ifft(centred)
    elif direction == "inverse":
        spectrum = (psgrid.dq / np.sqrt(2 * np.pi * psgrid.hbar)) * np.fft.fft(centred)
    else:
        raise ValueError(f"direction must be 'forward' or 'inverse', got {direction!r}")
    return np.fft.fftshift(spectrum, axes=-1)
