"""Energy spectrum and the two-momentum kernels weighting phase-space components.

The relativistic dispersion E(p) = sqrt(m^2 c^4 + c^2 p^2) induces a pair of
kernels on momentum pairs,

    eps(p1, p2) = (E1 + E2) / (2 sqrt(E1 E2))   >= 1, symmetric,
    chi(p1, p2) = (E1 - E2) / (2 sqrt(E1 E2)),  antisymmetric,

with eps^2 - chi^2 = 1 identically.  eps weights the charge-diagonal
(observable) phase-space components and acts as an amplifier for
interference terms between energy eigenstates; chi weights the
charge-off-diagonal components.  Two independent validations pin these
forms down elsewhere in the package:

* mixed log-derivative identity:  d^2/dp1 dp2 [ln eps] equals the
  pure-state criterion right-hand side `purity_rhs` (exactly, see below);
* the doubled-space matrix oracle (`opmatrix`) reproduces them as the
  charge-diagonal/off-diagonal reduction of even/odd operator parts.

Sign convention: chi(p1, p2) >= 0 when E(p1) >= E(p2).

The magnetic (Landau) problem replaces E(p) by the discrete spectrum
E_n(p_z) = m c^2 sqrt(1 + (p_z/mc)^2 + (2n+1) b), b = hbar*omega/(m c^2),
and the same eps evaluated on neighbouring level energies becomes the
ladder deformation function f(n).
"""

from dataclasses import dataclass

import numpy as np

from .grids import NATURAL, UnitSystem

# The kernel weighting the charge-diagonal transform (`wigner.wigner_even`'s
# eps_mode and the command line's --eps-mode): eps below, or 1.
EPS_RELATIVISTIC = "relativistic"
EPS_UNITY = "unity"


@dataclass(frozen=True)
class EnergyModel:
    """Free-particle or constant-magnetic-field energy spectrum.

    b is the dimensionless field strength hbar*omega/(m c^2) with
    omega = e B / (m c); only this combination enters any observable.
    """

    units: UnitSystem = NATURAL
    kind: str = "free"
    b: float = 0.0

    def __post_init__(self):
        if self.kind not in ("free", "landau"):
            raise ValueError(f"kind must be 'free' or 'landau', got {self.kind!r}")
        if not 0.0 <= self.b < np.inf:
            raise ValueError(f"field strength b must be finite and >= 0, got {self.b}")

    @classmethod
    def free(cls, units: UnitSystem = NATURAL) -> "EnergyModel":
        return cls(units=units, kind="free")

    @classmethod
    def landau(cls, b: float, units: UnitSystem = NATURAL) -> "EnergyModel":
        return cls(units=units, kind="landau", b=b)

    @property
    def omega(self) -> float:
        """Cyclotron frequency, b * m c^2 / hbar."""
        return self.b * self.units.mc2 / self.units.hbar


def energy(p, units: UnitSystem = NATURAL):
    """Free-particle energy sqrt(m^2 c^4 + c^2 p^2); even and >= m c^2."""
    return _energy(np.asarray(p, dtype=float), units)


def _energy(p, units: UnitSystem):
    """`energy` of a float array, for worker threads, which call no public function."""
    return np.hypot(units.mc2, units.c * p)


def eps_from_energies(e1, e2):
    """Symmetric kernel (E1+E2)/(2 sqrt(E1 E2)) on a pair of energies."""
    e1 = np.asarray(e1, dtype=float)
    e2 = np.asarray(e2, dtype=float)
    return (e1 + e2) / (2.0 * np.sqrt(e1 * e2))


def chi_from_energies(e1, e2):
    """Antisymmetric kernel (E1-E2)/(2 sqrt(E1 E2)) on a pair of energies."""
    e1 = np.asarray(e1, dtype=float)
    e2 = np.asarray(e2, dtype=float)
    return (e1 - e2) / (2.0 * np.sqrt(e1 * e2))


def eps_factor(p1, p2, units: UnitSystem = NATURAL):
    """Interference-amplification kernel on momentum pairs; 1 on the diagonal."""
    return eps_from_energies(energy(p1, units), energy(p2, units))


def chi_factor(p1, p2, units: UnitSystem = NATURAL):
    """Charge-off-diagonal kernel on momentum pairs; 0 on the diagonal."""
    return chi_from_energies(energy(p1, units), energy(p2, units))


def purity_rhs(p1, p2, units: UnitSystem = NATURAL):
    """Right-hand side of the pure-state criterion.

    -c^4 p1 p2 / (E1 E2 (E1+E2)^2): symmetric, vanishes when either
    momentum is zero, nonpositive for p1*p2 > 0.  Equals the mixed second
    derivative of ln eps(p1, p2), which is how the closed form of eps is
    validated.
    """
    p1 = np.asarray(p1, dtype=float)
    p2 = np.asarray(p2, dtype=float)
    e1 = energy(p1, units)
    e2 = energy(p2, units)
    return -(units.c**4) * p1 * p2 / (e1 * e2 * (e1 + e2) ** 2)


def landau_energy(n, p_z, model: EnergyModel):
    """Level energy m c^2 sqrt(1 + (p_z/mc)^2 + (2n+1) b) of the magnetic problem.

    Strictly increasing in n; the level spacing decreases with n for
    b > 0, which is the anharmonicity driving the orbit-radius
    modulation.
    """
    n = np.asarray(n)
    if np.any(n < 0):
        raise ValueError("level index n must be >= 0")
    if model.kind != "landau":
        raise ValueError("landau_energy requires a landau EnergyModel")
    u = model.units
    p_z = np.asarray(p_z, dtype=float)
    return u.mc2 * np.sqrt(1.0 + (p_z / u.mc) ** 2 + (2.0 * n + 1.0) * model.b)


def deformation_f(n, model: EnergyModel, p_z: float = 0.0):
    """Ladder deformation f(n) = eps(E_{n-1}, E_n) on the Landau spectrum.

    Defined for n >= 1 (it only ever multiplies sqrt(n)); f >= 1 and
    f -> 1 in the weak-field limit, where the ladder is undeformed.
    """
    n = np.asarray(n)
    if np.any(n < 1):
        raise ValueError("deformation_f is defined for n >= 1 only")
    return eps_from_energies(
        landau_energy(n - 1, p_z, model), landau_energy(n, p_z, model)
    )
