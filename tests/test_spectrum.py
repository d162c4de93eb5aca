from decimal import Decimal, localcontext

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from fvps import (
    EnergyModel,
    UnitSystem,
    chi_factor,
    deformation_f,
    energy,
    eps_factor,
    landau_energy,
    purity_rhs,
)

finite_momenta = st.floats(-50.0, 50.0, allow_nan=False, allow_infinity=False)


# |p| log-spaced from 1e-300 to 1e308 with both signs, 0, and the
# neighbours of 2^27, above which 1 + (p / m c)^2 rounds to its square in
# natural units, and of sqrt(DBL_MAX) ~ 1.34e154, where the square overflows
_EDGES = [x for edge in (2.0**27, np.sqrt(np.finfo(float).max))
          for x in (np.nextafter(edge, 0), edge, np.nextafter(edge, np.inf))]
_MAGNITUDES = np.concatenate([np.geomspace(1e-300, 1e308, 2001), _EDGES])
WIDE_MOMENTA = np.concatenate([[0.0], _MAGNITUDES, -_MAGNITUDES])


def ulp_errors(p, units):
    """|energy(p) - E| in ulps of energy(p), E = sqrt(m^2 c^4 + c^2 p^2) to 50 digits from the float m, c and p."""
    got = energy(p, units)
    with localcontext() as ctx:
        ctx.prec = 50
        m, c = Decimal(units.m), Decimal(units.c)
        return np.array([float(abs(Decimal(float(e)) - (m * m * c**4 + c * c * Decimal(float(x)) ** 2).sqrt())
                               / Decimal(float(np.spacing(e)))) for x, e in zip(p, got)])


class TestEnergy:
    def test_rest_energy(self):
        assert energy(0.0) == pytest.approx(1.0)

    def test_unit_momentum(self):
        assert energy(1.0) == pytest.approx(np.sqrt(2.0))

    def test_ultrarelativistic_asymptote(self):
        p = 1000.0
        assert energy(p) / p == pytest.approx(1.0, abs=1e-3)

    def test_even_and_monotone(self):
        p = np.linspace(0, 30, 200)
        e = energy(p)
        assert np.all(np.diff(e) > 0)
        assert np.allclose(energy(-p), e)

    def test_units_scale(self):
        u = UnitSystem(m=2.0, c=3.0)
        assert energy(0.0, u) == pytest.approx(18.0)

    def test_within_one_ulp_of_exact_in_natural_units(self):
        # measured 0.69 ulp; np.hypot, which it replaced, 0.50
        assert ulp_errors(WIDE_MOMENTA, UnitSystem()).max() <= 1.0

    def test_within_three_ulps_of_exact_in_scaled_units(self):
        # measured 2.38 ulp (np.hypot 1.06): p / m c, m c and m c^2 each round once more
        assert ulp_errors(WIDE_MOMENTA, UnitSystem(m=1.3, c=0.8, hbar=0.7)).max() <= 3.0

    @pytest.mark.parametrize("units", [UnitSystem(), UnitSystem(m=2.0, c=3.0), UnitSystem(m=1e-3, c=7.0)],
                             ids=["natural", "c>1", "mc<1"])
    def test_finite_wherever_hypot_is_without_a_warning(self, units):
        p = np.concatenate([WIDE_MOMENTA, [np.inf, -np.inf, np.nan]])
        with np.errstate(all="raise"):
            e = energy(p, units)
        with np.errstate(all="ignore"):
            reference = np.hypot(units.mc2, units.c * p)
        assert np.array_equal(np.isfinite(e), np.isfinite(reference))
        assert np.array_equal(np.isnan(e), np.isnan(p))


class TestEpsChi:
    def test_eps_diagonal_is_one(self):
        for p in (-3.0, 0.0, 0.7, 12.0):
            assert eps_factor(p, p) == pytest.approx(1.0)

    def test_eps_reference_value(self):
        # E = 1 and 2 at these momenta
        assert eps_factor(0.0, np.sqrt(3.0)) == pytest.approx(3 / (2 * np.sqrt(2)), abs=1e-12)

    def test_eps_mixed_log_derivative_matches_purity_rhs(self):
        h = 1e-4
        le = lambda a, b: np.log(eps_factor(a, b))
        mixed = (le(1 + h, 1 + h) - le(1 + h, 1 - h) - le(1 - h, 1 + h) + le(1 - h, 1 - h)) / (4 * h * h)
        assert mixed == pytest.approx(-1 / 16, abs=1e-6)

    def test_chi_diagonal_and_reference(self):
        assert chi_factor(2.0, 2.0) == pytest.approx(0.0)
        assert chi_factor(0.0, np.sqrt(3.0)) == pytest.approx(-1 / (2 * np.sqrt(2)), abs=1e-12)

    def test_chi_sign_convention(self):
        # chi >= 0 when E(p1) >= E(p2)
        assert chi_factor(3.0, 1.0) > 0
        assert chi_factor(1.0, 3.0) < 0

    @given(p1=finite_momenta, p2=finite_momenta)
    @settings(max_examples=100, deadline=None)
    def test_hyperbolic_identity(self, p1, p2):
        e = eps_factor(p1, p2)
        c = chi_factor(p1, p2)
        assert e * e - c * c == pytest.approx(1.0, abs=1e-12)

    @given(p1=finite_momenta, p2=finite_momenta)
    @settings(max_examples=100, deadline=None)
    def test_eps_exceeds_unity(self, p1, p2):
        assert eps_factor(p1, p2) >= 1.0 - 1e-14

    def test_symmetry_antisymmetry(self):
        rng = np.random.default_rng(0)
        a, b = rng.normal(size=20) * 5, rng.normal(size=20) * 5
        assert np.allclose(eps_factor(a, b), eps_factor(b, a))
        assert np.allclose(chi_factor(a, b), -chi_factor(b, a))


class TestPurityRhs:
    def test_zero_when_either_momentum_zero(self):
        assert purity_rhs(0.0, 5.0) == 0.0
        assert purity_rhs(-2.0, 0.0) == 0.0

    def test_reference_value(self):
        assert purity_rhs(1.0, 1.0) == pytest.approx(-1 / 16)

    def test_sign_flips_with_momentum_product(self):
        assert purity_rhs(1.0, -1.0) == pytest.approx(+1 / 16)
        assert purity_rhs(2.0, 3.0) < 0

    def test_criterion_consistency_on_grid(self):
        # the defining validation of the eps closed form
        h = 1e-4
        p = np.linspace(-4.0, 4.0, 64)
        p1, p2 = np.meshgrid(p, p, indexing="ij")
        le = lambda a, b: np.log(eps_factor(a, b))
        mixed = (
            le(p1 + h, p2 + h) - le(p1 + h, p2 - h) - le(p1 - h, p2 + h) + le(p1 - h, p2 - h)
        ) / (4 * h * h)
        assert np.abs(mixed - purity_rhs(p1, p2)).max() < 1e-6


class TestLandau:
    def setup_method(self):
        self.model = EnergyModel.landau(1.0)

    def test_reference_levels(self):
        assert landau_energy(0, 0.0, self.model) == pytest.approx(np.sqrt(2), abs=1e-12)
        assert landau_energy(1, 0.0, self.model) == pytest.approx(2.0, abs=1e-12)
        assert landau_energy(2, 0.0, self.model) == pytest.approx(np.sqrt(6), abs=1e-12)

    def test_oscillator_limit(self):
        m = EnergyModel.landau(1e-8)
        for n in (0, 1, 5):
            gap = (landau_energy(n, 0.0, m) - 1.0) / (m.units.hbar * m.omega)
            assert gap == pytest.approx(n + 0.5, abs=1e-6)

    def test_spacing_decreases(self):
        e = landau_energy(np.arange(20), 0.0, self.model)
        spacing = np.diff(e)
        assert spacing[0] == pytest.approx(2 - np.sqrt(2), abs=1e-12)
        assert spacing[1] == pytest.approx(np.sqrt(6) - 2, abs=1e-12)
        assert np.all(np.diff(spacing) < 0)

    def test_rejects_negative_level(self):
        with pytest.raises(ValueError):
            landau_energy(-1, 0.0, self.model)

    def test_rejects_negative_field(self):
        with pytest.raises(ValueError):
            EnergyModel.landau(-0.5)

    @pytest.mark.parametrize("b", [np.nan, np.inf])
    def test_rejects_non_finite_field(self, b):
        with pytest.raises(ValueError, match="finite"):
            EnergyModel.landau(b)


class TestDeformation:
    def test_weak_field_limit(self):
        m = EnergyModel.landau(1e-8)
        assert np.abs(deformation_f(np.arange(1, 40), m) - 1.0).max() < 1e-6

    def test_reference_value(self):
        m = EnergyModel.landau(1.0)
        expected = (np.sqrt(2) + 2) / (2 * 2**0.75)
        assert deformation_f(1, m) == pytest.approx(expected, abs=1e-12)

    def test_monotone_decay_to_one(self):
        m = EnergyModel.landau(1.0)
        f = deformation_f(np.arange(1, 65), m)
        assert np.all(f >= 1.0)
        assert np.all(np.diff(f) < 0)
        assert f[-1] < 1.001

    def test_rejects_n_zero(self):
        with pytest.raises(ValueError):
            deformation_f(0, EnergyModel.landau(1.0))
