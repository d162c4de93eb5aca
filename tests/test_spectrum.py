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
