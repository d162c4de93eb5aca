import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from fvps import (
    NATURAL,
    MomentumGrid,
    PairState,
    displaced_number_state,
    overlap_penalty,
    pair_energy,
    penalty_curve,
    quadrature,
)
from fvps.pairs import _mode_kinetic


class TestPairEnergy:
    def test_fermi_coincident_is_mode_sum(self):
        # hbar^2/(4 m sigma^2) + 3 hbar^2/(4 m sigma^2)
        e = pair_energy(PairState(0.0, 0.0, 1.0, "fermi"), "nonrel")
        assert e == pytest.approx(1.0, abs=1e-10)

    def test_fermi_far_separation_is_twice_single(self):
        e = pair_energy(PairState(0.0, 10.0, 1.0, "fermi"), "nonrel")
        assert e == pytest.approx(0.5, abs=1e-6)

    def test_statistics_coincide_when_separated(self):
        ef = pair_energy(PairState(0.0, 10.0, 1.0, "fermi"), "nonrel")
        eb = pair_energy(PairState(0.0, 10.0, 1.0, "bose"), "nonrel")
        assert abs(ef - eb) < 1e-10

    @given(
        c1=st.floats(-3, 3, allow_nan=False),
        c2=st.floats(-3, 3, allow_nan=False),
    )
    @settings(max_examples=20, deadline=None)
    @pytest.mark.parametrize("statistics", ["bose", "fermi"])
    def test_exchange_symmetry(self, c1, c2, statistics):
        e12 = pair_energy(PairState(c1, c2, 1.0, statistics))
        e21 = pair_energy(PairState(c2, c1, 1.0, statistics))
        assert e12 == pytest.approx(e21, rel=1e-12, abs=1e-12)

    @pytest.mark.parametrize("model", ["rel", "nonrel"])
    @pytest.mark.parametrize("d", [1e-8, 1e-6, 1e-4])
    def test_nearly_coincident_fermions(self, d, model):
        # the energy is even in d and smooth through d = 0 (its change is
        # O(d^2 / sigma^2)); the overlap form's 0/0 cancellation read
        # 0.74101 against 0.741154 at d = 1e-6 sigma and 0.25 at 1e-8 sigma
        e0 = pair_energy(PairState(0.0, 0.0, 1.0, "fermi"), model)
        e12 = pair_energy(PairState(0.3, 0.3 + d, 1.0, "fermi"), model)
        e21 = pair_energy(PairState(0.3 + d, 0.3, 1.0, "fermi"), model)
        assert e12 == e21
        assert abs(e12 - e0) <= max(d**2, 1e-12)

    @pytest.mark.parametrize("d", [0.3, 0.8, 1.5, 3.0])
    def test_pauli_cost_nonnegative(self, d):
        ef = pair_energy(PairState(0.0, d, 1.0, "fermi"), "nonrel")
        eb = pair_energy(PairState(0.0, d, 1.0, "bose"), "nonrel")
        assert ef >= eb

    def test_coincident_limit_continuous(self):
        e_lim = pair_energy(PairState(0.0, 0.0, 1.0, "fermi"), "nonrel")
        e_near = pair_energy(PairState(0.0, 1e-4, 1.0, "fermi"), "nonrel")
        assert e_lim == pytest.approx(e_near, abs=1e-7)

    def test_coincident_limit_matches_displaced_number_construction(self):
        # two independent pipelines: pairwise orthogonalized limit vs the
        # states-module Hermite modes
        grid = MomentumGrid(512, 30.0)
        total = 0.0
        for n in (0, 1):
            mode = displaced_number_state(n, grid, sigma=1.0)
            prof = np.abs(mode.phi_plus) ** 2
            total += quadrature(grid.nodes**2 / 2 * prof, grid).real
        e_pair = pair_energy(PairState(0.0, 0.0, 1.0, "fermi"), "nonrel")
        assert e_pair == pytest.approx(total, abs=1e-8)

    def test_rejects_bad_statistics(self):
        with pytest.raises(ValueError):
            PairState(0.0, 1.0, 1.0, "maxwell")

    @pytest.mark.parametrize("value", [np.nan, np.inf, -np.inf])
    @pytest.mark.parametrize("field", ["q1", "q2", "sigma"])
    def test_rejects_non_finite_fields(self, field, value):
        # these came back from pair_energy as a silent nan
        args = {"q1": 0.0, "q2": 1.0, "sigma": 1.0} | {field: value}
        with pytest.raises(ValueError, match="must be finite"):
            PairState(**args)

    def test_rejects_overflowing_separation(self):
        with pytest.raises(ValueError, match="separation must be finite"):
            PairState(-1e308, 1e308, 1.0)


class TestOverlapPenalty:
    def test_nonrel_closed_form(self):
        assert overlap_penalty(1.0, "nonrel") == pytest.approx(0.5, abs=1e-10)
        assert overlap_penalty(2.0, "nonrel") == pytest.approx(0.125, abs=1e-10)

    def test_relativistic_softening_at_compton_scale(self):
        rel = overlap_penalty(1.0, "rel")
        assert rel < 0.5
        assert 0.3 < rel < 0.45
        # frozen regression value
        assert rel == pytest.approx(0.34046029514993914, abs=1e-9)

    def test_ratio_approaches_one_for_wide_packets(self):
        ratio = overlap_penalty(50.0, "rel") / overlap_penalty(50.0, "nonrel")
        assert ratio == pytest.approx(1.0, abs=0.01)

    def test_strong_softening_below_compton(self):
        ratio = overlap_penalty(0.1, "rel") / overlap_penalty(0.1, "nonrel")
        assert ratio < 0.5

    def test_mode_gap_equals_pair_energy_difference(self):
        near = pair_energy(PairState(0.0, 0.0, 1.3, "fermi"), "rel")
        far = pair_energy(PairState(0.0, 13.0, 1.3, "fermi"), "rel")
        assert overlap_penalty(1.3, "rel") == pytest.approx(near - far, abs=1e-6)


class TestPenaltyCurve:
    def test_relativistic_below_nonrelativistic_everywhere(self):
        table = penalty_curve([0.25, 0.5, 1.0, 2.0, 5.0, 20.0])
        for _, nonrel, rel in table.rows():
            assert rel < nonrel

    def test_columns_monotone(self):
        table = penalty_curve([0.25, 0.5, 1.0, 2.0, 5.0])
        for model in table.models:
            assert np.all(np.diff(table.columns[model]) < 0)

    def test_large_sigma_scaling(self):
        sigmas = [10.0, 20.0, 40.0]
        table = penalty_curve(sigmas)
        for model in table.models:
            expo = np.polyfit(np.log(sigmas), np.log(table.columns[model]), 1)[0]
            assert expo == pytest.approx(-2.0, abs=0.05)

    def test_rejects_nonpositive_sigma(self):
        with pytest.raises(ValueError):
            penalty_curve([1.0, -0.5])

    def test_width_past_overflow_raises_not_nan(self):
        # outside the command line no floating-point policy raises; the
        # packet's vanishing norm must still not come back as nan
        with np.errstate(all="ignore"), pytest.raises(ValueError, match="not finite and positive"):
            penalty_curve([1e-160])


class TestModeKinetic:
    def test_ground_mode_nonrel(self):
        assert _mode_kinetic(0, "nonrel", 1.0, NATURAL) == pytest.approx(0.25, abs=1e-10)

    def test_first_mode_nonrel(self):
        assert _mode_kinetic(1, "nonrel", 1.0, NATURAL) == pytest.approx(0.75, abs=1e-10)
