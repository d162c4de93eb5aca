import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from fvps import (
    ConjugacyError,
    GridError,
    MomentumGrid,
    PhaseSpaceGrid,
    UnitSystem,
    default_p_max,
    fourier_pair,
    quadrature,
)


class TestUnitSystem:
    def test_natural_defaults(self):
        u = UnitSystem()
        assert u.compton_length == 1.0
        assert u.mc2 == 1.0

    def test_compton_length(self):
        u = UnitSystem(m=2.0, c=3.0, hbar=1.5)
        assert u.compton_length == pytest.approx(1.5 / 6.0)

    @pytest.mark.parametrize("bad", [dict(m=0), dict(c=-1), dict(hbar=0)])
    def test_rejects_nonpositive(self, bad):
        with pytest.raises(ValueError):
            UnitSystem(**bad)


class TestMomentumGrid:
    def test_nodes_symmetric_up_to_offset(self):
        g = MomentumGrid(64, 5.0)
        assert g.nodes[0] == -5.0
        assert g.nodes[-1] == pytest.approx(5.0 - g.spacing)
        assert abs(g.nodes + np.flip(g.nodes)).max() <= g.spacing

    @pytest.mark.parametrize("n", [7, 12, 4, 100])
    def test_rejects_bad_sizes(self, n):
        with pytest.raises(GridError):
            MomentumGrid(n, 1.0)

    def test_default_p_max_covers_tails(self):
        u = UnitSystem()
        assert default_p_max(u, sigma=1.0) == 20.0
        assert default_p_max(u, sigma=0.05) == pytest.approx(200.0)


class TestQuadrature:
    def test_constant_gives_interval_width(self):
        g = MomentumGrid(128, 10.0)
        val = quadrature(np.ones(128), g)
        assert val == pytest.approx(20.0, abs=g.spacing)

    def test_normalized_gaussian(self):
        g = MomentumGrid(128, 10.0)
        vals = np.exp(-g.nodes**2 / 2) / np.sqrt(2 * np.pi)
        assert quadrature(vals, g) == pytest.approx(1.0, abs=1e-12)

    def test_odd_function_vanishes(self):
        g = MomentumGrid(256, 6.0)
        vals = g.nodes * np.exp(-g.nodes**2)
        assert abs(quadrature(vals, g)) < 1e-14

    def test_length_mismatch(self):
        g = MomentumGrid(64, 1.0)
        with pytest.raises(GridError):
            quadrature(np.ones(63), g)

    def test_refinement_invariance(self):
        # smooth decaying integrand: refinement changes the value only at
        # quadrature-error level
        coarse = MomentumGrid(128, 12.0)
        fine = MomentumGrid(256, 12.0)
        f = lambda p: np.exp(-p**2 / 3) * np.cos(p)
        v1 = quadrature(f(coarse.nodes), coarse)
        v2 = quadrature(f(fine.nodes), fine)
        assert v1 == pytest.approx(v2, abs=coarse.spacing**2)

    @given(
        a=st.floats(-5, 5, allow_nan=False),
        b=st.floats(-5, 5, allow_nan=False),
    )
    @settings(max_examples=25, deadline=None)
    def test_linearity(self, a, b):
        g = MomentumGrid(64, 3.0)
        f1 = np.exp(-g.nodes**2)
        f2 = np.cos(g.nodes) * np.exp(-abs(g.nodes))
        lhs = quadrature(a * f1 + b * f2, g)
        rhs = a * quadrature(f1, g) + b * quadrature(f2, g)
        assert lhs == pytest.approx(rhs, rel=1e-12, abs=1e-12)


class TestFourierPair:
    def setup_method(self):
        self.grid = MomentumGrid(256, 16.0)
        self.ps = PhaseSpaceGrid.conjugate(self.grid)

    def test_conjugacy_flag(self):
        assert self.ps.is_conjugate
        bad = PhaseSpaceGrid(self.grid, n_q=256, q_max=1.0)
        assert not bad.is_conjugate
        with pytest.raises(ConjugacyError):
            fourier_pair(np.ones(256), bad)

    def test_needs_equal_axis_lengths(self):
        # conjugate, but the centred DFT's phases are signs only on a square grid
        wide = PhaseSpaceGrid(self.grid, n_q=512, q_max=256 * 2 * np.pi / (512 * self.grid.spacing))
        assert wide.is_conjugate
        for direction, length in (("forward", 256), ("inverse", 512)):
            with pytest.raises(GridError, match="square"):
                fourier_pair(np.ones(length), wide, direction)

    @pytest.mark.parametrize("n", [256, 4096])
    def test_round_trip_identity(self, n):
        # the centred DFT evaluates no phase ramp, so the error stays at a
        # few ulps instead of growing linearly in n
        ps = PhaseSpaceGrid.conjugate(MomentumGrid(n, 16.0))
        rng = np.random.default_rng(7)
        v = rng.normal(size=n) + 1j * rng.normal(size=n)
        back = fourier_pair(fourier_pair(v, ps), ps, "inverse")
        assert np.abs(back - v).max() < 1e-14

    def test_parseval(self):
        rng = np.random.default_rng(8)
        v = rng.normal(size=256) + 1j * rng.normal(size=256)
        fwd = fourier_pair(v, self.ps)
        lhs = (np.abs(fwd) ** 2).sum() * self.ps.dq
        rhs = (np.abs(v) ** 2).sum() * self.grid.spacing
        assert lhs == pytest.approx(rhs, rel=1e-10)

    def test_single_spike_flat_magnitude(self):
        v = np.zeros(256)
        v[100] = 1.0
        fwd = fourier_pair(v, self.ps)
        mags = np.abs(fwd)
        assert mags.std() < 1e-12 * mags.mean()

    def test_gaussian_width_pairing(self):
        sigma = 1.7
        phi = np.exp(-(sigma**2) * self.grid.nodes**2 / 2)
        psi = fourier_pair(phi, self.ps)
        prof = np.abs(psi) ** 2
        var = (prof * self.ps.q_nodes**2).sum() / prof.sum()
        # conjugate Gaussian has position variance sigma^2/2
        assert var == pytest.approx(sigma**2 / 2, rel=1e-10)

    def test_position_operator_orientation(self):
        # phi ~ exp(-i qbar p) must transform to a packet centered at +qbar
        qbar = 2.5
        phi = np.exp(-self.grid.nodes**2 / 2 - 1j * qbar * self.grid.nodes)
        psi = np.abs(fourier_pair(phi, self.ps)) ** 2
        center = (psi * self.ps.q_nodes).sum() / psi.sum()
        assert center == pytest.approx(qbar, abs=1e-8)
