import os
import re
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

import fvps
from fvps import (
    ChargeBranchState,
    CoherentSpec,
    EnergyModel,
    FockExpansion,
    MomentumGrid,
    PhaseSpaceGrid,
    ResolutionError,
    TruncationError,
    UnitSystem,
    build_hamiltonian,
    charge_invariant,
    displaced_number_state,
    even_ladder,
    even_part,
    free_coherent_state,
    gaussian_state,
    momentum_kernel,
    position_kernel,
    quadrature,
    rotator_coherent_state,
    sign_operator,
)
from fvps.rotator import RotatorModel
from fvps.states import _as_state, _check_resolution, momentum_grid


class TestGaussianState:
    def test_leaves_numpy_polynomial_unloaded(self):
        # every number state is built by one recurrence: a fresh process
        # that builds a packet and an n = 1 state (the one `entangle`
        # builds) must not pay for importing numpy.polynomial
        code = (
            "import sys; from fvps import MomentumGrid, displaced_number_state, gaussian_state; "
            "gaussian_state(MomentumGrid(256, 12.0), sigma=1.0); displaced_number_state(1, MomentumGrid(256, 12.0), 1.0); "
            "print(sorted(m for m in sys.modules if m.startswith('numpy.polynomial')))"
        )
        env = {**os.environ, "PYTHONPATH": str(Path(fvps.__file__).resolve().parents[1])}
        run = subprocess.run([sys.executable, "-c", code], env=env, capture_output=True, text=True, timeout=60)
        assert run.returncode == 0, run.stderr
        assert run.stdout.strip() == "[]"

    @pytest.mark.parametrize("n", range(13))
    def test_number_state_matches_hermval(self, n):
        # numpy's hermval referees the recurrence: the same bytes for
        # n <= 2, where both do the same operations, and 1e-14 of the
        # amplitude's peak above (2.1e-15 measured at n <= 12)
        grid = MomentumGrid(512, 24.0)
        p = grid.nodes
        want = np.polynomial.hermite.hermval(0.7 * (p - 0.4), np.eye(n + 1)[n]) * np.exp(
            -(0.7**2) * (p - 0.4) ** 2 / 2.0 - 1j * -1.3 * p
        )
        want /= np.sqrt(quadrature(np.abs(want) ** 2, grid).real)
        got = displaced_number_state(n, grid, 0.7, q_bar=-1.3, p_bar=0.4).phi_plus
        if n <= 2:
            assert got.tobytes() == want.tobytes()
        else:
            assert np.abs(got - want).max() <= 1e-14 * np.abs(want).max()

    def test_lambda8_momentum_width(self):
        grid = MomentumGrid(512, 60.0)
        st = gaussian_state(grid, lam=8.0)
        prof = np.abs(st.phi_plus) ** 2
        std = np.sqrt(quadrature(grid.nodes**2 * prof, grid).real)
        assert std == pytest.approx(8.0 / np.sqrt(2), rel=0.01)

    def test_unit_charge_norm(self):
        grid = MomentumGrid(256, 12.0)
        st = gaussian_state(grid, sigma=1.0, p_bar=0.5, q_bar=-1.0)
        assert st.phi_minus is None
        assert quadrature(np.abs(st.phi_plus) ** 2, grid).real == pytest.approx(1.0, abs=1e-10)

    def test_minus_branch(self):
        grid = MomentumGrid(256, 12.0)
        st = gaussian_state(grid, sigma=1.0, branch=-1)
        assert st.phi_plus is None
        assert -quadrature(np.abs(st.phi_minus) ** 2, grid).real == pytest.approx(-1.0, abs=1e-10)

    def test_nonrelativistic_energy_limit(self):
        grid = MomentumGrid(512, 0.5)
        st = gaussian_state(grid, lam=0.01)  # sigma = 100
        prof = np.abs(st.phi_plus) ** 2
        from fvps import energy

        mean_e = quadrature((energy(grid.nodes) - 1.0) * prof, grid).real
        mean_kin = quadrature(grid.nodes**2 / 2 * prof, grid).real
        assert mean_e == pytest.approx(mean_kin, rel=1e-3)

    def test_position_mean_from_phase(self):
        grid = MomentumGrid(256, 12.0)
        ps = PhaseSpaceGrid.conjugate(grid)
        st = gaussian_state(grid, sigma=1.0, q_bar=3.0)
        q_op = position_kernel(ps)
        mean = quadrature(np.conj(st.phi_plus) * (q_op @ st.phi_plus), grid).real
        assert mean == pytest.approx(3.0, abs=1e-8)

    def test_resolution_guards(self):
        with pytest.raises(ResolutionError):
            gaussian_state(MomentumGrid(32, 2.0), sigma=3.0)  # dp too coarse
        with pytest.raises(ResolutionError):
            gaussian_state(MomentumGrid(512, 2.0), sigma=1.0)  # support exceeds window
        with pytest.raises(ResolutionError, match="use 512 nodes"):
            gaussian_state(MomentumGrid(128, 72.5), lam=8)  # dp = 1.13 meets hbar/(4 sigma) = 2, not 2 pi mc / ln(1e8)

    @pytest.mark.parametrize(
        "build, grid, kwargs",
        [
            (gaussian_state, MomentumGrid(8, 1.0), {"sigma": 1.0}),
            (gaussian_state, MomentumGrid(8, 2.0), {"sigma": 0.5, "p_bar": 3.0}),
            (gaussian_state, MomentumGrid(64, 40.0), {"lam": 8.0}),
            (displaced_number_state, MomentumGrid(8, 1.0), {"n": 4, "sigma": 1.0}),
        ],
        ids=["sigma-1", "p_bar-3", "lam-8", "number-4"],
    )
    def test_a_refusal_on_both_clauses_names_a_grid_that_builds(self, build, grid, kwargs):
        # the window misses the support as well as the spacing rule, so the
        # spacing refusal names a p_max past the support bound and the nodes
        # that p_max needs; rebuilt from those two numbers, the grid builds
        with pytest.raises(ResolutionError, match="past the support bound") as refused:
            build(grid=grid, **kwargs)
        named = re.search(r"use (\d+) nodes on p_max (\S+),", str(refused.value))
        rebuilt = MomentumGrid(int(named.group(1)), float(named.group(2)))
        assert build(grid=rebuilt, **kwargs).grid == rebuilt

    def test_sigma_lam_exclusive(self):
        grid = MomentumGrid(256, 12.0)
        with pytest.raises(ValueError):
            gaussian_state(grid, sigma=1.0, lam=1.0)
        with pytest.raises(ValueError):
            gaussian_state(grid)

    @pytest.mark.parametrize("lam", [0.0, -1.0, np.nan, np.inf])
    def test_bad_lambda_is_a_value_error(self, lam):
        # lam = 0 used to raise ZeroDivisionError, an ArithmeticError the
        # cli reports as a numerical failure; nan built a nan packet
        with pytest.raises(ValueError, match="lam must be finite and positive"):
            gaussian_state(MomentumGrid(256, 12.0), lam=lam)


def resolves(grid, sigma, units):
    # dp < hbar/(4 sigma) resolves the packet, dp <= 2 pi mc / ln(1e8)
    # the eps weight's branch points at +-i mc
    return grid.spacing < units.hbar / (4.0 * sigma) and grid.spacing <= 2.0 * np.pi * units.mc / np.log(1e8)


grid_draws = given(
    sigma=st.floats(1e-4, 1e4),
    p_max=st.floats(1e-3, 1e4),
    units=st.sampled_from([UnitSystem(), UnitSystem(m=1.3, c=0.8, hbar=0.7), UnitSystem(m=2.0, c=3.0)]),
    n_min=st.sampled_from([2**k for k in range(3, 17)]),
)
# spacings exactly at each bound: 0.25 = hbar/(4 sigma) at 128 nodes
# is too coarse, 2 pi mc / ln(1e8) at 64 nodes is fine
at_width_bound = example(sigma=1.0, p_max=16.0, units=UnitSystem(), n_min=8)
at_compton_bound = example(sigma=0.5, p_max=32 * (2.0 * np.pi / np.log(1e8)), units=UnitSystem(), n_min=8)


class TestMomentumGrid:
    @settings(max_examples=200, deadline=None)
    @grid_draws
    @at_width_bound
    @at_compton_bound
    def test_fewest_nodes_that_resolve(self, sigma, p_max, units, n_min):
        # the grid stops at 2^16
        grid = momentum_grid(sigma, p_max, units, n_min=n_min)
        assert grid.p_max == p_max and grid.n_points >= n_min
        assert resolves(grid, sigma, units) or grid.n_points == 2**16
        if grid.n_points > n_min:
            assert not resolves(MomentumGrid(grid.n_points // 2, p_max), sigma, units)

    @settings(max_examples=200, deadline=None)
    @grid_draws
    @at_width_bound
    @at_compton_bound
    def test_builders_hold_every_grid_to_the_sizing_rule(self, sigma, p_max, units, n_min):
        # _check_resolution accepts a grid exactly when it resolves, which is
        # when momentum_grid keeps its n; a refused grid rebuilt at the n the
        # error names (the fewest that resolve) is accepted.  The reach is
        # half the window, so only the spacing can refuse.
        def accepts(grid):
            try:
                _check_resolution(grid, sigma, 0.0, units, reach=0.5 * p_max * sigma / units.hbar)
            except ResolutionError as exc:
                return str(exc)
            return True

        grid, sized = MomentumGrid(n_min, p_max), momentum_grid(sigma, p_max, units, n_min)
        outcome = accepts(grid)
        kept = sized.n_points == n_min and resolves(sized, sigma, units)
        assert (outcome is True) == resolves(grid, sigma, units) == kept
        if outcome is not True:
            named = re.search(r"use (\d+) nodes", outcome)
            assert (named is None) == (not resolves(sized, sigma, units))
            if named is None:
                assert "no grid of up to 2^16 nodes" in outcome
            else:
                n = int(named.group(1))
                assert n <= 2**16 and not resolves(MomentumGrid(n // 2, p_max), sigma, units)
                assert accepts(MomentumGrid(n, p_max)) is True


    def test_a_support_bound_past_the_largest_float_is_refused_for_resolution(self):
        # hbar/sigma overflows at a subnormal sigma, so the window named past
        # the support bound is inf: it is sized at the largest float, where
        # no grid resolves the packet, not handed to MomentumGrid
        with np.errstate(all="ignore"), pytest.raises(ResolutionError, match="no grid of up to 2\\^16 nodes"):
            gaussian_state(MomentumGrid(8, 10.0), sigma=1e-310)

    @settings(max_examples=200, deadline=None)
    @grid_draws
    def test_a_refusal_on_both_clauses_names_a_grid_that_is_accepted(self, sigma, p_max, units, n_min):
        # the reach puts the support bound at twice p_max, so every grid
        # misses it; a spacing refusal names a p_max past it, with the
        # fewest nodes that resolve there (or the cap), and that grid is accepted
        reach = 2.0 * p_max * sigma / units.hbar
        grid = MomentumGrid(n_min, p_max)
        with pytest.raises(ResolutionError) as refused:
            _check_resolution(grid, sigma, 0.0, units, reach)
        outcome = str(refused.value)
        assert ("cannot hold packet support" in outcome) == resolves(grid, sigma, units)
        if resolves(grid, sigma, units):
            return
        named = re.search(r": (?:use (\d+) nodes|no grid of up to 2\^16 nodes does) on p_max (\S+), past the support", outcome)
        wide = float(named.group(2))
        assert wide > 2.0 * p_max
        sized = momentum_grid(sigma, wide, units, n_min)
        assert (named.group(1) is None) == (not resolves(sized, sigma, units))
        if named.group(1) is not None:
            assert int(named.group(1)) == sized.n_points
            _check_resolution(MomentumGrid(sized.n_points, wide), sigma, 0.0, units, reach)


class TestCoherentState:
    def test_alpha_to_centers(self):
        spec = CoherentSpec(alpha=(1 + 1j) / np.sqrt(2), sigma=1.0)
        q_bar, p_bar = spec.centers()
        assert q_bar == pytest.approx(1.0)
        assert p_bar == pytest.approx(1.0)

    def test_vacuum_packet(self):
        grid = MomentumGrid(256, 12.0)
        ps = PhaseSpaceGrid.conjugate(grid)
        st = free_coherent_state(CoherentSpec(alpha=0.0, sigma=1.0), grid)
        prof = np.abs(st.phi_plus) ** 2
        assert abs(quadrature(grid.nodes * prof, grid).real) < 1e-12
        q_op = position_kernel(ps)
        assert abs(quadrature(np.conj(st.phi_plus) * (q_op @ st.phi_plus), grid).real) < 1e-10

    def test_both_defining_conditions_hold_at_once(self):
        # standard first moments read off alpha AND a single-branch state
        grid = MomentumGrid(256, 12.0)
        ps = PhaseSpaceGrid.conjugate(grid)
        from fvps import moments, wigner_even

        alpha = (1.5 - 0.8j) / np.sqrt(2)
        st = free_coherent_state(CoherentSpec(alpha=alpha, sigma=1.0), grid)
        # one branch, unit charge norm
        assert st.phi_minus is None
        assert quadrature(np.abs(st.phi_plus) ** 2, grid).real == pytest.approx(1.0, abs=1e-10)
        m = moments(wigner_even(st, +1, ps), ps)
        assert m.mean_q == pytest.approx(np.sqrt(2) * alpha.real, abs=1e-8)
        assert m.mean_p == pytest.approx(np.sqrt(2) * alpha.imag, abs=1e-8)

    def test_even_annihilation_eigenstate(self):
        # residual of (A_even - alpha) on the embedded positive-branch state
        grid = MomentumGrid(256, 12.0)
        ps = PhaseSpaceGrid.conjugate(grid)
        alpha = 2.0
        st = free_coherent_state(CoherentSpec(alpha=alpha, sigma=1.0), grid)
        h = build_hamiltonian(EnergyModel.free(), grid=grid)
        lam = sign_operator(h)
        from fvps import branch_vectors

        u_plus, _, _ = branch_vectors(h)
        a_kernel = (position_kernel(ps) + 1j * momentum_kernel(grid)) / np.sqrt(2)
        a_even = even_part(charge_invariant(a_kernel, h.basis), lam)
        psi = u_plus @ st.phi_plus
        residual = a_even.mat @ psi - alpha * psi
        # quadrature norm of the residual amplitude
        norm = np.sqrt((np.abs(residual) ** 2).sum() * grid.spacing)
        assert norm < 1e-6


class TestDisplacedNumber:
    def setup_method(self):
        self.grid = MomentumGrid(256, 16.0)

    def test_ground_state_is_coherent_packet(self):
        st0 = displaced_number_state(0, self.grid, sigma=1.0, q_bar=0.5, p_bar=0.3)
        stc = free_coherent_state(
            CoherentSpec(alpha=(0.5 + 1j * 0.3) / np.sqrt(2), sigma=1.0), self.grid
        )
        assert np.abs(st0.phi_plus - stc.phi_plus).max() < 1e-12

    @pytest.mark.parametrize("units", [UnitSystem(), UnitSystem(m=1.3, c=0.8, hbar=0.7)], ids=["natural", "scaled"])
    @pytest.mark.parametrize(
        "sigma,p_bar,q_bar,branch",
        [(1.0, 0.0, 0.0, +1), (0.7, 0.3, 0.0, +1), (1.3, 0.0, -1.5, -1), (0.9, -0.4, 0.5, -1)],
    )
    def test_gaussian_is_number_state_zero(self, units, sigma, p_bar, q_bar, branch):
        g = gaussian_state(self.grid, sigma=sigma, p_bar=p_bar, q_bar=q_bar, branch=branch, units=units)
        n0 = displaced_number_state(0, self.grid, sigma, q_bar, p_bar, branch, units)
        assert np.array_equal(g.branch(branch), n0.branch(branch))

    def test_orthonormal_family(self):
        states = [
            displaced_number_state(n, self.grid, sigma=1.0, q_bar=0.5, p_bar=0.3)
            for n in range(5)
        ]
        gram = np.array(
            [
                [quadrature(np.conj(a.phi_plus) * b.phi_plus, self.grid) for b in states]
                for a in states
            ]
        )
        assert np.abs(gram - np.eye(5)).max() < 1e-10

    def test_first_excited_kinetic_mean(self):
        sigma = 1.3
        st = displaced_number_state(1, self.grid, sigma=sigma)
        kin = quadrature(self.grid.nodes**2 / 2 * np.abs(st.phi_plus) ** 2, self.grid).real
        assert kin == pytest.approx(3 / (4 * sigma**2), abs=1e-8)

    @pytest.mark.parametrize(
        "q_bar,min_fidelity",
        [
            # Poisson weight tail beyond n=8 bounds what the projector can
            # reproduce: 3e-9 at one width, ~2.4e-4 at two widths
            (1.0, 1 - 1e-6),
            (2.0, 1 - 3e-4),
        ],
    )
    def test_completeness_at_desk_scale(self, q_bar, min_fidelity):
        target = gaussian_state(self.grid, sigma=1.0, q_bar=q_bar)
        fidelity = 0.0
        for n in range(9):
            mode = displaced_number_state(n, self.grid, sigma=1.0)
            ov = quadrature(np.conj(mode.phi_plus) * target.phi_plus, self.grid)
            fidelity += abs(ov) ** 2
        assert fidelity > min_fidelity

    def test_rejects_large_n(self):
        with pytest.raises(ValueError):
            displaced_number_state(13, self.grid, sigma=1.0)

    @pytest.mark.parametrize("value", [np.nan, np.inf])
    @pytest.mark.parametrize("name", ["sigma", "q_bar", "p_bar"])
    def test_rejects_non_finite_inputs(self, name, value):
        kwargs = {"sigma": 1.0, "q_bar": 0.0, "p_bar": 0.0, name: value}
        with pytest.raises(ValueError, match="finite"):
            displaced_number_state(0, self.grid, **kwargs)

    def test_rejects_a_packet_whose_norm_underflows(self):
        # p^2 would overflow on every node but p = 0, where the odd Hermite
        # factor vanishes, and the packet would be 0 on the grid; no grid
        # resolves mc at this width, so the spacing rule refuses it first
        grid = MomentumGrid(2048, 1.2e161)
        with np.errstate(all="ignore"), pytest.raises(ResolutionError, match="no grid of up to 2\\^16 nodes"):
            displaced_number_state(3, grid, sigma=1e-160)

    def test_a_zero_amplitude_is_not_normalised(self):
        # no builder's resolved packet reaches this guard; normalising a
        # packet that is 0 on the grid would give nan
        with pytest.raises(ValueError, match="not finite and positive"):
            _as_state(MomentumGrid(8, 1.0), np.zeros(8), +1, UnitSystem())


class TestRotatorCoherent:
    def test_alpha_zero_is_ground_state(self):
        st = rotator_coherent_state(0.0, EnergyModel.landau(1.0), n_max=16)
        assert st.coeffs[0] == pytest.approx(1.0)
        assert np.abs(st.coeffs[1:]).max() == 0.0

    def test_weak_field_reduces_to_standard_coherent(self):
        st = rotator_coherent_state(2.0, EnergyModel.landau(1e-8), n_max=64)
        n = np.arange(65)
        fact = np.cumprod(np.concatenate([[1.0], np.arange(1, 65.0)]))
        ref = 2.0**n / np.sqrt(fact)
        ref = ref / np.sqrt((ref**2).sum())
        assert np.abs(st.coeffs - ref).max() < 1e-6

    def test_eigenstate_of_oracle_ladder(self):
        model = EnergyModel.landau(1.0)
        alpha = 2.0
        st = rotator_coherent_state(alpha, model, n_max=64)
        a, _ = even_ladder(RotatorModel(b=1.0, n_max=65))
        resid = a @ st.coeffs - alpha * st.coeffs
        # truncation row excluded: the matrix cannot see c_{n_max+1}
        assert np.abs(resid[:-1]).max() < 1e-5

    def test_normalized(self):
        st = rotator_coherent_state(1.5 * np.exp(0.4j), EnergyModel.landau(0.5), n_max=64)
        assert np.sum(np.abs(st.coeffs) ** 2) == pytest.approx(1.0, abs=1e-10)

    def test_truncation_error_with_hint(self):
        with pytest.raises(TruncationError) as err:
            rotator_coherent_state(6.0, EnergyModel.landau(1.0), n_max=24)
        assert err.value.suggested_size > 24

    @pytest.mark.parametrize("coeffs", [[np.nan, 0.0], [0.0, np.nan], [1.0, np.inf]])
    def test_non_finite_coefficients_are_not_normalized(self, coeffs):
        # abs(nan - 1) > 1e-10 is False, so the check once accepted a NaN
        with pytest.raises(ValueError, match="not normalized"):
            FockExpansion(np.array(coeffs))


class TestSerialization:
    def test_mixed_branch_state_not_physical(self):
        grid = MomentumGrid(64, 7.0)
        st = gaussian_state(grid, sigma=1.0)
        mixed = ChargeBranchState(
            grid, phi_plus=st.phi_plus / np.sqrt(2), phi_minus=st.phi_plus / np.sqrt(2)
        )
        assert mixed.phi_plus is not None and mixed.phi_minus is not None
