import tracemalloc

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from fvps import (
    ChargeBranchState,
    GridError,
    MomentumGrid,
    PhaseSpaceGrid,
    PolySymbol,
    StepSizeError,
    anti_moyal_bracket,
    bracket_with_energy,
    classical_limit_gap,
    energy,
    evolve_even,
    evolve_odd,
    evolve_timestep_reference,
    gaussian_state,
    moments,
    moyal_bracket,
    phase_space_quadrature,
    poisson_bracket,
    star_product,
    wigner_even,
    wigner_odd,
)
from fvps.moyal import _bracket_multiplier, propagator_phases


def band1d(seed, n, kmax=3):
    rng = np.random.default_rng(seed)
    c = np.zeros(n, dtype=complex)
    for a in range(-kmax, kmax + 1):
        c[a % n] = rng.normal() + 1j * rng.normal()
    return np.fft.ifft(c).real


def band2d(seed, n, kmax=3):
    rng = np.random.default_rng(seed)
    c = np.zeros((n, n), dtype=complex)
    for a in range(-kmax, kmax + 1):
        for b in range(-kmax, kmax + 1):
            c[a % n, b % n] = rng.normal() + 1j * rng.normal()
    return np.fft.ifft2(c).real.astype(complex)


@pytest.fixture(scope="module")
def smallgrid():
    grid = MomentumGrid(32, np.pi)
    return PhaseSpaceGrid.conjugate(grid)


class TestPolyStar:
    def test_canonical_first_order(self):
        qp = star_product(PolySymbol.q(), PolySymbol.p())
        assert qp.coeffs[1, 1] == pytest.approx(1.0)
        assert qp.coeffs[0, 0] == pytest.approx(0.5j, abs=1e-10)

    def test_canonical_bracket_exact(self):
        mb = moyal_bracket(PolySymbol.q(), PolySymbol.p())
        assert mb.coeffs.shape == (1, 1) or np.count_nonzero(mb.coeffs) == 1
        assert mb.coeffs[0, 0] == pytest.approx(1.0)

    def test_quadratic_bracket_is_classical(self):
        p2 = star_product(PolySymbol.p(), PolySymbol.p())
        mb = moyal_bracket(p2, PolySymbol.q())
        # expect -2p
        expect = PolySymbol(np.array([[0.0, -2.0]]))
        diff = (mb - expect).coeffs
        assert np.abs(diff).max() < 1e-10

    def test_anti_bracket_of_canonical_pair(self):
        ab = anti_moyal_bracket(PolySymbol.q(), PolySymbol.p())
        # (q*p + p*q)/2 = qp, the i hbar/2 terms cancel
        assert ab.coeffs[1, 1] == pytest.approx(1.0)
        assert abs(ab.coeffs[0, 0]) < 1e-12

    def test_constant_is_identity(self, smallgrid):
        p3 = star_product(PolySymbol.constant(1.0), PolySymbol.p() * 3.0)
        assert np.abs((p3 - PolySymbol.p() * 3.0).coeffs).max() < 1e-14

    def test_evaluate_on_grid(self, smallgrid):
        s = PolySymbol.q() * PolySymbol.q() + PolySymbol.p() * 2.0
        field = s.sample(smallgrid)
        direct = smallgrid.q_nodes[None, :] ** 2 + 2.0 * smallgrid.p_nodes[:, None]
        assert np.abs(field - direct).max() < 1e-12


class TestFieldStar:
    def test_identity_symbol(self, smallgrid):
        b = band2d(2, 32)
        one = np.ones((32, 32), dtype=complex)
        assert np.abs(star_product(one, b, smallgrid) - b).max() < 1e-14

    def test_associativity_band_limited(self, smallgrid):
        a, b, c = band2d(1, 32), band2d(2, 32), band2d(3, 32)
        lhs = star_product(star_product(a, b, smallgrid), c, smallgrid)
        rhs = star_product(a, star_product(b, c, smallgrid), smallgrid)
        assert np.abs(lhs - rhs).max() < 1e-8

    def test_small_hbar_pointwise_product(self, smallgrid):
        a, b = band2d(4, 32), band2d(5, 32)
        prod = star_product(a, b, smallgrid, hbar=1e-7)
        assert np.abs(prod - a * b).max() < 1e-10

    def test_scalar_poisson_limit_order_two(self, smallgrid):
        a, b = band2d(1, 32), band2d(2, 32)
        pb = poisson_bracket(a, b, smallgrid)
        hbars = [1e-1, 3e-2, 1e-2, 3e-3, 1e-3]
        gaps = [
            np.abs(moyal_bracket(a, b, smallgrid, hbar=hb) - pb).max() for hb in hbars
        ]
        slope = np.polyfit(np.log(hbars), np.log(gaps), 1)[0]
        assert slope == pytest.approx(2.0, abs=0.1)

    def test_requires_grid(self):
        with pytest.raises(GridError):
            star_product(np.ones((8, 8)), np.ones((8, 8)))

    def test_grid_mismatch(self, smallgrid):
        with pytest.raises(GridError):
            star_product(np.ones((16, 16), dtype=complex), np.ones((16, 16), dtype=complex), smallgrid)

    def test_poly_symbol_with_sampled_field(self, smallgrid):
        with pytest.raises(GridError):
            star_product(PolySymbol.q(), band2d(1, 32), smallgrid)
        with pytest.raises(GridError):
            star_product(band2d(1, 32), PolySymbol.p(), smallgrid)

    def test_three_by_three_symbols_contract_every_entry(self, smallgrid):
        a = np.array([[band2d(10 + 3 * i + k, 32) for k in range(3)] for i in range(3)])
        b = np.array([[band2d(20 + 3 * k + l, 32) for l in range(3)] for k in range(3)])
        star = star_product(a, b, smallgrid, hbar=0.7)
        pb = poisson_bracket(a, b, smallgrid)
        for i in range(3):
            for l in range(3):
                want_star = sum(star_product(a[i, k], b[k, l], smallgrid, hbar=0.7) for k in range(3))
                want_pb = sum(poisson_bracket(a[i, k], b[k, l], smallgrid) for k in range(3))
                assert np.abs(star[i, l] - want_star).max() < 1e-12 * np.abs(want_star).max()
                assert np.abs(pb[i, l] - want_pb).max() < 1e-12 * np.abs(want_pb).max()


class TestClassicalLimitGap:
    hbars = [1e-1, 3e-2, 1e-2, 3e-3, 1e-3]

    def test_commuting_matrices_reach_poisson(self, smallgrid):
        fq = band1d(7, 32)[None, :] * np.ones((32, 1))
        gp = band1d(8, 32)[:, None] * np.ones((1, 32))
        a = np.einsum("ij,pq->ijpq", np.diag([1.0, 2.0]), fq).astype(complex)
        b = np.einsum("ij,pq->ijpq", np.eye(2), gp).astype(complex)
        rep = classical_limit_gap(a, b, smallgrid, self.hbars)
        assert rep.exponent == pytest.approx(2.0, abs=0.2)
        assert rep.classical_limit_attained

    def test_noncommuting_matrices_diverge(self, smallgrid):
        sx = np.array([[0.0, 1.0], [1.0, 0.0]])
        sy = np.array([[0.0, -1j], [1j, 0.0]])
        fq = band1d(7, 32)[None, :] * np.ones((32, 1))
        gp = band1d(8, 32)[:, None] * np.ones((1, 32))
        a = np.einsum("ij,pq->ijpq", sx, fq).astype(complex)
        b = np.einsum("ij,pq->ijpq", sy, gp).astype(complex)
        rep = classical_limit_gap(a, b, smallgrid, self.hbars)
        assert rep.exponent == pytest.approx(-1.0, abs=0.2)
        assert not rep.classical_limit_attained

    def test_equal_symbols_zero_bracket(self, smallgrid):
        sx = np.array([[0.0, 1.0], [1.0, 0.0]])
        fq = band1d(7, 32)[None, :] * np.ones((32, 1))
        a = np.einsum("ij,pq->ijpq", sx, fq).astype(complex)
        rep = classical_limit_gap(a, a, smallgrid, self.hbars)
        assert rep.exponent is None
        assert max(rep.gaps) < 1e-14

    @pytest.mark.parametrize("hbars", [[1e-2], [], [1e-2, 1e-2], [1e-2, 0.0], [1e-2, -1e-3], [1e-2, np.nan], [1e-2, np.inf]])
    def test_scan_needs_two_distinct_finite_positive_hbars(self, smallgrid, hbars):
        a = band2d(1, 32)[None, None] * np.ones((2, 2, 1, 1))
        with pytest.raises(ValueError, match="at least two distinct finite positive"):
            classical_limit_gap(a, a.conj(), smallgrid, hbars)


class TestHbarArguments:
    @pytest.mark.parametrize("hbar", [np.nan, np.inf, -np.inf])
    def test_non_finite_hbar_raises(self, smallgrid, hbar):
        a, b = band2d(1, 32), band2d(2, 32)
        for product in (star_product, moyal_bracket, anti_moyal_bracket):
            with pytest.raises(ValueError, match="hbar must be finite"):
                product(a, b, smallgrid, hbar=hbar)
            with pytest.raises(ValueError, match="hbar must be finite"):
                product(PolySymbol.q(), PolySymbol.p(), hbar=hbar)

    def test_zero_hbar_bracket_raises(self, smallgrid):
        with pytest.raises(ValueError, match="finite and nonzero, got 0.0"):
            moyal_bracket(band2d(1, 32), band2d(2, 32), smallgrid, hbar=0.0)
        with pytest.raises(ValueError, match="finite and nonzero"):
            moyal_bracket(PolySymbol.q(), PolySymbol.p(), hbar=0.0)

    def test_zero_hbar_star_is_pointwise(self, smallgrid):
        a, b = band2d(4, 32), band2d(5, 32)
        assert np.abs(star_product(a, b, smallgrid, hbar=0.0) - a * b).max() < 1e-13
        qp = star_product(PolySymbol.q(), PolySymbol.p(), hbar=0.0)
        assert np.array_equal(qp.coeffs, np.array([[0.0, 0.0], [0.0, 1.0]]))
        assert np.abs(anti_moyal_bracket(a, b, smallgrid, hbar=0.0) - a * b).max() < 1e-13


# tracemalloc peaks of the sampled star product at the benchmark's sizes,
# measured as 1.52 MB (a scalar 64 x 64 product) and 3.05 MB (the Moyal
# bracket of two 2 x 2 symbols on 32 x 32, two products); each bound adds
# ~15 % margin.  The whole-array contraction, five (m, m, n_q, n_q, n_p)
# arrays, peaked at 16.9 and 8.5 MB.
STAR_MEMORY_BOUNDS_MB = {"star-64": 1.75, "bracket-2x2-32": 3.5}


def test_star_product_memory_stays_below_bounds():
    ps64 = PhaseSpaceGrid.conjugate(MomentumGrid(64, 4.0))
    ps32 = PhaseSpaceGrid.conjugate(MomentumGrid(32, 4.0))
    a, b = band2d(1, 64), band2d(2, 64)
    sa = np.array([[band2d(10 + 2 * i + k, 32) for k in range(2)] for i in range(2)])
    sb = np.array([[band2d(20 + 2 * k + l, 32) for l in range(2)] for k in range(2)])
    products = {
        "star-64": lambda: star_product(a, b, ps64),
        "bracket-2x2-32": lambda: moyal_bracket(sa, sb, ps32),
    }
    peaks = {}
    for name, product in products.items():
        tracemalloc.start()
        try:
            product()
            peaks[name] = tracemalloc.get_traced_memory()[1] / 1e6
        finally:
            tracemalloc.stop()
    assert all(peaks[name] < bound for name, bound in STAR_MEMORY_BOUNDS_MB.items()), peaks


@pytest.fixture(scope="module")
def packet():
    grid = MomentumGrid(256, 20.0)
    ps = PhaseSpaceGrid.conjugate(grid)
    st = gaussian_state(grid, lam=2.0)
    w0 = wigner_even(st, +1, ps)
    return grid, ps, st, w0


class TestEvolveEven:
    def test_time_zero_identity(self, packet):
        _, ps, _, w0 = packet
        assert np.abs(evolve_even(w0, energy, 0.0, ps) - w0).max() < 1e-14

    def test_matches_amplitude_pipeline(self, packet):
        grid, ps, st, w0 = packet
        w_prop = evolve_even(w0, energy, 5.0, ps)
        phi_t = st.phi_plus * np.exp(-1j * energy(grid.nodes) * 5.0)
        w_wave = wigner_even(ChargeBranchState(grid, phi_plus=phi_t), +1, ps)
        assert np.abs(w_prop - w_wave).max() < 1e-8

    @pytest.mark.parametrize("extra_rows, extra_cols", [(1, 0), (-1, 0), (0, 2)])
    def test_field_of_another_shape_raises(self, packet, extra_rows, extra_cols):
        # evolved one block of grid rows at a time, rows to spare would be lost
        _, ps, _, w0 = packet
        n_p, n_q = w0.shape
        with pytest.raises(GridError, match="does not match grid"):
            evolve_even(np.zeros((n_p + extra_rows, n_q + extra_cols)), energy, 1.0, ps)

    def test_composition(self, packet):
        _, ps, _, w0 = packet
        w_ab = evolve_even(evolve_even(w0, energy, 2.0, ps), energy, 3.0, ps)
        w_c = evolve_even(w0, energy, 5.0, ps)
        assert np.abs(w_ab - w_c).max() < 1e-12

    def test_mass_conserved(self, packet):
        _, ps, _, w0 = packet
        w_t = evolve_even(w0, energy, 7.3, ps)
        assert phase_space_quadrature(w_t, ps).real == pytest.approx(
            phase_space_quadrature(w0, ps).real, abs=1e-12
        )

    def test_nonrelativistic_drift(self):
        grid = MomentumGrid(512, 0.5)
        ps = PhaseSpaceGrid.conjugate(grid)
        st = gaussian_state(grid, lam=0.01, p_bar=0.3)
        w0 = wigner_even(st, +1, ps)
        w1 = evolve_even(w0, lambda p: p**2 / 2, 1.0, ps)
        drift = moments(w1, ps).mean_q - moments(w0, ps).mean_q
        assert drift == pytest.approx(0.3, abs=1e-4)

    def test_propagator_blind_to_initial_theory(self, packet):
        # identical phases whatever field they are applied to: the
        # difference between theories lives only in the initial data
        _, ps, _, _ = packet
        ph1 = propagator_phases(energy, 3.0, ps, "even")
        ph2 = propagator_phases(energy, 3.0, ps, "even")
        assert np.array_equal(ph1, ph2)

    def test_unity_kernel_initial_data_evolves_identically(self, packet):
        grid, ps, st, _ = packet
        from fvps import EPS_UNITY

        w_unit = wigner_even(st, +1, ps, eps_mode=EPS_UNITY)
        w_t = evolve_even(w_unit, energy, 5.0, ps)
        phi_t = st.phi_plus * np.exp(-1j * energy(grid.nodes) * 5.0)
        w_wave = wigner_even(
            ChargeBranchState(grid, phi_plus=phi_t), +1, ps, eps_mode=EPS_UNITY
        )
        assert np.abs(w_t - w_wave).max() < 1e-8


    def test_composition_on_a_random_field_without_nyquist_column(self):
        # only the unpaired Nyquist column (kappa = -pi/dq) breaks the
        # group law; with it removed any real field composes
        ps = PhaseSpaceGrid.conjugate(MomentumGrid(64, 8.0))
        w0 = np.random.default_rng(0).normal(size=(64, 64))
        w0 = np.fft.irfft(np.fft.rfft(w0, axis=1)[:, :32], 64, axis=1)
        w_ab = evolve_even(evolve_even(w0, energy, 2.0, ps), energy, 3.0, ps)
        assert np.abs(w_ab - evolve_even(w0, energy, 5.0, ps)).max() <= 1e-13 * np.abs(w0).max()


# a momentum window of 12 hbar / sigma + |p_bar| + 0.5 leaves the Nyquist
# column at roundoff (packet_grid's 9 hbar / sigma leaves ~1e-9 of the
# spectrum there, and composition then holds to ~4e-11 of max |W|); at
# n = 256 it resolves the packet (dp < hbar / 4 sigma) for lam > 0.05
packets = dict(lam=st.floats(0.15, 8.0), p_bar=st.floats(-0.5, 0.5), q_bar=st.floats(-1.0, 1.0))
times = st.floats(-5.0, 5.0)


def resolved_packet(lam, p_bar, q_bar):
    ps = PhaseSpaceGrid.conjugate(MomentumGrid(256, 12.0 * lam + abs(p_bar) + 0.5))
    return ps, wigner_even(gaussian_state(ps.momentum, lam=lam, p_bar=p_bar, q_bar=q_bar), +1, ps)


@settings(max_examples=25, deadline=None, derandomize=True)
@given(t1=times, t2=times, **packets)
def test_evolution_composes_in_t(lam, p_bar, q_bar, t1, t2):
    ps, w0 = resolved_packet(lam, p_bar, q_bar)
    w_ab = evolve_even(evolve_even(w0, energy, t1, ps), energy, t2, ps)
    assert np.abs(w_ab - evolve_even(w0, energy, t1 + t2, ps)).max() <= 1e-12 * np.abs(w0).max()


@settings(max_examples=25, deadline=None, derandomize=True)
@given(t=times, **packets)
def test_evolution_reverses(lam, p_bar, q_bar, t):
    ps, w0 = resolved_packet(lam, p_bar, q_bar)
    back = evolve_even(evolve_even(w0, energy, t, ps), energy, -t, ps)
    assert np.abs(back - w0).max() <= 1e-12 * np.abs(w0).max()


@settings(max_examples=25, deadline=None, derandomize=True)
@given(t=times, **packets)
def test_evolution_conserves_norm_and_mean_momentum(lam, p_bar, q_bar, t):
    ps, w0 = resolved_packet(lam, p_bar, q_bar)
    w_t = evolve_even(w0, energy, t, ps)
    assert phase_space_quadrature(w_t, ps).real == pytest.approx(phase_space_quadrature(w0, ps).real, abs=1e-12)
    assert moments(w_t, ps).mean_p == pytest.approx(moments(w0, ps).mean_p, abs=1e-12 * ps.momentum.p_max)


class TestEvolveOdd:
    def test_matches_amplitude_pipeline(self, packet):
        grid, ps, st, _ = packet
        mixed = ChargeBranchState(
            grid,
            phi_plus=st.phi_plus / np.sqrt(2),
            phi_minus=np.roll(st.phi_plus, 3) / np.sqrt(2),
        )
        w0 = wigner_odd(mixed, -1, ps)
        w_prop = evolve_odd(w0, energy, 5.0, ps)
        evolved = ChargeBranchState(
            grid,
            phi_plus=mixed.phi_plus * np.exp(-1j * energy(grid.nodes) * 5.0),
            phi_minus=mixed.phi_minus * np.exp(+1j * energy(grid.nodes) * 5.0),
        )
        w_wave = wigner_odd(evolved, -1, ps)
        assert np.abs(w_prop - w_wave).max() < 1e-8

    def test_other_ordering_via_conjugation(self, packet):
        grid, ps, st, _ = packet
        mixed = ChargeBranchState(
            grid,
            phi_plus=st.phi_plus / np.sqrt(2),
            phi_minus=np.roll(st.phi_plus, 3) / np.sqrt(2),
        )
        w_plus = wigner_odd(mixed, +1, ps)
        w_minus = wigner_odd(mixed, -1, ps)
        # evolve the -1 ordering, map back through W_- = -conj(W_+)
        w_minus_t = evolve_odd(w_minus, energy, 4.0, ps)
        w_plus_t = -np.conj(w_minus_t)
        evolved = ChargeBranchState(
            grid,
            phi_plus=mixed.phi_plus * np.exp(-1j * energy(grid.nodes) * 4.0),
            phi_minus=mixed.phi_minus * np.exp(+1j * energy(grid.nodes) * 4.0),
        )
        assert np.abs(w_plus_t - wigner_odd(evolved, +1, ps)).max() < 1e-8


class TestBracketWithEnergy:
    def test_even_generator_matches_propagator_derivative(self, packet):
        _, ps, _, w0 = packet
        dt = 1e-6
        ddt = (evolve_even(w0, energy, dt, ps) - evolve_even(w0, energy, -dt, ps)) / (2 * dt)
        br = bracket_with_energy(energy, w0, ps, kind="moyal")
        assert np.abs(ddt - br.real).max() < 1e-6

    def test_odd_generator_with_anti_bracket(self, packet):
        grid, ps, st, _ = packet
        mixed = ChargeBranchState(
            grid,
            phi_plus=st.phi_plus / np.sqrt(2),
            phi_minus=np.roll(st.phi_plus, 3) / np.sqrt(2),
        )
        w0 = wigner_odd(mixed, -1, ps)
        dt = 1e-6
        ddt = (evolve_odd(w0, energy, dt, ps) - evolve_odd(w0, energy, -dt, ps)) / (2 * dt)
        anti = bracket_with_energy(energy, w0, ps, kind="anti")
        assert np.abs(ddt - (-2j) * anti).max() < 1e-6

    def test_consistent_with_field_star_product(self):
        # the exact mode-shift path agrees with the generic spectral star
        # for a band-limited energy-like symbol of p alone
        grid = MomentumGrid(32, np.pi)
        ps = PhaseSpaceGrid.conjugate(grid)
        e_field = (np.cos(grid.nodes) + 2.0)[:, None] * np.ones((1, 32)) + 0j
        w = band2d(11, 32)
        brack_fast = bracket_with_energy(
            lambda p: np.cos(p) + 2.0, w, ps, kind="moyal"
        )
        brack_star = moyal_bracket(e_field, w, ps, hbar=1.0)
        assert np.abs(brack_fast - brack_star).max() < 1e-10


class TestTimestepReference:
    def setup_method(self):
        self.grid = MomentumGrid(128, 5.0)
        self.ps = PhaseSpaceGrid.conjugate(self.grid)
        st = gaussian_state(self.grid, sigma=2.0, p_bar=0.5)
        self.w0 = wigner_even(st, +1, self.ps)
        self.efn = lambda p: p**2 / 2

    def test_time_zero_identity(self):
        out = evolve_timestep_reference(self.w0, self.efn, 0.0, 1, self.ps)
        assert np.abs(out - self.w0).max() < 1e-14

    def test_converges_to_exact(self):
        exact = evolve_even(self.w0, self.efn, 2.0, self.ps)
        approx = evolve_timestep_reference(self.w0, self.efn, 2.0, 1000, self.ps)
        assert np.abs(approx - exact).max() < 1e-6

    def test_second_order(self):
        exact = evolve_even(self.w0, self.efn, 2.0, self.ps)
        e1 = np.abs(evolve_timestep_reference(self.w0, self.efn, 2.0, 400, self.ps) - exact).max()
        e2 = np.abs(evolve_timestep_reference(self.w0, self.efn, 2.0, 800, self.ps) - exact).max()
        assert e1 / e2 == pytest.approx(4.0, rel=0.2)

    def test_stability_guard(self):
        with pytest.raises(StepSizeError):
            evolve_timestep_reference(self.w0, self.efn, 100.0, 2, self.ps)


def _real_space_midpoint(w, energy_fn, t, steps, psgrid):
    """The midpoint loop in real space: two position-axis FFT pairs per step."""
    mult, dt = _bracket_multiplier(energy_fn, psgrid), t / steps
    field = w.astype(complex)
    for _ in range(steps):
        k1 = np.fft.ifft(np.fft.fft(field, axis=1) * mult, axis=1)
        field = field + dt * np.fft.ifft(np.fft.fft(field + 0.5 * dt * k1, axis=1) * mult, axis=1)
    return field.real


@pytest.mark.parametrize("steps", [400, 800])
def test_timestep_reference_matches_real_space_loop(steps):
    # criterion 4's case: the stepper's one product of R(z) factors in
    # mode space is the loop's 2 * steps FFT round trips up to roundoff
    ps = PhaseSpaceGrid.conjugate(MomentumGrid(128, 5.0))
    w0 = wigner_even(gaussian_state(ps.momentum, sigma=2.0, p_bar=0.5), +1, ps)
    efn = lambda p: p**2 / 2
    modes = evolve_timestep_reference(w0, efn, 2.0, steps, ps)
    loop = _real_space_midpoint(w0, efn, 2.0, steps, ps)
    assert np.abs(modes - loop).max() <= 1e-15
    exact = evolve_even(w0, efn, 2.0, ps)
    errors = [np.abs(x - exact).max() for x in (modes, loop)]
    assert errors[0] == pytest.approx(errors[1], rel=1e-7)


def test_timestep_reference_growth_bound(smallgrid, monkeypatch):
    # at dt * max|mult| = 1 a mode grows by 1.25^(1/2) a step: 20 steps
    # stay below 10x, 21 exceed it and raise before any FFT is taken
    efn = lambda p: p**2 / 2
    mult = _bracket_multiplier(efn, smallgrid)
    max_omega = np.abs(mult).max()
    w = np.random.default_rng(5).normal(size=(32, 32, 2)) @ [1.0, 1.0j]  # weight in every mode
    out = evolve_timestep_reference(w, efn, 20 / max_omega, 20, smallgrid)
    gain = np.abs(np.fft.fft(out, axis=1) / np.fft.fft(w, axis=1))
    y = np.abs(mult) / max_omega
    assert gain.max() <= 10.0
    np.testing.assert_allclose(gain, (1 + y**4 / 4) ** 10, rtol=1e-12)

    def no_fft(*args, **kwargs):
        raise AssertionError("FFT taken before the growth bound was checked")

    monkeypatch.setattr(np.fft, "fft", no_fft)
    monkeypatch.setattr(np.fft, "ifft", no_fft)
    with pytest.raises(StepSizeError, match="field grew by >10x"):
        evolve_timestep_reference(w, efn, 21 / max_omega, 21, smallgrid)


def _counted(energy_fn):
    """energy_fn and the list of the node counts it was called with."""
    calls = []

    def counted(p):
        calls.append(np.size(p))
        return energy_fn(p)

    return counted, calls


EXACT_PROPAGATOR_CALLS = {
    "evolve_even": lambda e, w, t, ps: evolve_even(w.real, e, t, ps),
    "evolve_odd": lambda e, w, t, ps: evolve_odd(w, e, t, ps),
    "phases_even": lambda e, w, t, ps: propagator_phases(e, t, ps, "even"),
    "phases_odd": lambda e, w, t, ps: propagator_phases(e, t, ps, "odd"),
    "timestep_reference": lambda e, w, t, ps: evolve_timestep_reference(w, e, t, 7, ps),
}


@pytest.mark.parametrize(
    "run",
    [
        *EXACT_PROPAGATOR_CALLS.values(),
        lambda e, w, t, ps: bracket_with_energy(e, w, ps),
        lambda e, w, t, ps: bracket_with_energy(e, w, ps, "anti"),
    ],
    ids=[*EXACT_PROPAGATOR_CALLS, "bracket_moyal", "bracket_anti"],
)
def test_energy_is_evaluated_once_per_call(smallgrid, run):
    # the mode multiplier is built once per call; the midpoint stepper
    # reuses it on every step rather than rebuilding it twice per step
    counted, calls = _counted(lambda p: p**2 / 2)
    w = band2d(3, 32) + 1j * band2d(4, 32)
    run(counted, w, 0.01, smallgrid)
    assert len(calls) == 1


@pytest.mark.parametrize("t", [np.nan, np.inf, -np.inf])
@pytest.mark.parametrize("run", EXACT_PROPAGATOR_CALLS.values(), ids=list(EXACT_PROPAGATOR_CALLS))
def test_non_finite_time_raises(smallgrid, run, t):
    # t = nan used to return an all-NaN field, and t = inf made the
    # stepper's own StepSizeError message overflow
    w = band2d(3, 32) + 1j * band2d(4, 32)
    with pytest.raises(ValueError, match="t must be finite"):
        run(lambda p: p**2 / 2, w, t, smallgrid)
