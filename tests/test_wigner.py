import warnings

import numpy as np
import pytest

from fvps import (
    ChargeBranchState,
    ConjugacyError,
    EPS_UNITY,
    MomentumGrid,
    PhaseSpaceGrid,
    eps_factor,
    expectation,
    fine_amplitude,
    gaussian_state,
    interference_gain,
    moments,
    phase_space_quadrature,
    purity_check,
    quadrature,
    reconstruct_kernel,
    wigner_components,
    wigner_even,
    wigner_odd,
)
from fvps.cli import packet_grid
from fvps.wigner import _lattice_amplitude, _pair_product, _q_transform, _root_energy


@pytest.fixture(scope="module")
def packet64():
    grid = MomentumGrid(64, 7.0)
    ps = PhaseSpaceGrid.conjugate(grid)
    st = gaussian_state(grid, sigma=1.0, p_bar=0.5, q_bar=1.0)
    return grid, ps, st


class TestWignerEven:
    def test_integrates_to_one(self, packet64):
        _, ps, st = packet64
        w = wigner_even(st, +1, ps)
        assert phase_space_quadrature(w, ps).real == pytest.approx(1.0, abs=1e-8)

    def test_momentum_marginal(self, packet64):
        grid, ps, st = packet64
        w = wigner_even(st, +1, ps)
        marg = w.sum(axis=1) * ps.dq
        assert np.abs(marg - np.abs(st.phi_plus) ** 2).max() < 1e-8

    def test_matches_analytic_gaussian_with_unity_kernel(self, packet64):
        grid, ps, st = packet64
        w = wigner_even(st, +1, ps, eps_mode=EPS_UNITY)
        P = ps.p_nodes[:, None]
        Q = ps.q_nodes[None, :]
        analytic = (1 / np.pi) * np.exp(-((P - 0.5) ** 2) - (Q - 1.0) ** 2)
        assert np.abs(w - analytic).max() < 1e-10

    def test_matches_double_loop_oracle(self, packet64):
        # independent explicit-loop evaluation of the same discrete definition
        grid, ps, st = packet64
        w = wigner_even(st, +1, ps, eps_mode=EPS_UNITY)
        phi_f = fine_amplitude(st.phi_plus, ps)
        n = grid.n_points
        sel_k = [0, 13, 32, 50]
        sel_m = [0, 17, 33, 63]
        for k in sel_k:
            for m in sel_m:
                acc = 0.0
                for j in range(-(2 * n - 1), 2 * n):
                    ka, kb = 2 * k + j, 2 * k - j
                    if 0 <= ka < 2 * n and 0 <= kb < 2 * n:
                        acc += (
                            np.conj(phi_f[ka])
                            * phi_f[kb]
                            * np.exp(-1j * j * grid.spacing * ps.q_nodes[m])
                        ).real
                acc *= grid.spacing / (2 * np.pi)
                assert w[k, m] == pytest.approx(acc, abs=1e-12)

    def test_nonrelativistic_kernel_is_negligible(self):
        grid = MomentumGrid(512, 0.5)
        ps = PhaseSpaceGrid.conjugate(grid)
        st = gaussian_state(grid, lam=0.01)
        w_rel = wigner_even(st, +1, ps)
        w_unit = wigner_even(st, +1, ps, eps_mode=EPS_UNITY)
        assert np.abs(w_rel - w_unit).max() < 1e-6

    def test_empty_branch_raises(self, packet64):
        _, ps, st = packet64
        with pytest.raises(ValueError):
            wigner_even(st, -1, ps)

    @pytest.mark.parametrize("eps_mode", ["relativistic", EPS_UNITY])
    def test_returns_an_owning_contiguous_field(self, packet64, eps_mode):
        # a `.real` view would keep the twice-as-large complex transform alive
        _, ps, st = packet64
        w = wigner_even(st, +1, ps, eps_mode)
        f = _lattice_amplitude(st.phi_plus, ps)
        if eps_mode == EPS_UNITY:
            bra = ket = f
        else:
            root_e = _root_energy(ps, st.units)
            bra, ket = root_e * f, f / root_e
        assert w.base is None
        assert w.flags.c_contiguous
        assert np.array_equal(w, _q_transform(_pair_product(bra, ket), ps).real)


class TestFineAmplitude:
    def test_equals_input_on_even_sublattice(self):
        # the i^kappa phases are exact table entries, so only the two
        # FFTs' roundoff remains
        grid = packet_grid(2.0, 0.0, 1024)
        st = gaussian_state(grid, lam=2.0)
        f = fine_amplitude(st.phi_plus, PhaseSpaceGrid.conjugate(grid))
        assert np.abs(f[::2] - st.phi_plus).max() <= 1e-14 * np.abs(st.phi_plus).max()

    def test_needs_a_conjugate_grid(self, packet64):
        grid, _, st = packet64
        with pytest.raises(ConjugacyError):
            fine_amplitude(st.phi_plus, PhaseSpaceGrid(grid, n_q=64, q_max=1.0))


class TestWignerOdd:
    def test_single_branch_vanishes(self, packet64):
        _, ps, st = packet64
        assert np.abs(wigner_odd(st, +1, ps)).max() == 0.0

    def test_two_branch_nonzero(self, packet64):
        grid, ps, st = packet64
        mixed = ChargeBranchState(
            grid,
            phi_plus=st.phi_plus / np.sqrt(2),
            phi_minus=st.phi_plus * np.exp(0.3j) / np.sqrt(2),
        )
        w = wigner_odd(mixed, +1, ps)
        assert np.abs(w).max() > 1e-3

    def test_orderings_conjugate_related(self, packet64):
        grid, ps, st = packet64
        mixed = ChargeBranchState(
            grid,
            phi_plus=st.phi_plus / np.sqrt(2),
            phi_minus=np.roll(st.phi_plus, 2) / np.sqrt(2),
        )
        w_plus = wigner_odd(mixed, +1, ps)
        w_minus = wigner_odd(mixed, -1, ps)
        assert np.abs(w_minus + np.conj(w_plus)).max() < 1e-10

    def test_components_container(self, packet64):
        grid, ps, st = packet64
        comp = wigner_components(st, ps)
        assert comp.even_minus is None
        assert np.abs(comp.odd_plus).max() == 0.0
        assert phase_space_quadrature(comp.even_total, ps).real == pytest.approx(1.0, abs=1e-8)


class TestExpectationMoments:
    def test_unit_symbol(self, packet64):
        _, ps, st = packet64
        w = wigner_even(st, +1, ps)
        assert expectation(1.0, w, ps).real == pytest.approx(1.0, abs=1e-8)

    def test_momentum_symbol(self):
        grid = MomentumGrid(128, 1.0)
        ps = PhaseSpaceGrid.conjugate(grid)
        st = gaussian_state(grid, lam=0.1, p_bar=0.3)
        w = wigner_even(st, +1, ps)
        assert expectation(lambda p, q: p, w, ps).real == pytest.approx(0.3, abs=1e-6)

    def test_momentum_symbol_agrees_with_quadrature(self, packet64):
        grid, ps, st = packet64
        w = wigner_even(st, +1, ps)
        sym = expectation(lambda p, q: np.cos(p), w, ps).real
        direct = quadrature(np.cos(grid.nodes) * np.abs(st.phi_plus) ** 2, grid).real
        assert sym == pytest.approx(direct, abs=1e-8)

    def test_minimal_packet_variances(self):
        grid = MomentumGrid(128, 1.0)
        ps = PhaseSpaceGrid.conjugate(grid)
        st = gaussian_state(grid, lam=0.1)  # sigma = 10
        m = moments(wigner_even(st, +1, ps), ps)
        assert m.var_q == pytest.approx(50.0, rel=0.01)
        assert m.var_p == pytest.approx(0.005, rel=0.01)
        assert not m.negative_variance

    @pytest.mark.parametrize("lam, n", [(8.0, 512), (2.0, 1024)])
    def test_symmetric_packet_has_zero_mean_momentum(self, lam, n):
        grid = packet_grid(lam, 0.0, n)
        ps = PhaseSpaceGrid.conjugate(grid)
        m = moments(wigner_even(gaussian_state(grid, lam=lam), +1, ps), ps)
        assert abs(m.mean_p) <= 1e-14 * np.sqrt(m.var_p)

    def test_translation_covariance(self):
        grid = MomentumGrid(256, 12.0)
        ps = PhaseSpaceGrid.conjugate(grid)
        m0 = moments(wigner_even(gaussian_state(grid, sigma=1.0), +1, ps), ps)
        m1 = moments(wigner_even(gaussian_state(grid, sigma=1.0, q_bar=2.0), +1, ps), ps)
        assert m1.mean_q - m0.mean_q == pytest.approx(2.0, abs=1e-10)
        assert m1.var_q == pytest.approx(m0.var_q, abs=1e-10)

    def test_strong_localization_negative_dispersion(self):
        grid = MomentumGrid(512, 72.5)
        ps = PhaseSpaceGrid.conjugate(grid)
        st = gaussian_state(grid, lam=8.0)
        m = moments(wigner_even(st, +1, ps), ps)
        assert m.var_q < 0
        assert m.negative_variance
        # frozen regression baseline for this grid
        assert m.var_q == pytest.approx(-0.013220506996526835, abs=1e-6)

    def test_fig1_qualitative_structure(self):
        # central lobe confined within the characteristic length, with
        # genuine negative (vacuum-structure) ripples concentrated at
        # sub-Compton positions
        grid = MomentumGrid(512, 72.5)
        ps = PhaseSpaceGrid.conjugate(grid)
        st = gaussian_state(grid, lam=8.0)
        w = wigner_even(st, +1, ps)
        qprof = np.abs(w).sum(axis=0)
        half = np.abs(ps.q_nodes[qprof > 0.5 * qprof.max()]).max()
        assert half <= 1.0 / 8.0  # lobe half-width below lambda_c/8
        assert w.min() < -1e-3 * w.max()
        neg = np.abs(np.minimum(w, 0.0)).sum(axis=0)
        q_neg = np.abs(ps.q_nodes[neg > 0.1 * neg.max()]).max()
        assert q_neg < 1.0  # ripples inside one Compton length

    def test_variance_sign_crossover_once(self):
        # var_q(lam) changes sign exactly once on the scanned range
        from fvps.cli import run_wigner

        signs = []
        for lam in (0.5, 1.0, 2.0, 3.0, 4.0, 6.0, 8.0):
            _, _, m = run_wigner(lam, 256)
            signs.append(np.sign(m.var_q))
        flips = np.abs(np.diff(signs)).sum() / 2
        assert flips == 1
        assert signs[0] > 0 and signs[-1] < 0


class TestPurity:
    def test_pure_gaussian_passes(self):
        grid = MomentumGrid(512, 10.0)
        ps = PhaseSpaceGrid.conjugate(grid)
        st = gaussian_state(grid, lam=1.0)
        rep = purity_check(wigner_even(st, +1, ps), ps)
        assert rep.max_deviation < 1e-4

    def test_mixture_fails(self):
        grid = MomentumGrid(256, 10.0)
        ps = PhaseSpaceGrid.conjugate(grid)
        w1 = wigner_even(gaussian_state(grid, sigma=1.0, q_bar=2.0), +1, ps)
        w2 = wigner_even(gaussian_state(grid, sigma=1.0, q_bar=-2.0), +1, ps)
        rep = purity_check(0.5 * (w1 + w2), ps)
        assert rep.max_deviation > 1e-1

    def test_unity_kernel_drives_lhs_to_zero(self):
        grid = MomentumGrid(256, 10.0)
        ps = PhaseSpaceGrid.conjugate(grid)
        st = gaussian_state(grid, lam=1.0)
        rep = purity_check(wigner_even(st, +1, ps, eps_mode=EPS_UNITY), ps)
        assert rep.max_lhs < 1e-6
        # ... while the right-hand side stays finite: the deviation is the RHS itself
        assert rep.max_deviation == pytest.approx(rep.max_rhs, rel=1e-4)
        assert rep.max_rhs > 1e-2

    def test_phase_curvature_small_for_pure_state(self):
        grid = MomentumGrid(512, 10.0)
        ps = PhaseSpaceGrid.conjugate(grid)
        st = gaussian_state(grid, lam=1.0, q_bar=1.0)
        rep = purity_check(wigner_even(st, +1, ps), ps)
        assert rep.phase_curvature_max < 1e-6

    def test_exact_zeros_outside_window_change_nothing(self):
        # kernel rows far outside the window become exact zeros; ln 0 must
        # stay out of the stencils (no RuntimeWarning) and the report must
        # be the one of the unmodified field
        grid = MomentumGrid(128, 10.0)
        ps = PhaseSpaceGrid.conjugate(grid)
        w = wigner_even(gaussian_state(grid, lam=1.0), +1, ps)
        w_zeroed = w.copy()
        w_zeroed[:4] = 0.0
        assert (reconstruct_kernel(w_zeroed, ps)[:4] == 0).all()
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            rep = purity_check(w_zeroed, ps)
        assert rep == purity_check(w, ps)
        assert rep.window_points > 0

    def test_vanishing_kernel_raises(self):
        grid = MomentumGrid(64, 7.0)
        ps = PhaseSpaceGrid.conjugate(grid)
        with pytest.raises(ValueError):
            purity_check(np.zeros((64, 64)), ps)


class TestInterferenceGain:
    def test_no_gain_on_diagonal(self):
        assert interference_gain(1.3, 1.3) == pytest.approx(1.0)

    def test_reference_value(self):
        assert interference_gain(0.0, np.sqrt(3.0)) == pytest.approx(
            3 / (2 * np.sqrt(2)), abs=1e-12
        )

    def test_end_to_end_kernel_amplification(self):
        # superposition of two narrow eigenpackets; reconstructed kernels
        # with and without the spectral weight differ by eps at the lobe
        grid = MomentumGrid(512, 4.0)
        ps = PhaseSpaceGrid.conjugate(grid)
        pa, pb = 0.0, np.sqrt(3.0)
        sig = 20.0
        phi = np.exp(-(sig**2) * (grid.nodes - pa) ** 2 / 2) + np.exp(
            -(sig**2) * (grid.nodes - pb) ** 2 / 2
        )
        phi /= np.sqrt(quadrature(np.abs(phi) ** 2, grid).real)
        st = ChargeBranchState(grid, phi_plus=phi)
        k_rel = reconstruct_kernel(wigner_even(st, +1, ps), ps)
        k_unit = reconstruct_kernel(wigner_even(st, +1, ps, eps_mode=EPS_UNITY), ps)
        off = np.arange(-(ps.n_q // 2 - 1), ps.n_q // 2)
        lobe = np.abs(off) * ps.dp * 0.5 > 0.5
        sub = np.abs(k_unit[:, lobe])
        c_idx, l_idx = np.unravel_index(np.argmax(sub), sub.shape)
        j_idx = np.where(lobe)[0][l_idx]
        ratio = np.abs(k_rel[c_idx, j_idx]) / np.abs(k_unit[c_idx, j_idx])
        p1 = ps.p_nodes[c_idx] + off[j_idx] * ps.dp / 2
        p2 = ps.p_nodes[c_idx] - off[j_idx] * ps.dp / 2
        assert ratio == pytest.approx(interference_gain(p1, p2), abs=1e-6)
        assert abs(ratio - 3 / (2 * np.sqrt(2))) < 1e-3

    def test_eps_exceeds_unity_on_grid(self):
        p = np.linspace(-20, 20, 101)
        assert eps_factor(p[:, None], p[None, :]).min() >= 1.0 - 1e-12
