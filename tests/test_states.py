import numpy as np
import pytest

from fvps import (
    ChargeBranchState,
    CoherentSpec,
    EnergyModel,
    MomentumGrid,
    PhaseSpaceGrid,
    ResolutionError,
    TruncationError,
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
from fvps.states import state_metadata_json, state_to_csv


class TestGaussianState:
    def test_lambda8_momentum_width(self):
        grid = MomentumGrid(512, 60.0)
        st = gaussian_state(grid, lam=8.0)
        prof = np.abs(st.phi_plus) ** 2
        std = np.sqrt(quadrature(grid.nodes**2 * prof, grid).real)
        assert std == pytest.approx(8.0 / np.sqrt(2), rel=0.01)

    def test_unit_charge_norm(self):
        grid = MomentumGrid(256, 12.0)
        st = gaussian_state(grid, sigma=1.0, p_bar=0.5, q_bar=-1.0)
        assert st.charge_norm == pytest.approx(1.0, abs=1e-10)
        assert st.is_physical

    def test_minus_branch(self):
        grid = MomentumGrid(256, 12.0)
        st = gaussian_state(grid, sigma=1.0, branch=-1)
        assert st.phi_plus is None
        assert st.charge_norm == pytest.approx(-1.0, abs=1e-10)
        assert st.is_physical

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

    def test_sigma_lam_exclusive(self):
        grid = MomentumGrid(256, 12.0)
        with pytest.raises(ValueError):
            gaussian_state(grid, sigma=1.0, lam=1.0)
        with pytest.raises(ValueError):
            gaussian_state(grid)


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
        assert st.is_physical  # one branch, unit charge norm
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


class TestSerialization:
    def test_csv_and_json(self, tmp_path):
        grid = MomentumGrid(64, 7.0)
        st = gaussian_state(grid, sigma=1.0)
        csv_path = tmp_path / "state.csv"
        json_path = tmp_path / "state.json"
        state_to_csv(st, csv_path, metadata={"sigma": 1.0})
        state_metadata_json(st, json_path)
        text = csv_path.read_text()
        assert text.startswith("# charge_norm=")
        assert "# sigma=1.0" in text
        import json

        meta = json.loads(json_path.read_text())
        assert meta["n_points"] == 64
        assert meta["branches"] == [1]

    def test_charge_norm_header_reads_back_as_a_number(self, tmp_path):
        st = gaussian_state(MomentumGrid(64, 7.0), sigma=1.0)
        assert type(st.charge_norm) is float
        csv_path = tmp_path / "state.csv"
        state_to_csv(st, csv_path)
        first = csv_path.read_text().splitlines()[0]
        key, _, value = first.partition("=")
        assert key == "# charge_norm"
        assert float(value) == st.charge_norm

    def test_metadata_json_ends_in_newline(self, tmp_path):
        json_path = tmp_path / "state.json"
        state_metadata_json(gaussian_state(MomentumGrid(64, 7.0), sigma=1.0), json_path)
        assert json_path.read_text().endswith("}\n")

    def test_mixed_branch_state_not_physical(self):
        grid = MomentumGrid(64, 7.0)
        st = gaussian_state(grid, sigma=1.0)
        mixed = ChargeBranchState(
            grid, phi_plus=st.phi_plus / np.sqrt(2), phi_minus=st.phi_plus / np.sqrt(2)
        )
        assert not mixed.is_physical
