import importlib.util
import tracemalloc
import warnings

import numpy as np
import pytest

from fvps import (
    GridError,
    MomentumGrid,
    PhaseSpaceGrid,
    ResolutionError,
    ResolutionWarning,
    RotatorModel,
    branch_reduce,
    branch_vectors,
    build_hamiltonian,
    charge_invariant,
    cli,
    deformation_f,
    deformed_commutator,
    even_ladder,
    even_part,
    modulation_depth,
    modulation_spectrum,
    opmatrix,
    orbit_series,
    orbit_series_matrix_oracle,
    position_kernel,
    rotator,
    rotator_coherent_state,
    sign_operator,
    translational_coupling,
)
from test_dense_reference import charge_invariant_even, weak_field_case


def _oracle_ladder(model):
    """(A, A^dag) by the doubled-space oracle: dense sign operator, even part, branch reduction."""
    h = build_hamiltonian(model.energy_model, n_levels=model.n_max)
    lam = sign_operator(h)
    u_plus, _, _ = branch_vectors(h)
    bare = np.diag(np.sqrt(np.arange(1, model.n_max)), 1)
    return tuple(
        branch_reduce(even_part(charge_invariant(k, h.basis), lam), u_plus, u_plus)
        for k in (bare, bare.T)
    )


def _coupling_kernels(model):
    """Joint Hamiltonian and the bare ladder and longitudinal position kernels on (level x p_z)."""
    h = build_hamiltonian(model.energy_model, n_levels=model.n_max, pz_grid=model.pz_grid)
    z_pz = position_kernel(PhaseSpaceGrid.conjugate(model.pz_grid, model.units.hbar))
    a_mode = np.kron(np.diag(np.sqrt(np.arange(1, model.n_max)), 1), np.eye(model.pz_grid.n_points))
    z_mode = np.kron(np.eye(model.n_max), z_pz)
    return h, a_mode, z_mode


def _oracle_coupling(model):
    """Max-entry norm of [A_even, Z_even] with both even parts taken by the dense oracle."""
    h, a_mode, z_mode = _coupling_kernels(model)
    lam = sign_operator(h)
    a_even = even_part(charge_invariant(a_mode, h.basis), lam)
    z_even = even_part(charge_invariant(z_mode, h.basis), lam)
    return float(np.abs(a_even.mat @ z_even.mat - z_even.mat @ a_even.mat).max())


def _dense_coupling(model):
    """Max-entry norm of [A_even, Z_even], both even parts by `charge_invariant_even`, in float64."""
    h, a_mode, z_mode = _coupling_kernels(model)
    a_even, z_even = charge_invariant_even(a_mode, h), charge_invariant_even(z_mode, h)
    return float(np.abs(a_even.mat @ z_even.mat - z_even.mat @ a_even.mat).max())


def _extended_precision_coupling(model):
    """Max-entry norm of [A_even, Z_even] in extended precision, one level block at a time.

    Lambda_j = H_j / sqrt(-det H_j) comes from the charge blocks of
    `build_hamiltonian`'s matrix and each even block is
    K_jk (1 + Lambda_j Lambda_k) / 2, all in np.clongdouble.  A_even is
    block-superdiagonal in level and Z_even block-diagonal, so the
    commutator lives in the (l, l+1) level blocks.
    """
    h, _, _ = _coupling_kernels(model)
    n_pz, m = model.pz_grid.n_points, h.n_modes
    idx = np.arange(m)
    blocks = h.mat.reshape(2, m, 2, m)[:, idx, :, idx].astype(np.clongdouble)
    det = blocks[:, 0, 0] * blocks[:, 1, 1] - blocks[:, 0, 1] * blocks[:, 1, 0]
    lam = (blocks / np.sqrt(-det)[:, None, None]).reshape(model.n_max, n_pz, 2, 2)
    z = position_kernel(PhaseSpaceGrid.conjugate(model.pz_grid, model.units.hbar)).astype(np.clongdouble)

    def even_block(kernel, lam_row, lam_col):
        halves = 0.5 * kernel[:, :, None, None] * (np.eye(2) + lam_row[:, None] @ lam_col[None, :])
        return halves.transpose(2, 0, 3, 1).reshape(2 * n_pz, 2 * n_pz)

    norm = np.longdouble(0.0)
    for level in range(model.n_max - 1):
        a = even_block(np.sqrt(np.longdouble(level + 1)) * np.eye(n_pz), lam[level], lam[level + 1])
        comm = a @ even_block(z, lam[level + 1], lam[level + 1]) - even_block(z, lam[level], lam[level]) @ a
        norm = max(norm, np.abs(comm).max())
    return float(norm)


class TestEvenLadder:
    def test_superdiagonal_ties_to_deformation(self):
        model = RotatorModel(b=1.0, n_max=32)
        a, _ = even_ladder(model)
        n = np.arange(1, 32)
        predicted = np.sqrt(n) * deformation_f(n, model.energy_model)
        assert np.abs(np.diag(a, 1) - predicted).max() < 1e-6

    def test_reference_element(self):
        model = RotatorModel(b=1.0, n_max=16)
        a, _ = even_ladder(model)
        assert abs(a[0, 1]) / np.sqrt(1) == pytest.approx(1.0150517651282178, abs=1e-6)

    def test_annihilates_ground_state(self):
        a, _ = even_ladder(RotatorModel(b=1.0, n_max=16))
        e0 = np.zeros(16)
        e0[0] = 1.0
        assert np.abs(a @ e0).max() < 1e-10

    def test_weak_field_reverts_to_bare_ladder(self):
        a, _ = even_ladder(RotatorModel(b=1e-8, n_max=32))
        bare = np.diag(np.sqrt(np.arange(1, 32.0)), 1)
        assert np.abs(a - bare).max() < 1e-5

    def test_adjoint_pair(self):
        a, adag = even_ladder(RotatorModel(b=0.7, n_max=24))
        assert np.abs(adag - a.conj().T).max() < 1e-10


class TestDeformedCommutator:
    def test_weak_field_identity(self):
        d = deformed_commutator(RotatorModel(b=1e-8, n_max=32))
        assert np.abs(d - 1.0).max() < 1e-5

    def test_first_entry_and_approach_to_one(self):
        model = RotatorModel(b=1.0, n_max=32)
        d = deformed_commutator(model)
        f1 = float(deformation_f(1, model.energy_model))
        assert d[0] == pytest.approx(f1**2, abs=1e-10)
        # deviation from the undeformed value decays monotonically in n
        assert np.all(np.diff(np.abs(d - 1.0)) < 0)

    def test_deviation_grows_with_field(self):
        devs = [
            np.abs(deformed_commutator(RotatorModel(b=b, n_max=32)) - 1.0).max()
            for b in (0.1, 0.5, 1.0, 2.0)
        ]
        assert np.all(np.diff(devs) > 0)


# tracemalloc peaks of `orbit_series`, measured as 0.63 MB (255 gaps, 2048
# samples) and 5.20 MB (criterion 8's b = 1e-4 series, 108 226 samples,
# whose four outputs alone are 3.46 MB); each bound adds ~15 % margin, the
# second less, so that it fails if the phase tables outlive the product
# (5.87 MB).  The direct sum over blocks of 1024 times peaked at 8.44 and
# 5.21 MB.
ORBIT_MEMORY_BOUNDS_MB = {"levels-255": 0.72, "weak-field": 5.8}


class TestOrbitSeries:
    def test_memory_stays_below_bounds(self):
        cases = {
            "levels-255": (RotatorModel(b=0.5, n_max=255), 8.0, 255, 2048.0, 1.0),
            "weak-field": weak_field_case()[:5],
        }
        peaks = {}
        for name, (model, alpha, n_levels, t_max, dt) in cases.items():
            st = rotator_coherent_state(alpha, model.energy_model, n_max=n_levels)
            tracemalloc.start()
            try:
                orbit_series(st, model, t_max=t_max, dt=dt)
                peaks[name] = tracemalloc.get_traced_memory()[1] / 1e6
            finally:
                tracemalloc.stop()
        assert all(peaks[name] < bound for name, bound in ORBIT_MEMORY_BOUNDS_MB.items()), peaks

    def test_linear_spectrum_gives_constant_radius(self):
        model = RotatorModel(b=0.5, n_max=64)
        st = rotator_coherent_state(3.0, model.energy_model, n_max=64)
        ser = orbit_series(st, model, t_max=500.0, dt=1.0, force_linear_spectrum=True)
        rel = (ser.radius.max() - ser.radius.min()) / ser.radius.mean()
        assert rel < 1e-10

    def test_relativistic_modulation(self):
        model = RotatorModel(b=0.5, n_max=64)
        st = rotator_coherent_state(3.0, model.energy_model, n_max=64)
        ser = orbit_series(st, model, t_max=1300.0, dt=1.0)
        assert modulation_depth(ser) > 0.01
        with warnings.catch_warnings():
            warnings.simplefilter("ignore", ResolutionWarning)
            peaks = modulation_spectrum(ser)
        assert peaks
        assert peaks[0].frequency < 0.2 * model.omega

    def test_ground_state_zero_radius(self):
        model = RotatorModel(b=0.5, n_max=16)
        st = rotator_coherent_state(0.0, model.energy_model, n_max=16)
        ser = orbit_series(st, model, t_max=100.0, dt=1.0)
        assert ser.radius.max() == 0.0

    def test_initial_radius_scale(self):
        # r(0) = sqrt(2) l |<A>| ~ sqrt(2) l alpha for modest deformation
        model = RotatorModel(b=0.5, n_max=64)
        st = rotator_coherent_state(3.0, model.energy_model, n_max=64)
        ser = orbit_series(st, model, t_max=10.0, dt=1.0)
        expect = np.sqrt(2.0) * model.ladder_length * 3.0
        assert ser.radius[0] == pytest.approx(expect, rel=0.02)

    def test_first_moment_deviation_recorded(self):
        # the ladder mean at t=0 deviates from alpha only through the
        # deformation; record the magnitude rather than asserting a bound
        model = RotatorModel(b=1.0, n_max=64)
        for alpha in (0.5, 2.0):
            st = rotator_coherent_state(alpha, model.energy_model, n_max=64)
            a, _ = even_ladder(RotatorModel(b=1.0, n_max=len(st.coeffs)))
            mean = np.conj(st.coeffs) @ (a @ st.coeffs)
            assert np.isfinite(mean)
            assert abs(mean) > 0

    def test_matches_matrix_exponential_pipeline(self):
        model = RotatorModel(b=0.5, n_max=48)
        st = rotator_coherent_state(2.0, model.energy_model, n_max=48)
        ser = orbit_series(st, model, t_max=300.0, dt=1.0)
        times = np.array([0.0, 40.0, 121.0, 260.0])
        oracle = orbit_series_matrix_oracle(st, model, times)
        assert np.abs(ser.radius[times.astype(int)] - oracle).max() < 1e-8

    @pytest.mark.parametrize("dt, t_max", [(float("nan"), 100.0), (1.0, float("nan")), (1.0, float("inf"))])
    def test_non_finite_window_rejected(self, dt, t_max):
        model = RotatorModel(b=0.5, n_max=32)
        st = rotator_coherent_state(1.0, model.energy_model, n_max=32)
        with pytest.raises(ValueError, match=r"need finite 0 < dt < t_max"):
            orbit_series(st, model, t_max=t_max, dt=dt)

    def test_undersampled_dt_rejected(self):
        model = RotatorModel(b=0.5, n_max=32)
        st = rotator_coherent_state(1.0, model.energy_model, n_max=32)
        with pytest.raises(ResolutionError):
            orbit_series(st, model, t_max=100.0, dt=5.0)  # period/8 ~ 1.57


class TestModulationSpectrum:
    def _series(self, values, dt=1.0, omega=0.5):
        from fvps.rotator import OrbitSeries

        t = np.arange(len(values)) * dt
        return OrbitSeries(times=t, radius=values, x=values, y=np.zeros_like(values), omega=omega)

    def test_pure_sinusoid_single_peak(self):
        t = np.arange(4096) * 0.5
        freq = 0.11
        ser = self._series(2.0 + 0.3 * np.sin(freq * t), dt=0.5)
        peaks = modulation_spectrum(ser)
        bin_width = 2 * np.pi / (len(t) * 0.5)
        assert abs(peaks[0].frequency - freq) <= bin_width

    def test_constant_series_no_peaks(self):
        ser = self._series(np.full(512, 1.7))
        assert modulation_spectrum(ser) == []

    def test_short_window_warns(self):
        t = np.arange(256) * 1.0
        ser = self._series(1.0 + 0.5 * np.sin(2 * np.pi * t / 200.0))
        with pytest.warns(ResolutionWarning):
            modulation_spectrum(ser)

    @pytest.mark.parametrize("rel_threshold", [float("nan"), float("inf"), -1.0])
    def test_bad_threshold_rejected(self, rel_threshold):
        ser = self._series(2.0 + 0.3 * np.sin(0.11 * np.arange(4096) * 0.5), dt=0.5)
        with pytest.raises(ValueError, match="rel_threshold must be finite and non-negative"):
            modulation_spectrum(ser, rel_threshold=rel_threshold)

    def test_envelope_slows_in_cyclotron_units_as_field_grows(self):
        # protocol: 8 estimated envelope periods, dt = T_c/8, significant
        # peaks = those within 25% of the strongest; frequencies compared
        # in units of omega
        lows = []
        for b in (0.1, 0.5, 1.0):
            model = RotatorModel(b=b, n_max=64)
            st = rotator_coherent_state(3.0, model.energy_model, n_max=64)
            e_mid = np.sqrt(1 + 19.0 * b)
            t_env = 2 * np.pi * e_mid**3 / (3 * b**2)
            ser = orbit_series(st, model, t_max=8 * t_env, dt=2 * np.pi / (8 * model.omega))
            with warnings.catch_warnings():
                warnings.simplefilter("ignore", ResolutionWarning)
                peaks = modulation_spectrum(ser)
            strongest = max(p.amplitude for p in peaks)
            sig = [p.frequency for p in peaks if p.amplitude >= 0.25 * strongest]
            lows.append(min(sig) / model.omega)
        assert lows[0] > lows[1] > lows[2]


class TestTranslationalCoupling:
    pz = MomentumGrid(32, 6.0)

    def test_weak_field_decoupled(self):
        nrm = translational_coupling(RotatorModel(b=1e-8, n_max=8, pz_grid=self.pz))
        assert nrm < 1e-4

    def test_strong_field_coupled(self):
        nrm = translational_coupling(RotatorModel(b=1.0, n_max=8, pz_grid=self.pz))
        assert nrm > 1e-3

    def test_monotone_in_field(self):
        norms = [
            translational_coupling(RotatorModel(b=b, n_max=8, pz_grid=self.pz))
            for b in (0.1, 0.5, 1.0)
        ]
        assert norms[0] < norms[1] < norms[2]

    def test_requires_pz_grid(self):
        with pytest.raises(GridError):
            translational_coupling(RotatorModel(b=1.0, n_max=8))

    @pytest.mark.parametrize("b", [1e-8, 0.5, 1.0])
    def test_even_parts_have_exact_charge_block_form(self, b):
        # the mode-space closed form of the coupling rests on this charge-block form
        h, a_mode, z_mode = _coupling_kernels(RotatorModel(b=b, n_max=16, pz_grid=self.pz))
        m = h.n_modes
        for kernel in (a_mode, z_mode):
            even = charge_invariant_even(kernel, h).mat
            assert np.array_equal(even[m:, m:], even[:m, :m])
            assert np.array_equal(even[m:, :m], even[:m, m:])

    @pytest.mark.parametrize(
        "b, referee",
        [(1e-8, _extended_precision_coupling), (0.5, _dense_coupling), (1.0, _dense_coupling)],
        ids=["1e-08", "0.5", "1.0"],
    )
    def test_matches_full_size_commutator(self, b, referee):
        # criterion-9 size (joint dimension 1024); at b = 1e-8 the norm is ~7e-9
        # and the float64 dense commutator is itself ~2e-15 from the extended-
        # precision one, twice the absolute floor, so the latter referees there
        model = RotatorModel(b=b, n_max=16, pz_grid=self.pz)
        assert translational_coupling(model) == pytest.approx(referee(model), rel=1e-12, abs=1e-15)

    @pytest.mark.parametrize("b", [0.5, 1.0])
    def test_converged_beyond_the_doubled_space_cap(self, b):
        # 64 levels x 128 p_z is a doubled dimension of 16384, past MAX_DOUBLED_DIM
        coarse = translational_coupling(RotatorModel(b=b, n_max=16, pz_grid=self.pz))
        fine = translational_coupling(RotatorModel(b=b, n_max=64, pz_grid=MomentumGrid(128, 6.0)))
        assert fine == pytest.approx(coarse, rel=1e-12)


class TestClosedFormsAgainstOracle:
    @pytest.mark.parametrize("n_max", [32, 256])
    @pytest.mark.parametrize("b", [1e-8, 0.5, 1.0])
    def test_ladder(self, b, n_max):
        model = RotatorModel(b=b, n_max=n_max)
        a, adag = even_ladder(model)
        a_oracle, adag_oracle = _oracle_ladder(model)
        assert np.abs(a - a_oracle).max() <= 1e-11
        assert np.abs(adag - adag_oracle).max() <= 1e-11

    def test_oracle_commutator_is_diagonal(self):
        model = RotatorModel(b=1.0, n_max=128)
        a, adag = _oracle_ladder(model)
        comm = a @ adag - adag @ a
        assert np.abs(comm - np.diag(np.diag(comm))).max() <= 1e-10
        assert np.abs(np.diag(comm).real[:-1] - deformed_commutator(model)).max() <= 1e-10

    @pytest.mark.parametrize("b", [1e-8, 1.0])
    def test_translational_coupling(self, b):
        # criterion-9 size: joint dimension 16 levels x 32 p_z = 1024
        model = RotatorModel(b=b, n_max=16, pz_grid=MomentumGrid(32, 6.0))
        assert abs(translational_coupling(model) - _oracle_coupling(model)) <= 1e-12

    def test_production_paths_skip_the_oracle(self, monkeypatch):
        def refuse(*args, **kwargs):
            raise AssertionError("dense oracle called on a production path")

        targets = [
            (module, name)
            for module in (opmatrix, rotator)
            for name in ("sign_operator", "build_hamiltonian", "charge_invariant_even")
        ]
        targets += [(np.linalg, "eig"), (np.linalg, "inv"), (np.linalg, "solve")]
        if importlib.util.find_spec("scipy") is not None:
            import scipy.linalg

            targets += [(scipy.linalg, "eig"), (scipy.linalg, "inv"), (scipy.linalg, "solve")]
        for module, name in targets:
            # raising=False: a name the module does not import is refused all the same
            monkeypatch.setattr(module, name, refuse, raising=False)
        model = RotatorModel(b=0.5, n_max=32, pz_grid=MomentumGrid(8, 4.0))
        even_ladder(model)
        deformed_commutator(model)
        st = rotator_coherent_state(2.0, model.energy_model, n_max=32)
        orbit_series(st, model, t_max=50.0, dt=1.0)
        translational_coupling(model)
        with warnings.catch_warnings():
            warnings.simplefilter("ignore", ResolutionWarning)
            cli.run_rotator(0.5, 3.0, 100.0, 1.0, n_max=64)
