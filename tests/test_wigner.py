import functools
import hashlib
import os
import subprocess
import sys
import threading
import tracemalloc
import types
import warnings
from pathlib import Path

import numpy as np
import pytest

from fvps import (
    ChargeBranchState,
    ConjugacyError,
    EPS_UNITY,
    GridError,
    MomentumGrid,
    PhaseSpaceGrid,
    energy,
    eps_factor,
    evolve_even,
    expectation,
    fine_amplitude,
    gaussian_state,
    interference_gain,
    moments,
    phase_space_quadrature,
    purity_check,
    quadrature,
    reconstruct_kernel,
    UnitSystem,
    wigner_even,
    wigner_odd,
)
import fvps
from fvps import grids, spectrum, wigner
from fvps.cli import packet_grid
from fvps.wigner import _lattice_amplitude, _root_energy
from test_dense_reference import _q_transform


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
        assert np.array_equal(w, _q_transform(ps, (bra, ket)))


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


def test_grid_for_another_hbar_raises():
    # at hbar = 0.7 the packet's var_q is 0.487; a grid conjugate for
    # hbar = 1 used to rescale q silently and report 0.994
    grid = MomentumGrid(256, 12.0)
    state = gaussian_state(grid, sigma=1.0, units=UnitSystem(hbar=0.7))
    for hbar in (1.0, 0.7 + 1e-12):
        ps = PhaseSpaceGrid.conjugate(grid, hbar=hbar)
        with pytest.raises(GridError, match="hbar"):
            wigner_even(state, +1, ps)
        with pytest.raises(GridError, match="hbar"):
            wigner_odd(state, +1, ps)
    ps = PhaseSpaceGrid.conjugate(grid, hbar=0.7)
    assert moments(wigner_even(state, +1, ps), ps).var_q == pytest.approx(0.487, abs=1e-3)


def test_grid_on_another_momentum_grid_raises():
    # a grid of the same size on p_max 30 used to transform a packet on
    # p_max 20 silently: norm 1.5 and var_p 1.125 instead of 1 and 0.5
    grid = MomentumGrid(256, 20.0)
    state = gaussian_state(grid, lam=1.0)
    ps = PhaseSpaceGrid.conjugate(MomentumGrid(256, 30.0))
    with pytest.raises(GridError, match="built on"):
        wigner_even(state, +1, ps)
    with pytest.raises(GridError, match="built on"):
        wigner_odd(state, +1, ps)
    ps = PhaseSpaceGrid.conjugate(grid)
    w = wigner_even(state, +1, ps)
    assert phase_space_quadrature(w, ps) == pytest.approx(1.0, abs=1e-12)
    assert moments(w, ps).var_p == pytest.approx(0.5, rel=1e-9)


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
        assert not (m.var_q_negative or m.var_p_negative)

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
        assert m.var_q_negative
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

    def test_moments_do_not_follow_the_blas_kernel(self):
        # the dot products are numpy products and sums, not BLAS calls, so the
        # bits are the same under every OpenBLAS kernel
        blas = np.show_config(mode="dicts")["Build Dependencies"]["blas"]
        if "DYNAMIC_ARCH" not in blas.get("openblas configuration", ""):
            pytest.skip("numpy's BLAS is not a DYNAMIC_ARCH OpenBLAS, so OPENBLAS_CORETYPE picks no kernel")
        code = (
            "import numpy as np\n"
            "from fvps import PhaseSpaceGrid, gaussian_state, moments, wigner_even\n"
            "from fvps.cli import packet_grid\n"
            "ps = PhaseSpaceGrid.conjugate(packet_grid(3.0, 0.3, 512))\n"
            "w = wigner_even(gaussian_state(ps.momentum, lam=3.0, p_bar=0.3), +1, ps)\n"
            "w += np.random.default_rng(5).standard_normal(w.shape)\n"
            "print(repr(moments(w, ps)))\n"
        )
        outputs = []
        for kernel in ("Haswell", "Sandybridge"):
            env = {**os.environ, "OPENBLAS_CORETYPE": kernel,
                   "PYTHONPATH": str(Path(fvps.__file__).resolve().parents[1])}
            run = subprocess.run([sys.executable, "-c", code], env=env, capture_output=True, text=True, timeout=120)
            assert run.returncode == 0, run.stderr
            outputs.append(run.stdout)
        assert outputs[0] == outputs[1]

    def test_variance_sign_crossover_once(self):
        # var_q(lam) changes sign exactly once on the scanned range
        from fvps.cli import run_wigner

        signs = []
        for lam in (0.5, 1.0, 2.0, 3.0, 4.0, 6.0, 8.0):
            _, _, m = run_wigner(lam, 512)
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

    @pytest.mark.parametrize("floor", [-1.0, np.nan, np.inf, 1.0])
    def test_window_floor_outside_its_range_raises(self, floor):
        # a negative floor would admit the exact zeros of K (ln 0 in the
        # stencils) and a NaN one nothing; at 1.0 no point exceeds the floor
        ps = PhaseSpaceGrid.conjugate(packet_grid(1.0, 0.0, 128))
        w = wigner_even(gaussian_state(ps.momentum, lam=1.0), +1, ps)
        cause = "below the window floor" if floor == 1.0 else "finite and non-negative"
        with pytest.raises(ValueError, match=cause):
            purity_check(w, ps, window_floor=floor)

    def test_vanishing_kernel_raises(self):
        grid = MomentumGrid(64, 7.0)
        ps = PhaseSpaceGrid.conjugate(grid)
        with pytest.raises(ValueError):
            purity_check(np.zeros((64, 64)), ps)


# tracemalloc peaks at n = 1024 (lam = 8, the largest purity window of the
# benchmark's range), measured as 10.6, 9.5 and 13.8 MB with the whole-field
# half spectrum kept (10.6, 10.1 and 8.8 MB on two workers without it);
# each bound adds ~15 % margin.  With the blocks sized by one cell budget
# for all workers, n-wide fold buffers and the stencils' intermediates
# released early, one, two and three workers peak at 11.1, 11.5 and
# 11.9 MB (wigner_even) and 10.6 MB (evolve_even); with each row's
# Hermitian half built in (n/2 + 1)-wide buffers in place of the n-wide
# complex fold, the transform peaks at 10.2, 10.5-10.6 and 10.5-11.0 MB.
# The (n, n) float output alone is 8.4 MB.  purity_check keeps the dq-scaled half spectra of the rows
# its 1-norm bound cannot rule out (417 x 513 complex, 3.4 MB) for
# its stencils, and peaks at 7.7, 7.2 and 7.4 MB on one, two and three
# workers (4.6, 4.1 and 3.9 MB when its stencils transformed the box's
# rows again).
# The whole-array versions peaked at 50.4, 42.1 and 55.0 MB: the (n, 2n)
# pair product, the full (n, n/2 + 1) phase and index arrays, and the
# whole window box of K.
MEMORY_BOUNDS_MB = {"wigner_even": 12.0, "evolve_even": 11.0, "purity_check": 16.0}


@pytest.mark.parametrize("workers", [1, 2, 3])
def test_phase_space_kernels_memory_stays_row_blocked(workers, monkeypatch):
    monkeypatch.setattr(grids, "_WORKERS", workers)
    grids._forget_pool()
    ps = PhaseSpaceGrid.conjugate(packet_grid(8.0, 0.3, 1024))
    st = gaussian_state(ps.momentum, lam=8.0, p_bar=0.3)
    w = wigner_even(st, +1, ps)
    kernels = {
        "wigner_even": lambda: wigner_even(st, +1, ps),
        "evolve_even": lambda: evolve_even(w, energy, 5.0, ps),
        "purity_check": lambda: purity_check(w, ps),
    }
    peaks = {}
    for name, kernel in kernels.items():
        tracemalloc.start()
        try:
            kernel()
            peaks[name] = tracemalloc.get_traced_memory()[1] / 1e6
        finally:
            tracemalloc.stop()
    assert all(peaks[name] < bound for name, bound in MEMORY_BOUNDS_MB.items()), peaks


# lam = 8 at n = 512 and 1024: every kernel's work is above the threading
# threshold, except the purity scan and stencils at n = 512, and at
# n = 1024 the last stencil block is short for one worker and for three
def _packet(n):
    ps = PhaseSpaceGrid.conjugate(packet_grid(8.0, 0.3, n))
    st = gaussian_state(ps.momentum, lam=8.0, p_bar=0.3)
    rng = np.random.default_rng(7)
    both = ChargeBranchState(ps.momentum, phi_plus=st.phi_plus,
                             phi_minus=st.phi_plus * np.exp(0.1j * rng.normal(size=n)))
    return ps, st, both


@pytest.fixture(scope="module")
def packet1024():
    return _packet(1024)


def _kernel_outputs(ps, st, both):
    w = wigner_even(st, +1, ps)
    return {
        "wigner_even": w.tobytes(),
        "wigner_odd": wigner_odd(both, +1, ps).tobytes(),
        "evolve_even": evolve_even(w, energy, 5.0, ps).tobytes(),
        "purity_check": repr(purity_check(w, ps)),
    }


@pytest.mark.parametrize("n", [512, 1024])
def test_worker_count_leaves_every_output_unchanged(n, monkeypatch):
    ps, st, both = _packet(n)
    w = wigner_even(st, +1, ps)
    r = np.abs(np.fft.rfft(w, axis=1)[:, : ps.n_q // 2])
    rows = np.flatnonzero(r.max(axis=1) > 1e-6 * r.max())
    interior = rows[-1] + 1 - rows[0] - 8
    outputs = {}
    for workers in (1, 3):
        monkeypatch.setattr(grids, "_WORKERS", workers)
        heights = grids._run_row_blocks(lambda rows: rows.stop - rows.start, interior, ps.n_q // 2 + 1)
        # the stencils' blocks: one below a budget of work at n = 512, a short last one at n = 1024
        assert heights == [interior] if n == 512 else heights[-1] < heights[0]
        outputs[workers] = _kernel_outputs(ps, st, both)
    assert outputs[1] == outputs[3]


def test_one_cpu_process_starts_no_thread(packet1024):
    ps, st, _ = packet1024
    if not hasattr(os, "sched_setaffinity"):
        pytest.skip("needs os.sched_setaffinity")
    code = (
        "import hashlib, os, sys, threading\n"
        "os.sched_setaffinity(0, {min(os.sched_getaffinity(0))})\n"
        "from fvps import PhaseSpaceGrid, gaussian_state, wigner_even\n"
        "from fvps.cli import packet_grid\n"
        "ps = PhaseSpaceGrid.conjugate(packet_grid(8.0, 0.3, 1024))\n"
        "w = wigner_even(gaussian_state(ps.momentum, lam=8.0, p_bar=0.3), +1, ps)\n"
        "print(hashlib.sha256(w.tobytes()).hexdigest(), threading.active_count(), 'concurrent' in sys.modules)\n"
    )
    env = {**os.environ, "PYTHONPATH": str(Path(fvps.__file__).resolve().parents[1])}
    run = subprocess.run([sys.executable, "-c", code], env=env, capture_output=True, text=True, timeout=120)
    assert run.returncode == 0, run.stderr
    digest = hashlib.sha256(wigner_even(st, +1, ps).tobytes()).hexdigest()
    assert run.stdout.split() == [digest, "1", "False"]


def test_public_functions_stay_on_the_calling_thread(packet1024, monkeypatch):
    # a span tracer wraps every public fvps function and keeps one span
    # stack, so none may run on a worker thread; wrap them all the same way.
    # purity_check's right-hand side runs on the workers, through the
    # private spectrum._energy
    ps, st, both = packet1024
    monkeypatch.setattr(grids, "_WORKERS", 3)
    calls = []
    energy_threads = set()

    def private_energy(p, units):
        energy_threads.add(threading.current_thread())
        return spectrum._energy(p, units)

    def on_main_thread(fn):
        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            assert threading.current_thread() is threading.main_thread(), fn.__qualname__
            calls.append(fn.__name__)
            return fn(*args, **kwargs)

        return wrapper

    wrappers = {}
    for name, module in list(sys.modules.items()):
        if not name.startswith("fvps."):
            continue
        for attr, obj in list(vars(module).items()):
            if isinstance(obj, types.FunctionType) and obj.__module__.startswith("fvps.") and attr[0] != "_":
                monkeypatch.setattr(module, attr, wrappers.setdefault(obj, on_main_thread(obj)))
    monkeypatch.setattr(wigner, "_energy", private_energy)
    _kernel_outputs(ps, st, both)
    energy_threads.clear()
    purity_check(wigner_even(st, +1, ps), ps)
    assert any(thread is not threading.main_thread() for thread in energy_threads)


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
