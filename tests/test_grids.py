import hashlib
import threading
import time

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from fvps import (
    ConjugacyError,
    GridError,
    MomentumGrid,
    PhaseSpaceGrid,
    UnitSystem,
    bracket_with_energy,
    energy,
    evolve_even,
    evolve_odd,
    evolve_timestep_reference,
    expectation,
    fourier_pair,
    gaussian_state,
    moments,
    phase_space_quadrature,
    purity_check,
    quadrature,
    reconstruct_kernel,
    wigner_even,
)
from fvps import grids


class TestUnitSystem:
    def test_natural_defaults(self):
        u = UnitSystem()
        assert u.compton_length == 1.0
        assert u.mc2 == 1.0

    def test_compton_length(self):
        u = UnitSystem(m=2.0, c=3.0, hbar=1.5)
        assert u.compton_length == pytest.approx(1.5 / 6.0)

    @pytest.mark.parametrize(
        "bad", [dict(m=0), dict(c=-1), dict(hbar=0), dict(m=np.nan), dict(c=np.inf), dict(hbar=np.nan)]
    )
    def test_rejects_nonpositive(self, bad):
        with pytest.raises(ValueError):
            UnitSystem(**bad)

    @pytest.mark.parametrize(
        "bad",
        [dict(m=1e200, c=1e100), dict(m=1e-200, c=1e200), dict(m=1e-300, c=1e-300), dict(m=1e-10, hbar=1e300)],
    )
    def test_rejects_overflowing_products(self, bad):
        # each of m, c and hbar is finite and positive, but m c, m c^2 or
        # the Compton length hbar/(m c) is inf or 0
        with pytest.raises(ValueError, match="must be finite and positive, got m="):
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

    @pytest.mark.parametrize("p_max", [np.nan, np.inf])
    def test_rejects_non_finite_p_max(self, p_max):
        with pytest.raises(GridError, match="finite"):
            MomentumGrid(64, p_max)

    @pytest.mark.parametrize("value", [np.nan, np.inf])
    @pytest.mark.parametrize("name", ["q_max", "hbar"])
    def test_phase_space_grid_rejects_non_finite(self, name, value):
        with pytest.raises(GridError, match="finite"):
            PhaseSpaceGrid(MomentumGrid(16, 4.0), **{"n_q": 16, "q_max": 4.0, name: value})


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


FIELD_ENTRY_POINTS = {
    "phase_space_quadrature": phase_space_quadrature,
    "expectation": lambda w, ps: expectation(1.0, w, ps),
    "moments": moments,
    "reconstruct_kernel": reconstruct_kernel,
    "purity_check": purity_check,
    "evolve_even": lambda w, ps: evolve_even(w, energy, 1.0, ps),
    "evolve_odd": lambda w, ps: evolve_odd(w, energy, 1.0, ps),
    "bracket_with_energy": lambda w, ps: bracket_with_energy(energy, w, ps),
    "evolve_timestep_reference": lambda w, ps: evolve_timestep_reference(w, energy, 0.01, 1, ps),
}


N = 128


@pytest.fixture(scope="module")
def packet_field():
    ps = PhaseSpaceGrid.conjugate(MomentumGrid(N, 10.0))
    return wigner_even(gaussian_state(ps.momentum, lam=1.0), +1, ps), ps


# a field with rows to spare, rows missing or one row (which numpy would
# broadcast over the grid) must not be read as if it had the grid's rows
@pytest.mark.parametrize("shape", [(N + 1, N), (N - 1, N), (1, N), (N, N + 2)], ids=str)
@pytest.mark.parametrize("name", sorted(FIELD_ENTRY_POINTS))
def test_field_of_another_shape_raises(packet_field, name, shape):
    w, ps = packet_field
    with pytest.raises(GridError, match="does not match grid"):
        FIELD_ENTRY_POINTS[name](np.resize(w, shape), ps)


class TestRunRowBlocks:
    """The row-block rule of the phase-space kernels, on more workers than this machine may have."""

    # 96 rows of 2048 cells are more work than one cell budget, so they
    # thread; a worker's share on three workers is 10 rows, so they make
    # twelve blocks of eight rows, four a worker
    ROWS, CELLS, SIZE = 96, 2048, 8

    def test_blocks_run_in_order_each_worker_on_one_thread(self, monkeypatch):
        monkeypatch.setattr(grids, "_WORKERS", 3)
        assert self.ROWS * self.CELLS >= grids._BLOCK_CELLS
        ran = grids._run_row_blocks(lambda rows: (rows, threading.current_thread()), self.ROWS, self.CELLS)
        assert [rows for rows, _ in ran] == [slice(start, start + self.SIZE) for start in range(0, self.ROWS, self.SIZE)]
        threads = [thread for _, thread in ran]
        # worker i runs blocks[i::3] on one thread: the calling thread the first, the pool the others
        assert [len(set(threads[i::3])) for i in range(3)] == [1, 1, 1]
        assert threads[0] is threading.main_thread() and threading.main_thread() not in threads[1::3] + threads[2::3]

    @settings(max_examples=200, deadline=None)
    @given(workers=st.integers(1, 4), n_rows=st.integers(0, 3000), row_cells=st.integers(1, 1 << 18))
    @example(workers=3, n_rows=256, row_cells=256)  # work of exactly one budget: threaded
    @example(workers=3, n_rows=255, row_cells=257)  # one cell below it: serial, one block
    @example(workers=2, n_rows=409, row_cells=513)  # the criterion's stencils at n = 1024: 8 blocks, 4 a worker
    def test_fewest_equal_blocks_a_whole_number_per_worker(self, workers, n_rows, row_cells):
        with pytest.MonkeyPatch.context() as patch:
            patch.setattr(grids, "_WORKERS", workers)
            blocks = grids._run_row_blocks(lambda rows: rows, n_rows, row_cells)
        assert [row for rows in blocks for row in range(rows.start, rows.stop)] == list(range(n_rows))
        threaded = workers if n_rows * row_cells >= grids._BLOCK_CELLS else 1
        share = max(1, grids._BLOCK_CELLS // row_cells // threaded)
        heights = [rows.stop - rows.start for rows in blocks]
        # no block taller than the share, every block but the last as tall as the first
        assert max(heights, default=0) <= share and len(set(heights[:-1])) <= 1 and heights[-1:] <= heights[:1]
        # a whole number of blocks per worker, unless that many equal blocks
        # would run out of rows; with one block fewer a worker they would
        # have to be taller than the share
        per_worker = -(-len(blocks) // threaded)
        assert len(blocks) % threaded == 0 or heights[0] * (threaded * per_worker - 1) >= n_rows
        assert threaded * (per_worker - 1) * share < n_rows
        # the blocks in flight together: one budget, or one row a worker
        assert min(threaded, len(blocks)) * max(heights, default=0) * row_cells <= max(grids._BLOCK_CELLS, threaded * row_cells)

    def test_worker_overflow_raises_in_caller_after_every_other_block(self, monkeypatch):
        # numpy's error state is a context variable: a worker sees the
        # caller's "raise" only if it runs in a copy of the caller's context
        monkeypatch.setattr(grids, "_WORKERS", 3)
        out = np.zeros(self.ROWS)
        raised_on = []
        failing = slice(10 * self.SIZE, 11 * self.SIZE)  # the second worker's last block, on a pool thread

        def kernel(rows):
            if rows == failing:
                raised_on.append(threading.current_thread())
                np.multiply(np.full(4, 1e300), 1e300)
            time.sleep(0.05 if rows.start // self.SIZE % 3 == 2 else 0.0)  # the third worker is late
            out[rows] = 1.0

        with np.errstate(over="raise"), pytest.raises(FloatingPointError):
            grids._run_row_blocks(kernel, self.ROWS, self.CELLS)
        assert raised_on and raised_on[0] is not threading.main_thread()
        # the call raised only after every other block had written its rows
        written = np.ones(self.ROWS)
        written[failing] = 0.0
        assert (out == written).all()

    def test_forked_child_starts_its_own_pool(self, monkeypatch):
        import multiprocessing

        monkeypatch.setattr(grids, "_WORKERS", 3)
        ps = PhaseSpaceGrid.conjugate(MomentumGrid(1024, 10.0))
        state = gaussian_state(ps.momentum, lam=1.0)
        digest = hashlib.sha256(wigner_even(state, +1, ps).tobytes()).hexdigest()
        assert grids._pool is not None  # the parent's call ran on the pool

        def child(conn):
            conn.send(hashlib.sha256(wigner_even(state, +1, ps).tobytes()).hexdigest())
            conn.close()

        ctx = multiprocessing.get_context("fork")
        receive, send = ctx.Pipe(duplex=False)
        proc = ctx.Process(target=child, args=(send,))
        proc.start()
        try:
            # a child calling into the parent's dead pool would wait forever
            assert receive.poll(120), "the forked child did not finish its transform"
            assert receive.recv() == digest
        finally:
            proc.join(30)
            if proc.is_alive():
                proc.kill()
        assert proc.exitcode == 0
