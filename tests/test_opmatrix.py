import numpy as np
import pytest

from fvps import (
    ConditioningError,
    EnergyModel,
    GridError,
    MomentumGrid,
    PhaseSpaceGrid,
    build_hamiltonian,
    branch_vectors,
    charge_invariant,
    charge_metric,
    energy,
    even_part,
    kernel_relation_check,
    momentum_kernel,
    newton_wigner_matrix,
    odd_part,
    position_kernel,
    quadrature,
    sign_operator,
)
from fvps.opmatrix import KernelRelationReport, OperatorMatrix
from test_dense_reference import charge_invariant_even, pseudo_hermiticity_defect


@pytest.fixture(scope="module")
def free_setup():
    grid = MomentumGrid(64, 8.0)
    ps = PhaseSpaceGrid.conjugate(grid)
    h = build_hamiltonian(EnergyModel.free(), grid=grid)
    lam = sign_operator(h)
    return grid, ps, h, lam


def _gaussian(grid, p_bar=0.0, q_bar=0.0, s=1.0):
    g = np.exp(-(s**2) * (grid.nodes - p_bar) ** 2 / 2 - 1j * q_bar * grid.nodes)
    return g / np.sqrt(quadrature(np.abs(g) ** 2, grid).real)


class TestHamiltonian:
    def test_free_spectrum(self, free_setup):
        grid, _, h, _ = free_setup
        w = np.sort(np.linalg.eigvals(h.mat).real)
        expect = np.sort(np.concatenate([energy(grid.nodes), -energy(grid.nodes)]))
        assert np.abs(w - expect).max() < 1e-10

    def test_pseudo_hermitian(self, free_setup):
        _, _, h, _ = free_setup
        assert pseudo_hermiticity_defect(h) < 1e-12

    def test_magnetic_levels(self):
        h = build_hamiltonian(EnergyModel.landau(1.0), n_levels=64)
        w = np.sort(np.linalg.eigvals(h.mat).real)
        pos = w[w > 0][:3]
        assert np.abs(pos - [np.sqrt(2), 2.0, np.sqrt(6)]).max() < 1e-8

    def test_zero_field_matches_free(self):
        # with vanishing field every pz block reproduces the free +-E(pz)
        # pairs (the transverse zero-point shift is ~b)
        grid = MomentumGrid(32, 4.0)
        h_b0 = build_hamiltonian(EnergyModel.landau(1e-30), n_levels=8, pz_grid=grid)
        w_b0 = np.sort(np.linalg.eigvals(h_b0.mat).real)
        pos = np.unique(np.round(w_b0[w_b0 > 0], 9))
        expect = np.unique(np.round(energy(grid.nodes), 9))
        assert np.abs(pos - expect).max() < 1e-8

    def test_dimension_cap(self):
        with pytest.raises(Exception):
            build_hamiltonian(EnergyModel.landau(1.0), n_levels=2048)


class TestSignOperator:
    def test_involution(self, free_setup):
        _, _, h, lam = free_setup
        n = lam.mat.shape[0]
        assert np.abs(lam.mat @ lam.mat - np.eye(n)).max() < 1e-10

    def test_commutes_with_hamiltonian(self, free_setup):
        _, _, h, lam = free_setup
        assert np.abs(lam.mat @ h.mat - h.mat @ lam.mat).max() < 1e-10

    def test_traceless_for_symmetric_spectrum(self, free_setup):
        _, _, _, lam = free_setup
        assert abs(np.trace(lam.mat)) < 1e-9

    def test_random_admissible_hamiltonian(self):
        # any mode-diagonal FV-structured H with nonvanishing gap
        rng = np.random.default_rng(3)
        k = rng.uniform(0.2, 4.0, size=16)
        mat = np.kron(np.diag([1.0, -1.0]), np.diag(1.0 + k)) + np.kron(
            np.array([[0.0, 1.0], [-1.0, 0.0]]), np.diag(k)
        )
        h = OperatorMatrix(mat.astype(complex), "test:16")
        lam = sign_operator(h)
        assert np.abs(lam.mat @ lam.mat - np.eye(32)).max() < 1e-10

    def test_near_singular_raises(self):
        mat = np.diag([1.0, 1e-15, -1.0, -1e-15]).astype(complex)
        with pytest.raises(ConditioningError):
            sign_operator(OperatorMatrix(mat, "test:2"))


class TestEvenOdd:
    def test_decomposition_exact(self, free_setup):
        grid, ps, h, lam = free_setup
        op = charge_invariant(position_kernel(ps), h.basis)
        ev, od = even_part(op, lam), odd_part(op, lam)
        assert np.abs(ev.mat + od.mat - op.mat).max() < 1e-12
        assert np.abs(lam.mat @ ev.mat - ev.mat @ lam.mat).max() < 1e-10
        assert np.abs((lam.mat @ od.mat + od.mat @ lam.mat)).max() < 1e-10

    def test_idempotent(self, free_setup):
        grid, ps, h, lam = free_setup
        op = charge_invariant(position_kernel(ps), h.basis)
        ev = even_part(op, lam)
        assert np.abs(even_part(ev, lam).mat - ev.mat).max() < 1e-10

    def test_momentum_has_no_odd_part(self, free_setup):
        grid, _, h, lam = free_setup
        op = charge_invariant(momentum_kernel(grid), h.basis)
        assert np.abs(odd_part(op, lam).mat).max() < 1e-10

    def test_identity_splits_trivially(self, free_setup):
        _, _, h, lam = free_setup
        one = charge_invariant(np.eye(h.n_modes), h.basis)
        assert np.abs(even_part(one, lam).mat - one.mat).max() < 1e-12
        assert np.abs(odd_part(one, lam).mat).max() < 1e-12

    def test_pseudo_hermiticity_preserved(self, free_setup):
        grid, ps, h, lam = free_setup
        op = charge_invariant(position_kernel(ps), h.basis)
        assert pseudo_hermiticity_defect(even_part(op, lam)) < 1e-10
        assert pseudo_hermiticity_defect(odd_part(op, lam)) < 1e-10

    def test_basis_mismatch(self, free_setup):
        _, _, h, lam = free_setup
        other = charge_invariant(np.eye(16), "other:16")
        with pytest.raises(GridError):
            even_part(other, lam)

    def test_closed_form_even_part_matches_oracle(self, free_setup):
        _, ps, h, lam = free_setup
        kernel = position_kernel(ps)
        dense = even_part(charge_invariant(kernel, h.basis), lam)
        closed = charge_invariant_even(kernel, h)
        assert closed.basis == h.basis
        assert np.abs(closed.mat - dense.mat).max() < 1e-11

    def test_closed_form_even_part_rejects_other_hamiltonians(self, free_setup):
        _, _, h, _ = free_setup
        coupled = h.mat.copy()
        coupled[0, 1] = coupled[1, 0] = 0.5
        shifted = h.mat + np.eye(128)
        for mat in (coupled, shifted):
            with pytest.raises(GridError):
                charge_invariant_even(np.eye(64), OperatorMatrix(mat, h.basis))
        with pytest.raises(GridError):
            charge_invariant_even(np.eye(32), h)


class TestNewtonWigner:
    def test_even_position_equals_nw_on_states(self):
        grid = MomentumGrid(128, 7.0)
        ps = PhaseSpaceGrid.conjugate(grid)
        h = build_hamiltonian(EnergyModel.free(), grid=grid)
        lam = sign_operator(h)
        q_even = even_part(charge_invariant(position_kernel(ps), h.basis), lam)
        nw = newton_wigner_matrix(ps)
        worst = 0.0
        for p_bar, q_bar, s in [(0.0, 0.0, 1.2), (1.0, 2.0, 1.2), (-1.0, -1.0, 1.6), (0.5, 0.3, 2.0)]:
            g = _gaussian(grid, p_bar, q_bar, s)
            for branch in (0, 1):
                psi = np.zeros(256, dtype=complex)
                psi[branch * 128 : (branch + 1) * 128] = g
                worst = max(worst, np.abs((q_even.mat - nw.mat) @ psi).max())
        assert worst < 1e-8

    def test_canonical_pair_on_states(self):
        grid = MomentumGrid(128, 7.0)
        ps = PhaseSpaceGrid.conjugate(grid)
        h = build_hamiltonian(EnergyModel.free(), grid=grid)
        nw = newton_wigner_matrix(ps)
        p_op = charge_invariant(momentum_kernel(grid), h.basis)
        comm = nw.mat @ p_op.mat - p_op.mat @ nw.mat
        g = _gaussian(grid, 0.5, 0.7, 1.2)
        psi = np.zeros(256, dtype=complex)
        psi[:128] = g
        assert np.abs(comm @ psi - 1j * psi).max() < 1e-6


@pytest.fixture(scope="module")
def setup():
    grid = MomentumGrid(64, 8.0)
    ps = PhaseSpaceGrid.conjugate(grid)
    h = build_hamiltonian(EnergyModel.free(), grid=grid)
    return grid, ps, h


class TestKernelRelation:
    def test_position_kernel(self, setup):
        grid, ps, h = setup
        rep = kernel_relation_check(position_kernel(ps), h)
        assert rep.passed
        assert rep.even_deviation < 1e-8
        assert rep.odd_deviation < 1e-8

    def test_momentum_function_kernel(self, setup):
        grid, ps, h = setup
        rep = kernel_relation_check(np.diag(np.cos(grid.nodes)).astype(complex), h)
        # diagonal kernel: odd part and chi prediction both vanish
        assert rep.even_deviation < 1e-8
        assert rep.odd_deviation < 1e-8

    def test_gaussian_potential_kernel(self, setup):
        grid, ps, h = setup
        from fvps import fourier_pair

        n = grid.n_points
        fwd = np.array([fourier_pair(np.eye(n)[k], ps, "forward") for k in range(n)]).T
        inv = np.array([fourier_pair(np.eye(ps.n_q)[m], ps, "inverse") for m in range(ps.n_q)]).T
        v = inv @ (np.exp(-ps.q_nodes**2 / 2)[:, None] * fwd)
        rep = kernel_relation_check(v, h)
        assert rep.even_deviation < 1e-8
        assert rep.odd_deviation < 1e-8

    def test_doubled_charge_invariant_input_accepted(self, setup):
        grid, ps, h = setup
        op = charge_invariant(momentum_kernel(grid), h.basis)
        rep = kernel_relation_check(op.mat, h)
        assert rep.passed

    def test_non_charge_invariant_rejected(self, setup):
        grid, ps, h = setup
        bad = np.kron(np.diag([1.0, 2.0]), np.eye(grid.n_points))
        with pytest.raises(ValueError):
            kernel_relation_check(bad, h)

    @pytest.mark.parametrize("p_max", [5.0, 12.0, 20.0])
    @pytest.mark.parametrize("n", [128, 256])
    def test_solved_sign_operator_against_explicit_inverse(self, n, p_max):
        # sign_operator solves Lambda V = V S; the referee forms V S V^-1
        # with an explicit inverse.  The per-block check keeps its
        # deviations near roundoff on the same Hamiltonians (max 1.4e-13
        # measured; the dense split reached 6.6e-13)
        grid = MomentumGrid(n, p_max)
        h = build_hamiltonian(EnergyModel.free(), grid=grid)
        w, v = np.linalg.eig(h.mat)
        explicit = (v * np.sign(w.real)) @ np.linalg.inv(v)
        assert np.abs(sign_operator(h).mat - explicit).max() <= 1e-13
        rep = kernel_relation_check(position_kernel(PhaseSpaceGrid.conjugate(grid)), h)
        assert max(rep.even_deviation, rep.odd_deviation) <= 2e-12

    def test_near_singular_raises(self):
        mat = np.diag([1.0, 1e-15, -1.0, -1e-15]).astype(complex)
        with pytest.raises(ConditioningError):
            kernel_relation_check(np.eye(2), OperatorMatrix(mat, "test:2"))

    def test_forms_no_doubled_space_product(self, monkeypatch):
        def dense(*args):
            raise AssertionError("kernel_relation_check reached the dense split")

        for name in ("sign_operator", "even_part", "charge_invariant", "branch_reduce"):
            monkeypatch.setattr(f"fvps.opmatrix.{name}", dense)
        grid = MomentumGrid(128, 8.0)
        h = build_hamiltonian(EnergyModel.free(), grid=grid)
        assert kernel_relation_check(position_kernel(PhaseSpaceGrid.conjugate(grid)), h).passed

    @pytest.mark.parametrize("bad", [np.nan, np.inf])
    def test_non_finite_kernel_rejected(self, setup, bad):
        _, ps, h = setup
        kernel = position_kernel(ps)
        kernel[3, 7] = bad
        with pytest.raises(ValueError, match="kernel has a non-finite entry"):
            kernel_relation_check(kernel, h)

    def test_charge_blocks_differing_by_nan_rejected(self, setup):
        _, ps, h = setup
        op = charge_invariant(position_kernel(ps), h.basis).mat
        op[h.n_modes + 3, h.n_modes + 7] = np.nan
        with pytest.raises(ValueError, match="kernel has a non-finite entry"):
            kernel_relation_check(op, h)

    @pytest.mark.parametrize("deviations", [(1e-15, np.nan), (np.nan, 1e-15), (np.nan, np.nan)])
    def test_nan_deviation_fails_in_either_place(self, deviations):
        # built-in max keeps its first argument against a NaN, so
        # max(1e-15, nan) <= tolerance used to pass the report
        assert not KernelRelationReport(*deviations, 1e-8).passed

    @pytest.mark.parametrize("tolerance", [np.nan, -1e-9])
    def test_nan_or_negative_tolerance_rejected(self, setup, tolerance):
        _, ps, h = setup
        with pytest.raises(ValueError, match="tolerance"):
            kernel_relation_check(position_kernel(ps), h, tolerance)

    @pytest.mark.parametrize("entry", [(0, 5), (5, 0), (3, 64 + 9), (3, 3), (64 + 3, 3)], ids=str)
    @pytest.mark.parametrize("bad", [np.nan, np.inf])
    def test_non_finite_hamiltonian_rejected(self, setup, entry, bad):
        # nan > x is False, so the mode-diagonal test alone would let a
        # NaN coupling through, and a NaN in a charge block would reach eig
        _, ps, h = setup
        mat = h.mat.copy()
        mat[entry] = bad
        broken = OperatorMatrix(mat, h.basis)
        with pytest.raises(GridError, match="finite"):
            kernel_relation_check(position_kernel(ps), broken)
        with pytest.raises(GridError, match="finite"):
            branch_vectors(broken)

    def test_landau_ladder_kernel(self):
        h = build_hamiltonian(EnergyModel.landau(1.0), n_levels=32)
        a = np.zeros((32, 32), dtype=complex)
        a[np.arange(31), np.arange(1, 32)] = np.sqrt(np.arange(1, 32))
        rep = kernel_relation_check(a, h)
        assert rep.even_deviation < 1e-8
        assert rep.odd_deviation < 1e-8


def loop_branch_vectors(h):
    """The per-mode loop that `branch_vectors` replaced, as its reference."""
    m = h.n_modes
    blocks = h.mat.reshape(2, m, 2, m)[:, np.arange(m), :, np.arange(m)]
    u_plus = np.zeros((2 * m, m), dtype=complex)
    u_minus = np.zeros((2 * m, m), dtype=complex)
    energies = np.zeros(m)
    for j in range(m):
        w, v = np.linalg.eig(blocks[j])
        order = np.argsort(w.real)
        for sgn, col in ((1.0, order[1]), (-1.0, order[0])):
            vec = v[:, col]
            norm2 = abs(vec[0]) ** 2 - abs(vec[1]) ** 2
            vec = vec / np.sqrt(abs(norm2))
            anchor = vec[0] if sgn > 0 else vec[1]
            vec = vec * (abs(anchor) / anchor)
            if sgn > 0:
                u_plus[j, j] = vec[0]
                u_plus[m + j, j] = vec[1]
                energies[j] = w[col].real
            else:
                u_minus[j, j] = vec[0]
                u_minus[m + j, j] = vec[1]
    return u_plus, u_minus, energies


class TestBranchVectors:
    def test_eta_normalization_and_energy(self):
        grid = MomentumGrid(32, 5.0)
        h = build_hamiltonian(EnergyModel.free(), grid=grid)
        u_plus, u_minus, energies = branch_vectors(h)
        eta = charge_metric(32)
        gram_p = u_plus.conj().T @ (eta[:, None] * u_plus)
        gram_m = u_minus.conj().T @ (eta[:, None] * u_minus)
        assert np.abs(gram_p - np.eye(32)).max() < 1e-12
        assert np.abs(gram_m + np.eye(32)).max() < 1e-12
        assert np.abs(energies - energy(grid.nodes)).max() < 1e-12
        assert np.abs(h.mat @ u_plus - u_plus * energies[None, :]).max() < 1e-10

    @pytest.mark.parametrize(
        "h",
        [
            build_hamiltonian(EnergyModel.free(), grid=MomentumGrid(128, 10.0)),
            build_hamiltonian(EnergyModel.free(), grid=MomentumGrid(256, 10.0)),
            build_hamiltonian(EnergyModel.landau(1.0), n_levels=64),
        ],
        ids=["free-128", "free-256", "landau-64"],
    )
    def test_bit_identical_to_per_mode_loop(self, h):
        for got, want in zip(branch_vectors(h), loop_branch_vectors(h)):
            assert np.array_equal(got, want)

    def test_wrong_sign_names_first_offending_mode(self):
        e = energy(MomentumGrid(16, 5.0).nodes)
        upper, lower = e.copy(), -e
        # modes 3 and 9 put the positive energy on the second charge component
        for j in (3, 9):
            upper[j], lower[j] = lower[j], upper[j]
        h = OperatorMatrix(np.diag(np.concatenate([upper, lower])).astype(complex), "test:16")
        with pytest.raises(ConditioningError, match="mode 3:"):
            branch_vectors(h)
