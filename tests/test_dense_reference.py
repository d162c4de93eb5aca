"""FFT phase-space pipeline against the dense quadratures it replaces.

The dense formulas live only here: an exp(-i P q / hbar) matrix for the
q-transform, eps/chi evaluated on every momentum pair of the correlation,
a (2n x n) exp matrix for the half-step interpolation and for kernel
reconstruction, and exp of E(p +- hbar kappa/2) on the full (p, kappa)
grid for the propagators.  Agreement is required to 1e-12 of each field's
maximum.
"""

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from fvps import (
    EPS_UNITY,
    ChargeBranchState,
    MomentumGrid,
    PhaseSpaceGrid,
    UnitSystem,
    chi_factor,
    energy,
    eps_factor,
    fine_amplitude,
    fourier_pair,
    gaussian_state,
    phase_space_quadrature,
    reconstruct_kernel,
    wigner_even,
    wigner_odd,
)
from fvps.cli import packet_grid
from fvps.moyal import propagator_phases

RTOL = 1e-12


def dense_fine_amplitude(phi, ps):
    psi = fourier_pair(phi, ps, "forward")
    n = ps.momentum.n_points
    p_fine = -ps.momentum.p_max + 0.5 * ps.dp * np.arange(2 * n)
    phase = np.exp(-1j * p_fine[:, None] * ps.q_nodes[None, :] / ps.hbar)
    return (ps.dq / np.sqrt(2 * np.pi * ps.hbar)) * (phase @ psi)


def dense_transform(ps, bra, ket, kernel, units):
    """sum_j kernel(p1, p2) bra^*(p1) ket(p2) exp(-i j dp q / hbar) dp / 2 pi hbar."""
    n = ps.momentum.n_points
    j = np.arange(-(2 * n - 1), 2 * n)
    rows = 2 * np.arange(n)[:, None]
    pad_bra = np.zeros(6 * n, dtype=complex)
    pad_bra[2 * n : 4 * n] = dense_fine_amplitude(bra, ps)
    pad_ket = np.zeros(6 * n, dtype=complex)
    pad_ket[2 * n : 4 * n] = dense_fine_amplitude(ket, ps)
    p1 = ps.p_nodes[:, None] + 0.5 * j * ps.dp
    p2 = ps.p_nodes[:, None] - 0.5 * j * ps.dp
    weight = {"eps": eps_factor, "chi": chi_factor}[kernel](p1, p2, units) if kernel else 1.0
    corr = weight * np.conj(pad_bra[2 * n + rows + j]) * pad_ket[2 * n + rows - j]
    matrix = np.exp(-1j * (j * ps.dp)[:, None] * ps.q_nodes[None, :] / ps.hbar)
    return (ps.dp / (2 * np.pi * ps.hbar)) * (corr @ matrix)


def dense_kernel(w, ps):
    j = np.arange(-(ps.n_q // 2 - 1), ps.n_q // 2)
    phase = np.exp(1j * ps.q_nodes[:, None] * (j * ps.dp)[None, :] / ps.hbar)
    return ps.dq * (np.asarray(w, dtype=complex) @ phase)


def dense_phases(energy_fn, t, ps, parity):
    kap = 2 * np.pi * np.fft.fftfreq(ps.n_q, ps.dq)
    p = ps.p_nodes[:, None]
    shift = 0.5 * ps.hbar * kap[None, :]
    sign = -1.0 if parity == "even" else 1.0
    omega = energy_fn(p + shift) + sign * energy_fn(p - shift)
    return np.exp(-1j * omega * t / ps.hbar)


def assert_close(got, want):
    assert got.shape == want.shape
    assert np.abs(got - want).max() <= RTOL * np.abs(want).max()


UNITS = UnitSystem(m=1.3, c=0.8, hbar=0.7)

CASES = {
    # natural units, the 128-point grid of the packet pipeline
    "natural-128": dict(n=128, p_max=10.0, units=UnitSystem(), lam=1.0, p_bar=0.3, q_bar=0.5),
    # non-natural units, hbar != 1, strongly localized packet
    "scaled-256": dict(n=256, p_max=16.0, units=UNITS, lam=1.5, p_bar=-0.4, q_bar=-0.2),
}


@pytest.fixture(scope="module", params=sorted(CASES))
def case(request):
    c = CASES[request.param]
    grid = MomentumGrid(c["n"], c["p_max"])
    ps = PhaseSpaceGrid.conjugate(grid, hbar=c["units"].hbar)
    state = gaussian_state(grid, lam=c["lam"], p_bar=c["p_bar"], q_bar=c["q_bar"], units=c["units"])
    phi = state.phi_plus
    mixed = ChargeBranchState(
        grid,
        phi_plus=phi / np.sqrt(2),
        phi_minus=np.roll(phi, 3) * np.exp(0.4j) / np.sqrt(2),
        units=c["units"],
    )
    return ps, state, mixed, c["units"]


class TestAgainstDenseQuadrature:
    def test_fine_amplitude(self, case):
        ps, state, _, _ = case
        assert_close(fine_amplitude(state.phi_plus, ps), dense_fine_amplitude(state.phi_plus, ps))

    def test_wigner_even_relativistic(self, case):
        ps, state, _, units = case
        phi = state.phi_plus
        assert_close(wigner_even(state, +1, ps), dense_transform(ps, phi, phi, "eps", units).real)

    def test_wigner_even_unity(self, case):
        ps, state, _, units = case
        phi = state.phi_plus
        assert_close(wigner_even(state, +1, ps, EPS_UNITY), dense_transform(ps, phi, phi, None, units).real)

    @pytest.mark.parametrize("ordering", [+1, -1])
    def test_wigner_odd(self, case, ordering):
        ps, _, mixed, units = case
        bra, ket = (mixed.phi_plus, mixed.phi_minus)[::ordering]
        assert_close(wigner_odd(mixed, ordering, ps), dense_transform(ps, bra, ket, "chi", units))

    def test_reconstruct_kernel(self, case):
        ps, state, _, _ = case
        w = wigner_even(state, +1, ps)
        assert_close(reconstruct_kernel(w, ps), dense_kernel(w, ps))

    @pytest.mark.parametrize("parity", ["even", "odd"])
    def test_propagator_phases(self, case, parity):
        ps, _, _, units = case
        for energy_fn in (lambda p: energy(p, units), lambda p: p**2 / (2 * units.m)):
            want = dense_phases(energy_fn, 2.5, ps, parity)
            assert_close(propagator_phases(energy_fn, 2.5, ps, parity), want)


# packet_grid at n = 128 resolves the packet (dp < hbar / 4 sigma) for
# lam > (|p_bar| + 0.5) / 7, hence the lower end of the lam range
@settings(max_examples=25, deadline=None, derandomize=True)
@given(lam=st.floats(0.15, 8.0), p_bar=st.floats(-0.5, 0.5))
def test_normalisation_and_momentum_marginal(lam, p_bar):
    grid = packet_grid(lam, p_bar, n_points=128)
    ps = PhaseSpaceGrid.conjugate(grid)
    state = gaussian_state(grid, lam=lam, p_bar=p_bar)
    w = wigner_even(state, +1, ps)
    assert phase_space_quadrature(w, ps).real == pytest.approx(1.0, abs=1e-10)
    density = np.abs(state.phi_plus) ** 2
    assert np.abs(w.sum(axis=1) * ps.dq - density).max() <= 1e-10 * density.max()
