"""FFT phase-space pipeline against the dense quadratures it replaces.

The dense formulas live only here: an exp(-i P q / hbar) matrix for the
q-transform, eps/chi evaluated on every momentum pair of the correlation,
a (2n x n) exp matrix for the half-step interpolation and for kernel
reconstruction, and exp of E(p +- hbar kappa/2) on the full (p, kappa)
grid for the propagators.  Agreement is required to 1e-12 of each field's
maximum.

The sampled star product is refereed by the per-mode loop it replaced
(one rolled, phased copy of B per active mode of A, looped over matrix
entries), and the Poisson bracket by its per-entry loop, to 1e-13 of
the reference's maximum on full-band random symbols.  The product takes
A's q-modes in blocks; two more cases, a scalar field and a 3 x 3
symbol, sit on grids where it takes at least three blocks, the last one
shorter than the others.  On grids that `PhaseSpaceGrid.conjugate`
built, at the grid's own hbar, the product takes the half-step lattice
path instead; it is refereed by the general twisted convolution and,
where that loop stays cheap, by the mode loop, to 1e-13, for n = 8 to
128, scalar fields and 2 x 2 and 3 x 3 symbols.

The transform, the even-field evolution and the purity criterion run
over blocks of momentum rows.  The first two are refereed by the
whole-array passes they replaced (one (n, 2n) pair product folded and
transformed at once; one real FFT of the whole field times the full
phase array), on grids smaller than, equal to and larger than one row
block: the fields must be bit-identical.  The transform multiplies each
block's pair product on its nonzero band only and folds it by placement
where the band's halves do not meet; the evolution reads its phases
from strided windows of the mode lattice.  Two more grids, n = 64 (one
block with narrow and overlapping bands) and n = 2048 (many narrow edge
blocks, phase windows reaching both ends of the lattice), must match
the whole-array passes byte for byte, signed zeros included.  The
purity criterion, which finds the bounding box of the kernel window on
the half spectrum, builds and evaluates its stencils on the j >= 0 half
of that box only and mirrors them to -j, is refereed by the full-array
evaluation it replaced, which reconstructs the whole kernel: every
report field must be bit-identical, also in non-natural units at
n = 512 and 1024 where the mirrored right-hand side and phase products
round apart from the unmirrored forms.

Even-field evolution, which runs a real FFT over the n/2 + 1 independent
modes, is refereed by the full complex-FFT propagation it replaced, to
1e-14 of the field's maximum; `moments`, which works from the two
marginals, by the five `expectation` integrals it replaced, to 1e-12
relative or 1e-12 of the grid window's scale.

The modulation spectrum's vectorised peak search is refereed by the
per-bin loop and amplitude sort it replaced: the peak lists must be
equal, frequencies and amplitudes bit for bit.

Two referees of the doubled-space oracle's own tests live here too: the
even part of a charge-invariant operator in closed form from the per-mode
2x2 charge blocks (`charge_invariant_even`, checked against the dense
split in `test_opmatrix.py` and holding the coupling norm in
`test_rotator.py`) and the pseudo-Hermiticity defect.

`kernel_relation_check`, which works per 2x2 charge block in O(M^2), is
refereed by the dense (2M)^2 path it replaced (`dense_kernel_relation`:
`sign_operator`, `even_part`, `branch_reduce` and the complement O - even):
on free and magnetic Hamiltonians and on a shifted one where the check
fails, both deviations must agree to 1e-12 absolute.  Its elementwise
stage runs on blocks of kernel rows, refereed bit for bit by the same
formula on whole (M, M) arrays (`whole_array_kernel_relation`).

`position_kernel`, which lays out the circulant Toeplitz matrix of one
real FFT of the q nodes, is refereed by the dense F^-1 diag(q) F product
it replaced (`dense_position_kernel`) to 1e-13 of max |K| at n = 8 ...
1024; it must be exactly Hermitian, have the q nodes as its spectrum to
1e-12 of q_max, and never reach `fourier_pair`.  `build_hamiltonian`,
which writes its four charge-block diagonals into one complex zero
matrix, is refereed by the two Kronecker products and the complex cast
it replaced (`kron_hamiltonian`): the bytes must agree, signed zeros at
a p = 0 node included.

`orbit_series`, which splits each sample time into a block start and an
offset and sums <A(t)> by one product of two phase tables, is refereed by
the direct sum it replaced, exp(-1j * outer(times, gaps)) @ weights over
equal blocks of at most 1024 times: x + iy and r must agree to twice the
rounding bound of either sum, eps (N - 1 + max g t_max) sum |w_n| for
N - 1 terms (summation, then phase).
"""

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from numpy.lib.stride_tricks import sliding_window_view

from fvps import (
    EPS_UNITY,
    NATURAL,
    ChargeBranchState,
    EnergyModel,
    GridError,
    MomentumGrid,
    PhaseSpaceGrid,
    UnitSystem,
    branch_reduce,
    branch_vectors,
    build_hamiltonian,
    charge_invariant,
    charge_metric,
    chi_factor,
    energy,
    eps_factor,
    even_part,
    evolve_even,
    expectation,
    fine_amplitude,
    fourier_pair,
    gaussian_state,
    kernel_relation_check,
    moments,
    phase_space_quadrature,
    position_kernel,
    purity_check,
    purity_rhs,
    reconstruct_kernel,
    sign_operator,
    wigner_even,
    wigner_odd,
)
from fvps.cli import packet_grid, run_rotator
from fvps.rotator import RotatorModel, SpectralPeak, _even_superdiagonal, orbit_series
from fvps.spectrum import landau_energy
from fvps.states import momentum_grid, rotator_coherent_state
from fvps.moyal import _twisted_convolution, moyal_bracket, poisson_bracket, propagator_phases, star_product
from fvps.grids import half_step_lattice
from fvps.opmatrix import KernelRelationReport, OperatorMatrix, _branch_pairs, _mode_blocks, _require_sign_gap
from fvps.spectrum import _energy as spectrum_energy
from fvps.spectrum import chi_from_energies, eps_from_energies
from fvps import grids as grids_module
from fvps import opmatrix as opmatrix_module
from fvps import wigner as wigner_module
from fvps.wigner import Moments, PurityReport, _lattice_amplitude, _root_energy

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


def assert_close(got, want, rtol=RTOL):
    assert got.shape == want.shape
    assert np.abs(got - want).max() <= rtol * np.abs(want).max()


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


def complex_fft_evolve_even(w, energy_fn, t, psgrid):
    """Complex FFT along q over all n_q modes; the real part for a real field."""
    psgrid.require_conjugate()
    w = np.asarray(w)
    wk = np.fft.fft(w, axis=1)
    wk *= propagator_phases(energy_fn, t, psgrid, "even")
    out = np.fft.ifft(wk, axis=1)
    return out.real if np.isrealobj(w) else out


def expectation_moments(w, psgrid):
    """One full-field `expectation` integral per moment and one for the norm."""
    norm = expectation(1.0, w, psgrid).real
    mean_q = expectation(lambda p, q: q, w, psgrid).real / norm
    mean_p = expectation(lambda p, q: p, w, psgrid).real / norm
    var_q = expectation(lambda p, q: q**2, w, psgrid).real / norm - mean_q**2
    var_p = expectation(lambda p, q: p**2, w, psgrid).real / norm - mean_p**2
    return Moments(mean_q=mean_q, mean_p=mean_p, var_q=var_q, var_p=var_p)


def resolved_grid(lam, p_bar, n):
    """`packet_grid`'s window on the fewest nodes from n up that meet the spacing rule."""
    return momentum_grid(1.0 / lam, packet_grid(lam, p_bar, n).p_max, NATURAL, n)


class TestAgainstComplexFFT:
    @pytest.mark.parametrize("eps_mode", ["relativistic", EPS_UNITY])
    @pytest.mark.parametrize("t", [-2.5, 0.7, 5.0])
    def test_evolve_even(self, case, eps_mode, t):
        ps, state, _, units = case
        w = wigner_even(state, +1, ps, eps_mode)
        energy_fn = lambda p: energy(p, units)
        assert_close(evolve_even(w, energy_fn, t, ps), complex_fft_evolve_even(w, energy_fn, t, ps), 1e-14)

    @pytest.mark.parametrize("lam, p_bar, q_bar", [(0.5, 0.3, -1.2), (2.0, -0.4, 0.7), (8.0, 0.2, 0.1)])
    def test_moments(self, lam, p_bar, q_bar):
        ps = PhaseSpaceGrid.conjugate(resolved_grid(lam, p_bar, 256))
        w = wigner_even(gaussian_state(ps.momentum, lam=lam, p_bar=p_bar, q_bar=q_bar), +1, ps)
        got, want = moments(w, ps), expectation_moments(w, ps)
        scale = {"mean_q": ps.q_max, "var_q": ps.q_max**2,
                 "mean_p": ps.momentum.p_max, "var_p": ps.momentum.p_max**2}
        for name, size in scale.items():
            assert getattr(got, name) == pytest.approx(getattr(want, name), rel=1e-12, abs=1e-12 * size)
        if lam == 8.0:
            assert want.var_q < 0


@pytest.mark.parametrize("transform, message", [
    (lambda w, ps: evolve_even(w, energy, 1.0, ps), "evolve_odd"),
    (lambda w, ps: reconstruct_kernel(w, ps), "real even field"),
    (lambda w, ps: purity_check(w, ps), "real even field"),
], ids=["evolve_even", "reconstruct_kernel", "purity_check"])
def test_complex_field_is_rejected(case, transform, message):
    ps, state, _, _ = case
    with pytest.raises(ValueError, match=message):
        transform(wigner_even(state, +1, ps).astype(complex), ps)


# from n = 128 up: 128 nodes meet the spacing rule for lam from 0.15 to
# about 2.3, 256 nodes to about 4.7 and 512 nodes beyond
@settings(max_examples=25, deadline=None, derandomize=True)
@given(lam=st.floats(0.15, 8.0), p_bar=st.floats(-0.5, 0.5))
def test_normalisation_and_momentum_marginal(lam, p_bar):
    grid = resolved_grid(lam, p_bar, 128)
    ps = PhaseSpaceGrid.conjugate(grid)
    state = gaussian_state(grid, lam=lam, p_bar=p_bar)
    w = wigner_even(state, +1, ps)
    assert phase_space_quadrature(w, ps).real == pytest.approx(1.0, abs=1e-10)
    density = np.abs(state.phi_plus) ** 2
    assert np.abs(w.sum(axis=1) * ps.dq - density).max() <= 1e-10 * density.max()


def _mode_frequencies(psgrid):
    lam = 2.0 * np.pi * np.fft.fftfreq(psgrid.momentum.n_points, psgrid.dp)
    kap = 2.0 * np.pi * np.fft.fftfreq(psgrid.n_q, psgrid.dq)
    return lam, kap


def loop_field_star(a, b, psgrid, hbar, mode_tol=1e-14):
    """Twisted convolution of the mode coefficients of two scalar fields."""
    n_p, n_q = psgrid.momentum.n_points, psgrid.n_q
    lam, kap = _mode_frequencies(psgrid)
    ca = np.fft.fft2(a) / (n_p * n_q)
    cb = np.fft.fft2(b)  # leave the 1/N in ca only
    out = np.zeros_like(cb)
    peak = np.abs(ca).max()
    active = np.argwhere(np.abs(ca) > mode_tol * peak)
    half = 0.5 * hbar
    for av, bv in active:
        # W_v * W_w = exp(-(i hbar/2) omega(v, w)) W_{v+w} with
        # omega(v, w) = kappa_v lambda_w - lambda_v kappa_w, and
        # omega(v, u - v) = omega(v, u) by antisymmetry
        phase = np.exp(-1j * half * (kap[bv] * lam[:, None] - lam[av] * kap[None, :]))
        out += ca[av, bv] * phase * np.roll(cb, (av, bv), axis=(0, 1))
    return np.fft.ifft2(out)


def loop_spectral_derivative(field, psgrid, axis):
    lam, kap = _mode_frequencies(psgrid)
    freq = lam if axis == 0 else kap
    shape = [1, 1]
    shape[axis] = -1
    fr = freq.reshape(shape)
    return np.fft.ifft(1j * fr * np.fft.fft(field, axis=axis), axis=axis)


def loop_star(a, b, psgrid, hbar):
    if a.ndim == 2:
        return loop_field_star(a, b, psgrid, hbar)
    m = a.shape[0]
    out = np.zeros_like(a)
    for i in range(m):
        for l in range(m):
            for k in range(m):
                out[i, l] += loop_field_star(a[i, k], b[k, l], psgrid, hbar)
    return out


def loop_poisson(a, b, psgrid):
    if a.ndim == 2:
        return (loop_spectral_derivative(a, psgrid, 1) * loop_spectral_derivative(b, psgrid, 0)
                - loop_spectral_derivative(a, psgrid, 0) * loop_spectral_derivative(b, psgrid, 1))
    m = a.shape[0]
    out = np.zeros_like(a)
    for i in range(m):
        for l in range(m):
            for k in range(m):
                out[i, l] += loop_spectral_derivative(a[i, k], psgrid, 1) * loop_spectral_derivative(b[k, l], psgrid, 0)
                out[i, l] -= loop_spectral_derivative(a[i, k], psgrid, 0) * loop_spectral_derivative(b[k, l], psgrid, 1)
    return out


STAR_GRIDS = {
    "conjugate-16": PhaseSpaceGrid.conjugate(MomentumGrid(16, 2.5), hbar=0.7),
    "wide-32x16": PhaseSpaceGrid(MomentumGrid(32, 2.5), n_q=16, q_max=3.0),
    "tall-16x32": PhaseSpaceGrid(MomentumGrid(16, 4.0), n_q=32, q_max=5.0, hbar=1.3),
    "tall-16x128": PhaseSpaceGrid(MomentumGrid(16, 4.0), n_q=128, q_max=5.0, hbar=1.3),
    "tall-16x32-q3": PhaseSpaceGrid(MomentumGrid(16, 2.5), n_q=32, q_max=3.0),
}


def full_band(rng, shape):
    return rng.normal(size=shape) + 1j * rng.normal(size=shape)


# (grid, matrix size or None for a scalar field); the mode loop costs
# m^3 n_p^2 n_q^2, so the long axis takes a scalar and the 3 x 3 symbol
# a 16 x 32 grid
STAR_CASES = [
    *((name, size) for name in ("conjugate-16", "tall-16x32", "wide-32x16") for size in (None, 2)),
    ("tall-16x128", None),
    ("tall-16x32-q3", 3),
]


@pytest.mark.parametrize("hbar", [1e-3, 0.7, 1.0, 2.0])
@pytest.mark.parametrize("grid_name, size", STAR_CASES)
def test_star_product_matches_mode_loop(grid_name, size, hbar):
    ps = STAR_GRIDS[grid_name]
    shape = (ps.momentum.n_points, ps.n_q) if size is None else (size, size, ps.momentum.n_points, ps.n_q)
    rng = np.random.default_rng(17)
    a, b = full_band(rng, shape), full_band(rng, shape)
    ab, ba = loop_star(a, b, ps, hbar), loop_star(b, a, ps, hbar)
    assert_close(star_product(a, b, ps, hbar), ab, 1e-13)
    assert_close(moyal_bracket(a, b, ps, hbar), (ab - ba) / (1j * hbar), 1e-13)
    assert_close(poisson_bracket(a, b, ps), loop_poisson(a, b, ps), 1e-13)


# (hbar, p_max) of the conjugate grids on which the lattice path runs
LATTICE_GRIDS = [(0.7, 7.5), (1.0, 2.0), (1.3, 4.0)]


@pytest.mark.parametrize("size", [None, 2, 3])
@pytest.mark.parametrize("n", [8, 16, 32, 64, 128])
@pytest.mark.parametrize("hbar, p_max", LATTICE_GRIDS)
def test_lattice_star_product_matches_twisted_convolution_and_mode_loop(n, size, hbar, p_max):
    ps = PhaseSpaceGrid.conjugate(MomentumGrid(n, p_max), hbar=hbar)
    shape = (n, n) if size is None else (size, size, n, n)
    rng = np.random.default_rng(n + 7 * (size or 1))
    a, b = full_band(rng, shape), full_band(rng, shape)
    got = star_product(a, b, ps, hbar)
    stacks = (a, b) if size else (a[None, None], b[None, None])
    general = _twisted_convolution(*stacks, ps, hbar)
    assert_close(got, general if size else general[0, 0], 1e-13)
    # the mode loop costs m^3 n^4: scalars up to n = 64, matrices up to 32 and 16
    if (size or 1) ** 3 * n**4 <= 64**4:
        assert_close(got, loop_star(a, b, ps, hbar), 1e-13)


def _pair_product(bra: np.ndarray, ket: np.ndarray) -> np.ndarray:
    """C[k, j + n] = conj(bra[2k + j]) ket[2k - j] for offsets j in [-n, n).

    bra and ket live on the 2n-node half-step lattice; entries off the
    lattice are zero.  Since 2j = (2k + j) - (2k - j), every nonzero
    offset has |j| <= n - 1.  Both factors are strided views of padded
    copies, so the product is the only (n, 2n) array allocated.
    """
    n = bra.size // 2

    def padded(x):
        out = np.zeros(4 * n, dtype=complex)
        out[n : 3 * n] = x
        return out

    # row k of the bra view starts at padded index 2k; the ket is reversed,
    # so its row k starts at 2n - 1 - 2k and runs backwards through ket
    rows = sliding_window_view(padded(np.conj(bra)), 2 * n)[: 2 * n : 2]
    cols = sliding_window_view(padded(ket[::-1]), 2 * n)[2 * n - 1 :: -2]
    return rows * cols


def _q_transform(corr: np.ndarray, psgrid: PhaseSpaceGrid) -> np.ndarray:
    """W[k, m] = (dp / 2 pi hbar) sum_j C[k, j] exp(-i j dp q_m / hbar), signs already in C.

    With q_m = q_0 + m dq and dp dq n = 2 pi hbar the kernel is
    (-1)^j omega^(j m), omega = exp(-2 pi i / n); C is built from lattice
    amplitudes, whose pair products carry the sign (-1)^j (see
    `_lattice_amplitude`), so the offsets fold mod n and one length-n
    FFT along q finishes the sum.  The fold goes into C's first n
    columns, overwriting C, so the transform allocates one (n_p, n)
    complex array fewer.
    """
    n = psgrid.n_q
    folded = corr[:, :n]
    folded += corr[:, n:]
    return (psgrid.dp / (2.0 * np.pi * psgrid.hbar)) * np.fft.fft(folded, axis=1)


def full_array_wigner_even(state, psgrid, eps_mode):
    """The + branch's even field from one (n, 2n) pair product."""
    f = _lattice_amplitude(state.phi_plus, psgrid)
    if eps_mode == EPS_UNITY:
        bra = ket = f
    else:
        root_e = _root_energy(psgrid, state.units)
        bra, ket = root_e * f, f / root_e
    return _q_transform(_pair_product(bra, ket), psgrid).real


def full_array_wigner_odd(state, ordering, psgrid):
    """The cross-branch field from the difference of two (n, 2n) pair products."""
    bra = _lattice_amplitude(state.phi_plus if ordering > 0 else state.phi_minus, psgrid)
    ket = _lattice_amplitude(state.phi_minus if ordering > 0 else state.phi_plus, psgrid)
    root_e = _root_energy(psgrid, state.units)
    corr = _pair_product(root_e * bra, ket / root_e) - _pair_product(bra / root_e, root_e * ket)
    return _q_transform(0.5 * corr, psgrid)


def full_array_shifted_energies(energy_fn, psgrid, n_modes=None):
    """E on the padded half-step lattice and the full (n_p, n_modes) index arrays into it."""
    psgrid.require_conjugate()
    n_p, n_q = psgrid.momentum.n_points, psgrid.n_q
    m = np.fft.ifftshift(np.arange(-(n_q // 2), n_q // 2))[:n_modes]  # fftfreq order
    centre = 2 * np.arange(n_p)[:, None] + n_q // 2
    return energy_fn(half_step_lattice(psgrid.momentum, n_q // 2)), centre + m, centre - m


def full_array_evolve_even(w, energy_fn, t, psgrid):
    """One real FFT of the whole field, the full phase array, one inverse."""
    e, plus, minus = full_array_shifted_energies(energy_fn, psgrid, psgrid.n_q // 2 + 1)
    z = np.exp(-1j * e * t / psgrid.hbar)
    wk = np.fft.rfft(w, axis=1)
    wk *= z[plus] * np.conj(z[minus])
    return np.fft.irfft(wk, psgrid.n_q, axis=1)


def two_branch_state(n):
    """A two-branch state of smooth random amplitudes on an n-point grid.

    Packets that the grid resolves need n >= 128; these amplitudes exist
    at every size, so the row-blocked transforms are also refereed on
    grids smaller than, equal to and larger than one row block.
    """
    grid = MomentumGrid(n, 4.0)
    rng = np.random.default_rng(n)
    envelope = np.exp(-(grid.nodes**2) / 2)
    phi_plus, phi_minus = envelope * (rng.standard_normal((2, n)) + 1j * rng.standard_normal((2, n)))
    return ChargeBranchState(grid, phi_plus=phi_plus, phi_minus=phi_minus, units=UNITS)


@pytest.mark.parametrize("n", [8, 16, 32, 64, 128, 256, 512, 1024])
def test_row_blocked_transforms_match_full_array(n):
    state = two_branch_state(n)
    ps = PhaseSpaceGrid.conjugate(state.grid, hbar=UNITS.hbar)
    for eps_mode in ("relativistic", EPS_UNITY):
        w = wigner_even(state, +1, ps, eps_mode)
        assert np.array_equal(w, full_array_wigner_even(state, ps, eps_mode))
        energy_fn = lambda p: energy(p, UNITS)
        for t in (-2.5, 0.7):
            assert np.array_equal(evolve_even(w, energy_fn, t, ps), full_array_evolve_even(w, energy_fn, t, ps))
    for ordering in (+1, -1):
        assert np.array_equal(wigner_odd(state, ordering, ps), full_array_wigner_odd(state, ordering, ps))


@pytest.mark.parametrize("n", [64, 2048])
def test_pair_bands_and_phase_views_match_full_array_to_the_byte(n):
    # the transform multiplies each block's pair band only and folds by
    # placement where the band's halves do not meet mod n; evolve_even
    # reads its phases from windows of the padded lattice.  At n = 64 the
    # first 32-row block holds rows whose band is narrower than n/2 beside
    # rows whose halves overlap; at n = 2048 most blocks are edge blocks
    # with narrow bands, and the last row's windows reach both ends of the
    # lattice.  Bytes also compare the signs of zeros
    state = two_branch_state(n)
    ps = PhaseSpaceGrid.conjugate(state.grid, hbar=UNITS.hbar)
    energy_fn = lambda p: energy(p, UNITS)
    for eps_mode in ("relativistic", EPS_UNITY):
        w = wigner_even(state, +1, ps, eps_mode)
        assert w.tobytes() == full_array_wigner_even(state, ps, eps_mode).tobytes()
        for t in (-2.5, 0.7):
            assert evolve_even(w, energy_fn, t, ps).tobytes() == full_array_evolve_even(w, energy_fn, t, ps).tobytes()
    for ordering in (+1, -1):
        assert wigner_odd(state, ordering, ps).tobytes() == full_array_wigner_odd(state, ordering, ps).tobytes()


def full_array_purity_check(w, psgrid, units=NATURAL, window_floor=1e-6):
    """The stencils evaluated on the full n x n kernel."""
    K = reconstruct_kernel(w, psgrid)
    dp = psgrid.dp
    mag = np.abs(K)
    peak = mag.max()
    if peak <= 0:
        raise ValueError("kernel vanishes identically; log criterion undefined")

    # ln|K| only inside the window: outside it the value never reaches a
    # windowed stencil, and exact zeros would put -inf into the arithmetic
    good = mag > window_floor * peak
    logmag = np.log(mag, out=np.zeros_like(mag), where=good)

    def mixed(g, s):
        # d^2/dp1dp2 = [D^2 along midpoints (step s dp) - D^2 along offsets
        # (index step 2s = physical step s dp per momentum)] / (4 (s dp)^2);
        # the -2 g(center) terms cancel between the two stencils.
        c_part = g[2 * s :, 2 * s : -2 * s] + g[: -2 * s, 2 * s : -2 * s]
        j_part = g[s:-s, 4 * s :] + g[s:-s, : -4 * s]
        return (c_part - j_part) / (4.0 * (s * dp) ** 2)

    # unit phasors of K inside the window: the stencil on arg K becomes the
    # argument of a product, so no 2 pi branch cut (and no unwrapping
    # through the noise outside the window) enters the differences
    u = np.divide(K, mag, out=np.zeros_like(K), where=good)

    def mixed_phase(s):
        c_part = u[2 * s :, 2 * s : -2 * s] * u[: -2 * s, 2 * s : -2 * s]
        j_part = u[s:-s, 4 * s :] * u[s:-s, : -4 * s]
        return np.angle(c_part * np.conj(j_part)) / (4.0 * (s * dp) ** 2)

    def window_mask(s):
        ok = good[2 * s :, 2 * s : -2 * s] & good[: -2 * s, 2 * s : -2 * s]
        ok &= good[s:-s, 4 * s :] & good[s:-s, : -4 * s]
        ok &= good[s:-s, 2 * s : -2 * s]
        return ok

    s = 2
    lhs_h = mixed(logmag, s)
    lhs_2h = mixed(logmag, 2 * s)
    m_h = window_mask(s)
    m_2h = window_mask(2 * s)
    # align the step-s and step-2s stencils on the common interior
    inner = (slice(s, -s), slice(2 * s, -2 * s))
    lhs = (4.0 * lhs_h[inner] - lhs_2h) / 3.0
    mask = m_h[inner] & m_2h
    if not mask.any():
        raise ValueError(
            "kernel magnitude below the window floor everywhere; "
            "cannot evaluate the log criterion"
        )

    # the right-hand side is needed on the window only
    rows, cols = np.nonzero(mask)
    n_q = psgrid.n_q
    off = np.arange(-(n_q // 2 - 1), n_q // 2)
    centre = psgrid.p_nodes[2 * s : -2 * s][rows]
    half = 0.5 * off[4 * s : -4 * s][cols] * dp
    rhs = purity_rhs(centre + half, centre - half, units)
    lhs = lhs[mask]

    phase_curv = np.abs(mixed_phase(s)[inner][mask])
    return PurityReport(
        max_deviation=float(np.abs(lhs - rhs).max()),
        max_lhs=float(np.abs(lhs).max()),
        max_rhs=float(np.abs(rhs).max()),
        phase_curvature_max=float(phase_curv.max()),
        window_points=int(mask.sum()),
    )


@pytest.mark.parametrize("lam", [0.05, 0.5, 2.0, 8.0])
@pytest.mark.parametrize("n", [256, 512, 1024])
def test_purity_check_matches_full_array(n, lam):
    # from n = 256 up numpy's temporary elision evaluates the reference's
    # `c_part * np.conj(j_part)` as conj(j) * c, the order purity_check
    # spells out; at n <= 128 it does not, and phase_curvature_max (a
    # ~1e-10 rounding residue there) differs at ~1e-6 relative; lam = 8
    # needs 512 nodes, so at n = 256 it runs on 512
    ps = PhaseSpaceGrid.conjugate(resolved_grid(lam, 0.0, n))
    w = wigner_even(gaussian_state(ps.momentum, lam=lam, q_bar=0.3), +1, ps)
    assert purity_check(w, ps) == full_array_purity_check(w, ps)


@pytest.mark.parametrize("state", ["pure", "mixture"])
@pytest.mark.parametrize("eps_mode", ["relativistic", "unity"])
@pytest.mark.parametrize("n", [512, 1024])
def test_purity_check_matches_full_array_for_each_kernel(n, eps_mode, state):
    # purity_check never builds the offsets beyond the window; the full
    # kernel must give the same report for both weights and for a mixture
    ps = PhaseSpaceGrid.conjugate(packet_grid(1.0, n_points=n))
    q_bars = [0.3] if state == "pure" else [-1.0, 1.0]
    w = sum(wigner_even(gaussian_state(ps.momentum, lam=1.0, q_bar=q_bar), +1, ps, eps_mode) for q_bar in q_bars)
    assert purity_check(w, ps) == full_array_purity_check(w, ps)


@pytest.mark.parametrize("window_floor", [1e-9, 1e-6, 1e-5])
def test_purity_check_matches_full_array_on_a_window_at_the_edge(window_floor):
    # a two-packet mixture in non-natural units on the narrowest momentum
    # window the packets allow: the kernel window reaches the outermost
    # offset columns (relative magnitude ~4e-5 there)
    ps = PhaseSpaceGrid.conjugate(MomentumGrid(256, 4.6), hbar=UNITS.hbar)
    w = sum(
        wigner_even(gaussian_state(ps.momentum, sigma=1.0, p_bar=p_bar, q_bar=q_bar, units=UNITS), +1, ps)
        for p_bar, q_bar in ((0.3, 1.0), (-0.3, -1.0))
    )
    mag = np.abs(reconstruct_kernel(w, ps))
    assert (mag[:, [0, -1]] > window_floor * mag.max()).any()
    assert purity_check(w, ps, UNITS, window_floor) == full_array_purity_check(w, ps, UNITS, window_floor)


def purity_outcome(check, *args, **kwargs):
    """The report of a purity check, or the message of the ValueError it raises."""
    try:
        return check(*args, **kwargs)
    except ValueError as exc:
        return str(exc)


@pytest.mark.parametrize("window_floor", [0.7, 0.8, 0.9, 0.95, 0.9999, 1.0, 2.0, 1e-4, 2e-4, 1e-2, 0.5])
def test_purity_check_below_window_floor_matches_full_array(window_floor):
    # the window's bounding box shrinks from 9 x 17 at floor 0.7 (a single
    # stencil centre in the window) through 7 x 13, 5 x 9, 3 x 7 and 1 x 1
    # to empty: the smallest box that holds a stencil must give the
    # referee's report, and every smaller one the referee's error.  Below
    # 0.7 the box's stencil centres span 33, 31, 21 and 3 rows: one row
    # past a 32-row block, one row short of it, and well inside one block
    ps = PhaseSpaceGrid.conjugate(packet_grid(1.0, n_points=128))
    w = wigner_even(gaussian_state(ps.momentum, lam=1.0), +1, ps)
    want = purity_outcome(full_array_purity_check, w, ps, window_floor=window_floor)
    assert purity_outcome(purity_check, w, ps, window_floor=window_floor) == want
    if window_floor < 0.7:
        assert want.window_points > 1
    elif window_floor == 0.7:
        assert want.window_points == 1
    else:
        assert "below the window floor" in want


@pytest.mark.parametrize("n, centres", [
    (512, [(0.3, 0.4)]),
    (1024, [(5.0, -1.0)]),
    (512, [(0.3, 1.0), (-0.2, -1.0)]),
], ids=["pure-512", "pure-1024", "mixture-512"])
def test_mirrored_purity_check_matches_full_array_off_natural_units(n, centres):
    # purity_check evaluates the offsets j >= 0 and mirrors them.  With
    # c = 0.8 the right-hand side at -j, -c^4 p2 p1 / den, rounds apart
    # from -c^4 p1 p2 / den on about a third of the points; at n = 1024 the
    # largest deviation sits on such a point (the window holds no p = 0
    # row, where the two agree).  A moving, displaced packet gives the
    # phase products at -j an operand order of their own
    p_max = 9.0 * UNITS.hbar + max(abs(p_bar) for p_bar, _ in centres) + 0.5
    ps = PhaseSpaceGrid.conjugate(MomentumGrid(n, p_max), hbar=UNITS.hbar)
    w = sum(
        wigner_even(gaussian_state(ps.momentum, sigma=1.0, p_bar=p_bar, q_bar=q_bar, units=UNITS), +1, ps)
        for p_bar, q_bar in centres
    )
    assert purity_check(w, ps, UNITS) == full_array_purity_check(w, ps, UNITS)


def test_purity_check_evaluates_the_energy_on_half_its_window(monkeypatch):
    # each window point at j > 0 is mirrored to -j, so E is evaluated at
    # the pair momenta of the j >= 0 points only: window_points plus the
    # j = 0 points, at most one per momentum row; the row-block workers
    # evaluate it through the private `_energy`
    ps = PhaseSpaceGrid.conjugate(packet_grid(1.0, n_points=512))
    w = wigner_even(gaussian_state(ps.momentum, lam=1.0, q_bar=0.3), +1, ps)
    evaluated = []

    def counted_energy(p, units):
        evaluated.append(np.size(p))
        return spectrum_energy(p, units)

    monkeypatch.setattr(wigner_module, "_energy", counted_energy)
    report = purity_check(w, ps)
    assert report.window_points <= sum(evaluated) <= report.window_points + ps.momentum.n_points
    assert report.window_points > 10 * ps.momentum.n_points


def _packet_field(n, lam):
    ps = PhaseSpaceGrid.conjugate(packet_grid(lam, n_points=n))
    return ps, wigner_even(gaussian_state(ps.momentum, lam=lam, q_bar=0.3), +1, ps)


def _edited_field(edit):
    """The n = 256 packet field after `edit`, and its grid."""
    ps, w = _packet_field(256, 1.0)
    if edit == "nan-outside":
        w[3, 5] = np.nan  # row 3's kernel is far below the window floor
    elif edit == "inf-cell":
        w[128, 40] = np.inf
    elif edit == "tiny":
        w *= 1e-300
    elif edit == "huge":
        w *= 1e300
    elif edit == "zero-rows":
        w[:40] = 0.0
        w[128:131] = 0.0
    return ps, w


@pytest.mark.parametrize("window_floor", [0.0, 1e-6, 1.0, 2.0])
@pytest.mark.parametrize("edit", ["none", "nan-outside", "inf-cell", "tiny", "huge", "zero-rows"])
def test_pruned_scan_matches_full_array(edit, window_floor):
    # the window scan transforms only the rows whose 1-norm bound can reach
    # the window; NaN and inf rows, fields near either end of the float
    # range, rows of exact zeros and floors at and past 1 must give the
    # referee's report or its error (compared by repr, where nan equals nan)
    ps, w = _edited_field(edit)
    with np.errstate(all="ignore"):
        want = purity_outcome(full_array_purity_check, w, ps, window_floor=window_floor)
        assert repr(purity_outcome(purity_check, w, ps, window_floor=window_floor)) == repr(want)
    if edit in ("none", "tiny", "huge", "zero-rows") and window_floor < 1:
        assert want.window_points > 0


def test_pruned_scan_transforms_each_window_row_once(monkeypatch):
    # every row passed to the real FFT, as indices of the field: only the
    # row that gives the known maximum is transformed twice, the rest form
    # one span, and the stencils transform nothing
    ps, w = _packet_field(1024, 8.0)
    rfft = np.fft.rfft
    transformed = []

    def counted(a, *args, **kwargs):
        start = (a.__array_interface__["data"][0] - w.__array_interface__["data"][0]) // w.strides[0]
        transformed.extend(range(start, start + len(a)))
        return rfft(a, *args, **kwargs)

    monkeypatch.setattr(np.fft, "rfft", counted)
    report = purity_check(w, ps)
    monkeypatch.undo()
    assert report == full_array_purity_check(w, ps)
    rows, counts = np.unique(transformed, return_counts=True)
    assert (counts == 1).sum() == len(rows) - 1 and counts.max() == 2
    assert rows[-1] + 1 - rows[0] == len(rows)
    assert len(transformed) <= ps.n_q // 2


def pseudo_hermiticity_defect(op: OperatorMatrix) -> float:
    """max |H^dag eta - eta H|; zero for a legitimate doubled-space observable."""
    eta = charge_metric(op.n_modes)
    return float(np.abs(op.mat.conj().T * eta[None, :] - eta[:, None] * op.mat).max())


def charge_invariant_even(kernel: np.ndarray, h: OperatorMatrix) -> OperatorMatrix:
    """even_part(charge_invariant(kernel, h.basis), sign_operator(h)) in closed form.

    H must be mode-diagonal with traceless 2x2 charge blocks H_j, as
    every `build_hamiltonian` Hamiltonian is.  Then Lambda_j = H_j / E_j
    with E_j^2 = -det H_j, and the (j, k) charge block of the even part
    is kernel_jk (1 + Lambda_j Lambda_k) / 2: no eigendecomposition.
    """
    kernel = np.asarray(kernel, dtype=complex)
    if kernel.shape != (h.n_modes, h.n_modes):
        raise GridError(f"kernel shape {kernel.shape} incompatible with {h.n_modes} modes")
    blocks = _mode_blocks(h)
    if np.abs(blocks[:, 0, 0] + blocks[:, 1, 1]).max() > 1e-12 * np.abs(blocks).max():
        raise GridError("charge_invariant_even requires traceless charge blocks")
    lam = blocks / np.sqrt(-np.linalg.det(blocks))[:, None, None]
    even = np.einsum("jsu,kut->sjtk", lam, lam)
    even += np.eye(2)[:, None, :, None]
    even *= 0.5 * kernel[None, :, None, :]
    return OperatorMatrix(even.reshape(h.mat.shape), h.basis)


def dense_kernel_relation(kernel: np.ndarray, h: OperatorMatrix) -> tuple[float, float]:
    """(even, odd) deviations of `kernel_relation_check` by the dense (2M)^2 split.

    Lambda from the dense eigendecomposition, Lambda O Lambda formed once
    for the even part, the odd part as the complement O - even, and both
    reduced onto the charge branches by (2M)^2 products.
    """
    op = charge_invariant(kernel, h.basis)
    u_plus, u_minus, energies = branch_vectors(h)
    eps = eps_from_energies(energies[:, None], energies[None, :])
    chi = chi_from_energies(energies[:, None], energies[None, :])
    even = even_part(op, sign_operator(h))
    even_red = branch_reduce(even, u_plus, u_plus)
    odd_red = branch_reduce(OperatorMatrix(op.mat - even.mat, op.basis), u_plus, u_minus)
    return float(np.abs(even_red - eps * kernel).max()), float(np.abs(odd_red - chi * kernel).max())


def free_position_case(n, p_max):
    grid = MomentumGrid(n, p_max)
    h = build_hamiltonian(EnergyModel.free(), grid=grid)
    return position_kernel(PhaseSpaceGrid.conjugate(grid)), h


def landau_ladder_case(n_levels):
    h = build_hamiltonian(EnergyModel.landau(1.0), n_levels=n_levels)
    a = np.zeros((n_levels, n_levels), dtype=complex)
    a[np.arange(n_levels - 1), np.arange(1, n_levels)] = np.sqrt(np.arange(1, n_levels))
    return a, h


def landau_pz_random_case(n_levels, n_pz):
    h = build_hamiltonian(EnergyModel.landau(1.0), n_levels=n_levels, pz_grid=MomentumGrid(n_pz, 4.0))
    rng = np.random.default_rng(22)
    m = h.n_modes
    return rng.standard_normal((m, m)) + 1j * rng.standard_normal((m, m)), h


KERNEL_RELATION_CASES = {
    **{
        f"free-n{n}-pmax{p_max:g}": (free_position_case, (n, p_max))
        for n in (64, 128, 256)
        for p_max in (5.0, 12.0, 20.0)
    },
    "landau-32": (landau_ladder_case, (32,)),
    "landau-16-pz16-random": (landau_pz_random_case, (16, 16)),
}


@pytest.mark.parametrize("name", KERNEL_RELATION_CASES)
def test_kernel_relation_check_matches_dense_split(name):
    build, args = KERNEL_RELATION_CASES[name]
    kernel, h = build(*args)
    rep = kernel_relation_check(kernel, h)
    even_dev, odd_dev = dense_kernel_relation(kernel, h)
    assert rep.passed
    assert abs(rep.even_deviation - even_dev) <= 1e-12
    assert abs(rep.odd_deviation - odd_dev) <= 1e-12


def test_kernel_relation_check_fails_on_shifted_energies():
    # H + 0.3: the same eigenvectors, so the same Lambda and branch
    # vectors, but eps and chi read energies shifted by 0.3
    kernel, h = free_position_case(128, 8.0)
    shifted = OperatorMatrix(h.mat + 0.3 * np.eye(h.mat.shape[0]), h.basis)
    rep = kernel_relation_check(kernel, shifted)
    even_dev, odd_dev = dense_kernel_relation(kernel, shifted)
    assert not rep.passed
    assert min(rep.even_deviation, rep.odd_deviation) > 1e-3
    assert abs(rep.even_deviation - even_dev) <= 1e-12
    assert abs(rep.odd_deviation - odd_dev) <= 1e-12


def whole_array_kernel_relation(kernel: np.ndarray, h: OperatorMatrix) -> KernelRelationReport:
    """`kernel_relation_check` on (M, M) arrays whole: eps, chi, both reductions and deviations at once."""
    vecs, w = _branch_pairs(_mode_blocks(h))
    _require_sign_gap(w)
    energies = w[0].real
    eps = eps_from_energies(energies[:, None], energies[None, :])
    chi = chi_from_energies(energies[:, None], energies[None, :])
    left = vecs[0].conj() * charge_metric(1)
    even_red, odd_red = kernel * (left @ vecs.transpose(0, 2, 1))
    return KernelRelationReport(
        float(np.abs(even_red - eps * kernel).max()), float(np.abs(odd_red - chi * kernel).max()), 1e-8
    )


@pytest.mark.parametrize(
    "build, args", [(free_position_case, (m, 12.0)) for m in (16, 64, 256)] + [(landau_ladder_case, (100,))],
    ids=["free-16", "free-64", "free-256", "landau-100"],
)
def test_kernel_relation_check_matches_whole_arrays_bit_for_bit(build, args):
    # the check runs its elementwise stage on blocks of 32 kernel rows
    # (M = 100 leaves a ragged last block); each deviation is the maximum
    # of the same elementwise values, so the report is the same bits: for
    # the case's kernel, for a random kernel under a shifted H, which
    # fails, and for the identity under H - 1.5, whose + branch energies
    # have mixed signs, so sqrt(E_j E_k) is NaN off the diagonal of every
    # block and both deviations must read NaN and fail, not drop it
    kernel, h = build(*args)
    m = h.n_modes
    rng = np.random.default_rng(m)
    noise = rng.standard_normal((m, m)) + 1j * rng.standard_normal((m, m))
    shifted = OperatorMatrix(h.mat + 0.3 * np.eye(2 * m), h.basis)
    mixed = OperatorMatrix(h.mat - 1.5 * np.eye(2 * m), h.basis)
    with np.errstate(invalid="ignore"):
        for k, hamiltonian in ((kernel, h), (noise, shifted), (np.eye(m), mixed)):
            blocked = kernel_relation_check(k, hamiltonian)
            whole = whole_array_kernel_relation(k, hamiltonian)
            assert [x.hex() for x in (blocked.even_deviation, blocked.odd_deviation)] == [
                x.hex() for x in (whole.even_deviation, whole.odd_deviation)
            ]
    assert np.isnan(blocked.even_deviation) and np.isnan(blocked.odd_deviation)
    assert not blocked.passed


def dense_position_kernel(psgrid: PhaseSpaceGrid) -> np.ndarray:
    """F^-1 diag(q) F as the product of the two dense transform matrices."""
    fwd = fourier_pair(np.eye(psgrid.momentum.n_points), psgrid, "forward").T
    inv = fourier_pair(np.eye(psgrid.n_q), psgrid, "inverse").T
    return inv @ (psgrid.q_nodes[:, None] * fwd)


@pytest.mark.parametrize("p_max", [1.0, 7.7, 20.0])
@pytest.mark.parametrize("hbar", [1.0, 0.7])
@pytest.mark.parametrize("n", [8, 16, 32, 64, 128, 256, 512, 1024])
def test_position_kernel_matches_dense_product(n, hbar, p_max):
    # measured: at most 1.1e-15 of max |K| off the product and 1.2e-14 of
    # q_max off the nodes over these grids
    ps = PhaseSpaceGrid.conjugate(MomentumGrid(n, p_max), hbar)
    kernel = position_kernel(ps)
    assert np.abs(kernel - dense_position_kernel(ps)).max() <= 1e-13 * np.abs(kernel).max()
    assert np.array_equal(kernel, kernel.conj().T)
    assert np.abs(np.linalg.eigvalsh(kernel) - np.sort(ps.q_nodes)).max() <= 1e-12 * ps.q_max


def test_position_kernel_takes_no_dense_transform(monkeypatch):
    def dense(*args):
        raise AssertionError("position_kernel reached fourier_pair")

    monkeypatch.setattr(grids_module, "fourier_pair", dense)
    monkeypatch.setattr(opmatrix_module, "fourier_pair", dense, raising=False)
    ps = PhaseSpaceGrid.conjugate(MomentumGrid(64, 8.0))
    assert position_kernel(ps).shape == (64, 64)


def kron_hamiltonian(pi2: np.ndarray, units: UnitSystem) -> np.ndarray:
    """tau3 (mc^2 + K) + i tau2 K, K = Pi^2 / 2m, as two Kronecker products cast to complex."""
    k = pi2 / (2.0 * units.m)
    tau3 = np.array([[1.0, 0.0], [0.0, -1.0]])
    itau2 = np.array([[0.0, 1.0], [-1.0, 0.0]])
    return (np.kron(tau3, np.diag(units.mc2 + k)) + np.kron(itau2, np.diag(k))).astype(complex)


def landau_pi2(model: EnergyModel, n_levels: int, pz_grid: MomentumGrid | None) -> np.ndarray:
    u = model.units
    levels = (2.0 * np.arange(n_levels) + 1.0) * u.hbar * u.m * model.omega
    return levels if pz_grid is None else (levels[:, None] + pz_grid.nodes[None, :] ** 2).ravel()


@pytest.mark.parametrize("units", [NATURAL, UnitSystem(hbar=0.7, c=0.8, m=1.3)], ids=["natural", "scaled"])
@pytest.mark.parametrize("n", [8, 64, 256])
def test_free_hamiltonian_matches_kron_form_to_the_byte(n, units):
    # node n/2 is p = 0, where -K would write -0.0 on the lower-left
    # diagonal and the Kronecker sum writes +0.0
    grid = MomentumGrid(n, 7.3)
    assert grid.nodes[n // 2] == 0.0
    want = kron_hamiltonian(grid.nodes**2, units)
    assert not np.signbit(want[n + n // 2, n // 2].real)
    assert build_hamiltonian(EnergyModel.free(units), grid=grid).mat.tobytes() == want.tobytes()


@pytest.mark.parametrize(
    "model, n_levels, pz_grid",
    [
        (EnergyModel.landau(0.3), 40, None),
        (EnergyModel.landau(0.3), 8, MomentumGrid(32, 4.0)),
        (EnergyModel.landau(1.0, UnitSystem(hbar=0.7, c=0.8, m=1.3)), 16, MomentumGrid(16, 2.5)),
    ],
    ids=["levels", "pz", "pz-scaled"],
)
def test_landau_hamiltonian_matches_kron_form_to_the_byte(model, n_levels, pz_grid):
    want = kron_hamiltonian(landau_pi2(model, n_levels, pz_grid), model.units)
    assert build_hamiltonian(model, n_levels=n_levels, pz_grid=pz_grid).mat.tobytes() == want.tobytes()


def loop_modulation_peaks(series, rel_threshold=1e-8):
    r = series.radius
    dt = series.times[1] - series.times[0]
    detrended = r - r.mean()
    scale = np.abs(r).max()
    if scale == 0 or np.abs(detrended).max() < rel_threshold * scale:
        return []
    spec = np.abs(np.fft.rfft(detrended))
    freqs = 2.0 * np.pi * np.fft.rfftfreq(len(r), dt)
    floor = rel_threshold * scale * len(r)
    peaks = []
    for i in range(1, len(spec) - 1):
        if spec[i] > spec[i - 1] and spec[i] >= spec[i + 1] and spec[i] > floor:
            peaks.append(SpectralPeak(frequency=float(freqs[i]), amplitude=float(spec[i])))
    peaks.sort(key=lambda pk: -pk.amplitude)
    return peaks


@pytest.mark.filterwarnings("ignore::fvps.errors.ResolutionWarning")
@pytest.mark.parametrize("b, alpha, t_max", [(0.5, 3, 1300), (0.2, 3, 3500), (0.05, 4, 20000)])
def test_modulation_peaks_match_loop(b, alpha, t_max):
    series, peaks, _ = run_rotator(b, alpha, t_max, 1.0)
    assert len(peaks) > 1
    assert peaks == loop_modulation_peaks(series)


def orbit_terms(state, model, force_linear_spectrum):
    """Level gaps g_n and weights w_n of <A(t)> = sum_n w_n exp(-i g_n t)."""
    c = state.coeffs
    n = np.arange(len(c))
    u = model.units
    if force_linear_spectrum:
        energies = u.hbar * model.omega * (n + 0.5)
    else:
        energies = landau_energy(n, 0.0, model.energy_model)
    gaps = (energies[1:] - energies[:-1]) / u.hbar
    weights = np.conj(c[:-1]) * c[1:] * _even_superdiagonal(model.energy_model, len(c))
    return gaps, weights


def direct_orbit_amplitude(times, gaps, weights):
    """exp(-1j * outer(times, gaps)) @ weights, over equal blocks of at most 1024 times."""
    blocks = np.array_split(times, -(-len(times) // 1024))
    return np.concatenate([np.exp(-1j * np.outer(block, gaps)) @ weights for block in blocks])


def weak_field_case():
    """Criterion 8's b = 1e-4 series: 108 226 samples at dt = T_c / 8."""
    model = RotatorModel(b=1e-4, n_max=64)
    return model, 3.0, 64, 8.5e8, 2 * np.pi / (8 * model.omega), False


ORBIT_CASES = [
    pytest.param(RotatorModel(b=0.5, n_max=n_levels), alpha, n_levels, float(t_max), 1.0, False,
                 id=f"T{t_max}-N{n_levels}")
    for t_max in (2, 3, 1024, 1025, 1300, 2048)
    for n_levels, alpha in ((63, 3.0), (127, 5.0), (255, 8.0))
] + [
    pytest.param(RotatorModel(b=0.5, n_max=64), 3.0, 64, 85000.0, 1.0, True, id="linear-T85000"),
    pytest.param(*weak_field_case(), id="weak-T108226"),
]


# measured: 0.33 of the bound on the weak-field series, at most 0.05 on
# every other case
@pytest.mark.parametrize("model, alpha, n_levels, t_max, dt, linear", ORBIT_CASES)
def test_orbit_series_matches_direct_sum(model, alpha, n_levels, t_max, dt, linear):
    state = rotator_coherent_state(alpha, model.energy_model, n_max=n_levels)
    series = orbit_series(state, model, t_max=t_max, dt=dt, force_linear_spectrum=linear)
    gaps, weights = orbit_terms(state, model, linear)
    assert len(gaps) == n_levels
    scale = np.sqrt(2.0) * model.ladder_length
    ref = scale * direct_orbit_amplitude(series.times, gaps, weights)
    rounding = np.finfo(float).eps * (len(gaps) + np.abs(gaps).max() * t_max)
    bound = 2 * rounding * scale * np.abs(weights).sum()
    assert np.abs(series.x + 1j * series.y - ref).max() <= bound
    assert np.abs(series.radius - np.abs(ref)).max() <= bound
