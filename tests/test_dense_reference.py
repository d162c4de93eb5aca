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
the reference's maximum on full-band random symbols.

The purity criterion, which evaluates its stencils on the bounding box
of the kernel window only, is refereed by the full-array evaluation it
replaced: every report field must be bit-identical.

Even-field evolution, which runs a real FFT over the n/2 + 1 independent
modes, is refereed by the full complex-FFT propagation it replaced, to
1e-14 of the field's maximum; `moments`, which works from the two
marginals, by the five `expectation` integrals it replaced, to 1e-12
relative or 1e-12 of the grid window's scale.

The exact polynomial algebra is refereed by the code it replaced: the
pointwise product as one shifted copy of b per coefficient of a,
evaluation as a sum of monomials, and the star product as the
bidifferential series summed order by order until every term vanishes.
Random complex polynomials up to 5 x 5 coefficients must agree to 1e-14
of the reference's maximum, and the star product must be associative to
1e-14 of the product's maximum.

The modulation spectrum's vectorised peak search is refereed by the
per-bin loop and amplitude sort it replaced: the peak lists must be
equal, frequencies and amplitudes bit for bit.
"""

from math import comb, factorial

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from numpy.polynomial.polynomial import polyder

from fvps import (
    EPS_UNITY,
    NATURAL,
    ChargeBranchState,
    MomentumGrid,
    PhaseSpaceGrid,
    PolySymbol,
    UnitSystem,
    chi_factor,
    energy,
    eps_factor,
    evolve_even,
    expectation,
    fine_amplitude,
    fourier_pair,
    gaussian_state,
    moments,
    phase_space_quadrature,
    purity_check,
    purity_rhs,
    reconstruct_kernel,
    wigner_components,
    wigner_even,
    wigner_odd,
)
from fvps.cli import packet_grid, run_rotator
from fvps.rotator import SpectralPeak
from fvps.moyal import moyal_bracket, poisson_bracket, propagator_phases, star_product
from fvps.wigner import Moments, PurityReport

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
        ps = PhaseSpaceGrid.conjugate(packet_grid(lam, p_bar, n_points=256))
        w = wigner_even(gaussian_state(ps.momentum, lam=lam, p_bar=p_bar, q_bar=q_bar), +1, ps)
        got, want = moments(w, ps), expectation_moments(w, ps)
        scale = {"mean_q": ps.q_max, "var_q": ps.q_max**2,
                 "mean_p": ps.momentum.p_max, "var_p": ps.momentum.p_max**2}
        for name, size in scale.items():
            assert getattr(got, name) == pytest.approx(getattr(want, name), rel=1e-12, abs=1e-12 * size)
        if lam == 8.0:
            assert want.var_q < 0

    def test_moments_of_components_use_the_even_total(self, case):
        ps, _, mixed, _ = case
        comps = wigner_components(mixed, ps)
        assert moments(comps, ps) == moments(comps.even_total, ps)


@pytest.mark.parametrize("transform, message", [
    (lambda w, ps: evolve_even(w, energy, 1.0, ps), "evolve_odd"),
    (lambda w, ps: reconstruct_kernel(w, ps), "real even field"),
], ids=["evolve_even", "reconstruct_kernel"])
def test_complex_field_is_rejected(case, transform, message):
    ps, state, _, _ = case
    with pytest.raises(ValueError, match=message):
        transform(wigner_even(state, +1, ps).astype(complex), ps)


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
}


def full_band(rng, shape):
    return rng.normal(size=shape) + 1j * rng.normal(size=shape)


@pytest.mark.parametrize("hbar", [1e-3, 0.7, 1.0, 2.0])
@pytest.mark.parametrize("size", [None, 2])
@pytest.mark.parametrize("grid_name", sorted(STAR_GRIDS))
def test_star_product_matches_mode_loop(grid_name, size, hbar):
    ps = STAR_GRIDS[grid_name]
    shape = (ps.momentum.n_points, ps.n_q) if size is None else (size, size, ps.momentum.n_points, ps.n_q)
    rng = np.random.default_rng(17)
    a, b = full_band(rng, shape), full_band(rng, shape)
    ab, ba = loop_star(a, b, ps, hbar), loop_star(b, a, ps, hbar)
    assert_close(star_product(a, b, ps, hbar), ab, 1e-13)
    assert_close(moyal_bracket(a, b, ps, hbar), (ab - ba) / (1j * hbar), 1e-13)
    assert_close(poisson_bracket(a, b, ps), loop_poisson(a, b, ps), 1e-13)


def loop_poly_mul(a, b):
    """Pointwise product of coefficient arrays: one shifted copy of b per coefficient of a."""
    out = np.zeros((a.shape[0] + b.shape[0] - 1, a.shape[1] + b.shape[1] - 1), dtype=complex)
    for i in range(a.shape[0]):
        for j in range(a.shape[1]):
            if a[i, j] != 0:
                out[i : i + b.shape[0], j : j + b.shape[1]] += a[i, j] * b
    return out


def padded_sum(x, y):
    out = np.zeros((max(x.shape[0], y.shape[0]), max(x.shape[1], y.shape[1])), dtype=complex)
    out[: x.shape[0], : x.shape[1]] += x
    out[: y.shape[0], : y.shape[1]] += y
    return out


def loop_poly_evaluate(c, p, q):
    acc = 0.0
    for i in range(c.shape[0]):
        for j in range(c.shape[1]):
            if c[i, j] != 0:
                acc = acc + c[i, j] * np.asarray(q) ** i * np.asarray(p) ** j
    return acc


def binomial_poly_star(a, b, hbar):
    """Order n of the series sums (-1)^k C(n, k) (d_q^(n-k) d_p^k a)(d_p^(n-k) d_q^k b).

    Orders are added until one has no nonzero derivative pair.
    """
    result = loop_poly_mul(a, b)
    n = 1
    while True:
        term = np.zeros((1, 1), dtype=complex)
        alive = False
        for k in range(n + 1):
            da = polyder(polyder(a, n - k, axis=0), k, axis=1)
            db = polyder(polyder(b, n - k, axis=1), k, axis=0)
            if np.any(da) and np.any(db):
                alive = True
                term = padded_sum(term, (-1) ** k * comb(n, k) * loop_poly_mul(da, db))
        if not alive:
            return result
        result = padded_sum(result, (1j * hbar / 2) ** n / factorial(n) * term)
        n += 1


def random_polys(seed, count, max_shape=5):
    """count random complex coefficient arrays, each axis 1 to max_shape long."""
    rng = np.random.default_rng(seed)
    shapes = rng.integers(1, max_shape + 1, size=(count, 2))
    return [full_band(rng, tuple(shape)) for shape in shapes]


def test_poly_product_and_evaluation_match_loops():
    polys = random_polys(29, 100)
    p, q = np.linspace(-1.5, 1.5, 7)[:, None], np.linspace(-2.0, 2.0, 9)
    for a, b in zip(polys[::2], polys[1::2]):
        assert_close((PolySymbol(a) * PolySymbol(b)).coeffs, loop_poly_mul(a, b), 1e-14)
        assert_close(PolySymbol(a).evaluate(p, q), loop_poly_evaluate(a, p, q), 1e-14)


@pytest.mark.parametrize("hbar", [0.3, 1.0, 1.7])
def test_poly_star_matches_binomial_series(hbar):
    polys = random_polys(31, 200)
    for a, b in zip(polys[::2], polys[1::2]):
        got = star_product(PolySymbol(a), PolySymbol(b), hbar=hbar).coeffs
        assert_close(got, binomial_poly_star(a, b, hbar), 1e-14)


@pytest.mark.parametrize("hbar", [0.3, 1.0, 1.7])
def test_poly_star_is_associative(hbar):
    polys = random_polys(37, 60, max_shape=3)
    for a, b, c in zip(*(map(PolySymbol, polys[k::3]) for k in range(3))):
        lhs = star_product(star_product(a, b, hbar=hbar), c, hbar=hbar).coeffs
        rhs = star_product(a, star_product(b, c, hbar=hbar), hbar=hbar).coeffs
        assert_close(lhs, rhs, 1e-14)


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
    # ~1e-10 rounding residue there) differs at ~1e-6 relative
    ps = PhaseSpaceGrid.conjugate(packet_grid(lam, n_points=n))
    w = wigner_even(gaussian_state(ps.momentum, lam=lam, q_bar=0.3), +1, ps)
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


@pytest.mark.parametrize("window_floor", [0.9999, 1.0, 2.0])
def test_purity_check_below_window_floor_matches_full_array(window_floor):
    # a window too small for any stencil, and an empty window
    ps = PhaseSpaceGrid.conjugate(packet_grid(1.0, n_points=128))
    w = wigner_even(gaussian_state(ps.momentum, lam=1.0), +1, ps)
    with pytest.raises(ValueError) as want:
        full_array_purity_check(w, ps, window_floor=window_floor)
    with pytest.raises(ValueError) as got:
        purity_check(w, ps, window_floor=window_floor)
    assert str(got.value) == str(want.value)


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
