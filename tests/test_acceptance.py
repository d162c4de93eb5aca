"""Acceptance criteria, one test per criterion, at their stated tolerances.

Each test prints a `[criterion N] PASS/FAIL` line (visible with -s or -rA).
Criterion 3's fluctuation-localization clause is asserted exactly as
stated but marked as a strict expected failure: the measured mass
fraction within |p| < 2 mc is ~0.1 for any strongly localized packet
because the kernel deviation vanishes identically at p = 0 and rides the
correlation ridge P ~ +-2p out to the packet's momentum width; the
clause contradicts the negative-dispersion clause of the same criterion,
which requires that width to be >> mc.  See the fluctuation test body
for the measurement.
"""

import time
import warnings

import numpy as np
import pytest

from fvps import (
    ChargeBranchState,
    EPS_UNITY,
    EnergyModel,
    MomentumGrid,
    PhaseSpaceGrid,
    ResolutionWarning,
    RotatorModel,
    build_hamiltonian,
    charge_invariant,
    deformation_f,
    deformed_commutator,
    energy,
    eps_factor,
    even_part,
    evolve_even,
    evolve_timestep_reference,
    gaussian_state,
    interference_gain,
    kernel_relation_check,
    modulation_depth,
    modulation_spectrum,
    momentum_kernel,
    moments,
    newton_wigner_matrix,
    odd_part,
    orbit_series,
    overlap_penalty,
    pair_energy,
    PairState,
    phase_space_quadrature,
    position_kernel,
    purity_check,
    purity_rhs,
    quadrature,
    reconstruct_kernel,
    rotator_coherent_state,
    sign_operator,
    translational_coupling,
    wigner_even,
)
from fvps.cli import effective_mass_ratio
from fvps.moyal import classical_limit_gap


def report(num, ok, detail):
    print(f"[criterion {num:2d}] {'PASS' if ok else 'FAIL'}: {detail}")


def test_criterion_1_eps_consistency():
    t0 = time.time()
    h = 1e-4
    p = np.linspace(-4.0, 4.0, 64)
    p1, p2 = np.meshgrid(p, p, indexing="ij")
    le = lambda a, b: np.log(eps_factor(a, b))
    mixed = (
        le(p1 + h, p2 + h) - le(p1 + h, p2 - h) - le(p1 - h, p2 + h) + le(p1 - h, p2 - h)
    ) / (4 * h * h)
    dev = np.abs(mixed - purity_rhs(p1, p2)).max()
    elapsed = time.time() - t0
    ok = dev < 1e-6 and elapsed < 1.0
    report(1, ok, f"eps-criterion consistency: max dev {dev:.2e} (tol 1e-6), {elapsed:.2f}s")
    assert dev < 1e-6
    assert elapsed < 1.0


def test_criterion_2_purity():
    t0 = time.time()
    grid = MomentumGrid(512, 10.0)
    ps = PhaseSpaceGrid.conjugate(grid)
    pure = purity_check(wigner_even(gaussian_state(grid, lam=1.0), +1, ps), ps)

    g256 = MomentumGrid(256, 10.0)
    ps256 = PhaseSpaceGrid.conjugate(g256)
    w_mix = 0.5 * (
        wigner_even(gaussian_state(g256, sigma=1.0, q_bar=2.0), +1, ps256)
        + wigner_even(gaussian_state(g256, sigma=1.0, q_bar=-2.0), +1, ps256)
    )
    mixture = purity_check(w_mix, ps256)

    unity = purity_check(
        wigner_even(gaussian_state(g256, lam=1.0), +1, ps256, eps_mode=EPS_UNITY), ps256
    )
    elapsed = time.time() - t0
    ok = (
        pure.max_deviation < 1e-4
        and mixture.max_deviation > 1e-1
        and unity.max_lhs < 1e-6
        and unity.max_rhs > 1e-2
        and elapsed < 5.0
    )
    report(
        2,
        ok,
        f"purity: pure {pure.max_deviation:.2e} (<1e-4), mixture "
        f"{mixture.max_deviation:.2e} (>1e-1), eps=1 LHS {unity.max_lhs:.2e} ~ 0 "
        f"vs RHS {unity.max_rhs:.2e} != 0, {elapsed:.2f}s",
    )
    assert pure.max_deviation < 1e-4
    assert mixture.max_deviation > 1e-1
    assert unity.max_lhs < 1e-6
    assert unity.max_rhs > 1e-2
    assert elapsed < 5.0


_FIG1 = {}


def _fig1_fields():
    """512x512 strongly localized packet fields, built once and timed."""
    if not _FIG1:
        t0 = time.time()
        grid = MomentumGrid(512, 72.5)
        ps = PhaseSpaceGrid.conjugate(grid)
        st = gaussian_state(grid, lam=8.0)
        w = wigner_even(st, +1, ps)
        w_unit = wigner_even(st, +1, ps, eps_mode=EPS_UNITY)
        _FIG1.update(ps=ps, w=w, w_unit=w_unit, build_time=time.time() - t0)
    return _FIG1


def test_criterion_3_fig1_regime():
    fields = _fig1_fields()
    t0 = time.time()
    ps, w = fields["ps"], fields["w"]
    m = moments(w, ps)
    total = phase_space_quadrature(w, ps).real
    elapsed = fields["build_time"] + (time.time() - t0)
    ok = m.var_q < 0 and abs(total - 1.0) < 1e-8 and elapsed < 10.0
    report(
        3,
        ok,
        f"fig-1 regime (512x512): var_q {m.var_q:.5f} < 0, integral-1 "
        f"{abs(total - 1):.1e} (<1e-8), {elapsed:.2f}s incl. field build",
    )
    assert m.var_q < 0
    assert abs(total - 1.0) < 1e-8
    assert elapsed < 10.0


@pytest.mark.xfail(
    strict=True,
    reason=(
        "unattainable bound: the eps-deviation of the correlation vanishes at "
        "p=0 (eps(P/2,-P/2)=1) and peaks on the ridge P~2p, so |W - W_eps1| "
        "mass tracks the packet momentum width (~5.7 mc at lambda=8); every "
        "mass measure gives ~9-11% within |p|<2mc, and negative dispersion "
        "requires that width to exceed mc, so this bound cannot coexist with "
        "criterion 3's variance clause. Measured fraction printed below."
    ),
)
def test_criterion_3_fluctuation_localization():
    fields = _fig1_fields()
    ps, w, w_unit = fields["ps"], fields["w"], fields["w_unit"]
    diff = np.abs(w - w_unit)
    pmass = diff.sum(axis=1)
    frac = pmass[np.abs(ps.p_nodes) < 2.0].sum() / pmass.sum()
    report(3, frac >= 0.9, f"fluctuation mass within |p|<2mc: {frac:.3f} (claimed >= 0.9)")
    assert frac >= 0.9


def test_criterion_4_evolution_equivalence():
    t0 = time.time()
    grid = MomentumGrid(256, 20.0)
    ps = PhaseSpaceGrid.conjugate(grid)
    st = gaussian_state(grid, lam=2.0)
    w0 = wigner_even(st, +1, ps)
    w_prop = evolve_even(w0, energy, 5.0, ps)
    phi_t = st.phi_plus * np.exp(-1j * energy(grid.nodes) * 5.0)
    w_wave = wigner_even(ChargeBranchState(grid, phi_plus=phi_t), +1, ps)
    dev = np.abs(w_prop - w_wave).max()

    g = MomentumGrid(128, 5.0)
    psg = PhaseSpaceGrid.conjugate(g)
    w_small = wigner_even(gaussian_state(g, sigma=2.0, p_bar=0.5), +1, psg)
    quad = lambda p: p**2 / 2
    exact = evolve_even(w_small, quad, 2.0, psg)
    e1 = np.abs(evolve_timestep_reference(w_small, quad, 2.0, 400, psg) - exact).max()
    e2 = np.abs(evolve_timestep_reference(w_small, quad, 2.0, 800, psg) - exact).max()
    order = np.log2(e1 / e2)
    elapsed = time.time() - t0
    ok = dev < 1e-8 and abs(order - 2.0) < 0.2 and elapsed < 10.0
    report(
        4,
        ok,
        f"evolution: spectral-vs-wavefunction {dev:.2e} (<1e-8), reference "
        f"stepper order {order:.2f} (2 +- 0.2), {elapsed:.2f}s",
    )
    assert dev < 1e-8
    assert abs(order - 2.0) < 0.2
    assert elapsed < 10.0


def test_criterion_5_even_odd_oracle():
    t0 = time.time()
    grid = MomentumGrid(128, 7.0)  # 2M = 256
    ps = PhaseSpaceGrid.conjugate(grid)
    h = build_hamiltonian(EnergyModel.free(), grid=grid)
    lam = sign_operator(h)
    lam2 = np.abs(lam.mat @ lam.mat - np.eye(256)).max()

    q_even = even_part(charge_invariant(position_kernel(ps), h.basis), lam)
    nw = newton_wigner_matrix(ps)
    nw_dev = 0.0
    for p_bar, q_bar, s in [(0.0, 0.0, 1.2), (1.0, 2.0, 1.2), (-1.0, -1.0, 1.6), (0.5, 0.3, 2.0)]:
        g = np.exp(-(s**2) * (grid.nodes - p_bar) ** 2 / 2 - 1j * q_bar * grid.nodes)
        g /= np.sqrt(quadrature(np.abs(g) ** 2, grid).real)
        for branch in (0, 1):
            psi = np.zeros(256, dtype=complex)
            psi[branch * 128 : (branch + 1) * 128] = g
            nw_dev = max(nw_dev, np.abs((q_even.mat - nw.mat) @ psi).max())

    p_odd = np.abs(odd_part(charge_invariant(momentum_kernel(grid), h.basis), lam).mat).max()

    kernels = {
        "position": position_kernel(ps),
        "momentum-function": np.diag(np.cos(grid.nodes)).astype(complex),
        "gaussian-well": None,
    }
    from fvps import fourier_pair

    n = grid.n_points
    fwd = np.array([fourier_pair(np.eye(n)[k], ps, "forward") for k in range(n)]).T
    inv = np.array([fourier_pair(np.eye(ps.n_q)[m], ps, "inverse") for m in range(ps.n_q)]).T
    kernels["gaussian-well"] = inv @ (np.exp(-ps.q_nodes**2 / 2)[:, None] * fwd)
    kr_dev = max(
        max(rep.even_deviation, rep.odd_deviation)
        for rep in (kernel_relation_check(k, h) for k in kernels.values())
    )
    elapsed = time.time() - t0
    ok = lam2 < 1e-10 and nw_dev < 1e-8 and p_odd < 1e-10 and kr_dev < 1e-8 and elapsed < 5.0
    report(
        5,
        ok,
        f"even/odd oracle (2M=256): Lambda^2-I {lam2:.1e} (<1e-10), even position vs "
        f"Newton-Wigner {nw_dev:.1e} (<1e-8), momentum odd part {p_odd:.1e} (<1e-10), "
        f"kernel relation {kr_dev:.1e} (<1e-8, 3 symbols), {elapsed:.2f}s",
    )
    assert lam2 < 1e-10
    assert nw_dev < 1e-8
    assert p_odd < 1e-10
    assert kr_dev < 1e-8
    assert elapsed < 5.0


def test_criterion_6_effective_mass():
    t0 = time.time()
    lams = [0.05, 0.5, 1.0, 2.0, 4.0]
    ratios = [effective_mass_ratio(lam, n_points=256) for lam in lams]
    elapsed = time.time() - t0
    monotone = all(a < b for a, b in zip(ratios, ratios[1:]))
    ok = ratios[-1] > 1.05 and abs(ratios[0] - 1.0) < 0.01 and monotone and elapsed < 10.0
    detail = ", ".join(f"{l:g}: {r:.4f}" for l, r in zip(lams, ratios))
    report(6, ok, f"effective mass m_eff/m {{{detail}}}, monotone={monotone}, {elapsed:.2f}s")
    assert ratios[-1] > 1.05
    assert abs(ratios[0] - 1.0) < 0.01
    assert monotone
    assert elapsed < 10.0


def test_criterion_7_deformed_algebra():
    t0 = time.time()
    model = RotatorModel(b=1.0, n_max=128)
    diag = deformed_commutator(model)
    f1 = float(deformation_f(1, model.energy_model))
    dev_strong = np.abs(diag - 1.0).max()
    entry0_err = abs(diag[0] - f1**2)
    diag_weak = deformed_commutator(RotatorModel(b=1e-8, n_max=128))
    dev_weak = np.abs(diag_weak - 1.0).max()
    elapsed = time.time() - t0
    ok = dev_strong > 1e-2 and entry0_err < 1e-5 and dev_weak < 1e-5 and elapsed < 5.0
    report(
        7,
        ok,
        f"deformed algebra (n_max=128): max|[A,A+]-1| {dev_strong:.3f} (>1e-2) at b=1, "
        f"entry0-f(1)^2 {entry0_err:.1e} (<1e-5), b=1e-8 dev {dev_weak:.1e} (<1e-5), "
        f"{elapsed:.2f}s",
    )
    assert dev_strong > 1e-2
    assert entry0_err < 1e-5
    assert dev_weak < 1e-5
    assert elapsed < 5.0


def test_criterion_8_orbit_modulation():
    t0 = time.time()
    model = RotatorModel(b=0.5, n_max=64)
    st = rotator_coherent_state(3.0, model.energy_model, n_max=64)
    ref = orbit_series(st, model, t_max=1300.0, dt=1.0, force_linear_spectrum=True)
    ref_var = (ref.radius.max() - ref.radius.min()) / ref.radius.mean()

    ser = orbit_series(st, model, t_max=1300.0, dt=1.0)
    depth = modulation_depth(ser)
    with warnings.catch_warnings():
        warnings.simplefilter("ignore", ResolutionWarning)
        peaks = modulation_spectrum(ser)
    env_ratio = peaks[0].frequency / model.omega

    weak = RotatorModel(b=1e-4, n_max=64)
    st_w = rotator_coherent_state(3.0, weak.energy_model, n_max=64)
    ser_w = orbit_series(st_w, weak, t_max=8.5e8, dt=2 * np.pi / (8 * weak.omega))
    with warnings.catch_warnings():
        warnings.simplefilter("ignore", ResolutionWarning)
        peaks_w = modulation_spectrum(ser_w)
    env_weak = peaks_w[0].frequency / weak.omega
    elapsed = time.time() - t0
    ok = (
        ref_var < 1e-10
        and depth > 0.01
        and env_ratio < 0.2
        and env_weak < 1e-3
        and elapsed < 30.0
    )
    report(
        8,
        ok,
        f"orbit modulation: reference variation {ref_var:.1e} (<1e-10), depth "
        f"{depth:.3f} (>0.01), envelope {env_ratio:.4f} omega (<0.2), b=1e-4 envelope "
        f"{env_weak:.2e} omega (<1e-3), {elapsed:.2f}s",
    )
    assert ref_var < 1e-10
    assert depth > 0.01
    assert env_ratio < 0.2
    assert env_weak < 1e-3
    assert elapsed < 30.0


def test_criterion_9_noncommutativity():
    t0 = time.time()
    pz = MomentumGrid(32, 6.0)
    strong = translational_coupling(RotatorModel(b=1.0, n_max=16, pz_grid=pz))
    weak = translational_coupling(RotatorModel(b=1e-8, n_max=16, pz_grid=pz))
    elapsed = time.time() - t0
    # soundness, unbounded: the b=1 norm at 64 levels x 128 p_z, and the b=1e-8
    # norm, which grows with the level count
    strong_fine = translational_coupling(RotatorModel(b=1.0, n_max=64, pz_grid=MomentumGrid(128, 6.0)))
    weak_levels = [translational_coupling(RotatorModel(b=1e-8, n_max=n, pz_grid=pz)) for n in (32, 64)]
    ok = strong > 1e-3 and weak < 1e-4 and elapsed < 60.0
    report(
        9,
        ok,
        f"noncommutativity (joint dim 1024): ||[A_even, Z_even]|| {strong:.4f} (>1e-3) "
        f"at b=1, {weak:.1e} (<1e-4) at b=1e-8, {elapsed:.2f}s; 64 levels x 128 p_z moves "
        f"the b=1 norm by {abs(strong_fine / strong - 1):.1e}; b=1e-8 norm at 16/32/64 levels "
        f"{weak:.2e}/{weak_levels[0]:.2e}/{weak_levels[1]:.2e}",
    )
    assert strong > 1e-3
    assert weak < 1e-4
    assert elapsed < 60.0


def test_criterion_10_fermi_softening():
    t0 = time.time()
    nonrel = overlap_penalty(1.0, "nonrel")
    rel = overlap_penalty(1.0, "rel")
    ratio_tail = overlap_penalty(50.0, "rel") / overlap_penalty(50.0, "nonrel")
    e_f = pair_energy(PairState(0.0, 10.0, 1.0, "fermi"), "rel")
    e_b = pair_energy(PairState(0.0, 10.0, 1.0, "bose"), "rel")
    elapsed = time.time() - t0
    ok = (
        abs(nonrel - 0.5) < 1e-10
        and rel < nonrel
        and rel / nonrel < 0.95
        and abs(ratio_tail - 1.0) < 0.01
        and abs(e_f - e_b) < 1e-10
        and elapsed < 5.0
    )
    report(
        10,
        ok,
        f"fermi softening: penalty(rel) {rel:.4f} < {nonrel:.2f} (ratio "
        f"{rel / nonrel:.3f} < 0.95), 50-lambda_c ratio {ratio_tail:.4f} (1 +- 0.01), "
        f"statistics gap at 10 sigma {abs(e_f - e_b):.1e} (<1e-10), {elapsed:.2f}s",
    )
    assert abs(nonrel - 0.5) < 1e-10
    assert rel < nonrel
    assert rel / nonrel < 0.95
    assert abs(ratio_tail - 1.0) < 0.01
    assert abs(e_f - e_b) < 1e-10
    assert elapsed < 5.0


def test_criterion_11_classical_limit_gap():
    t0 = time.time()
    grid = MomentumGrid(32, np.pi)
    ps = PhaseSpaceGrid.conjugate(grid)

    def band1d(seed, n, kmax=3):
        rng = np.random.default_rng(seed)
        c = np.zeros(n, dtype=complex)
        for a in range(-kmax, kmax + 1):
            c[a % n] = rng.normal() + 1j * rng.normal()
        return np.fft.ifft(c).real

    fq = band1d(7, 32)[None, :] * np.ones((32, 1))
    gp = band1d(8, 32)[:, None] * np.ones((1, 32))
    hbars = [1e-1, 3e-2, 1e-2, 3e-3, 1e-3]

    a_c = np.einsum("ij,pq->ijpq", np.diag([1.0, 2.0]), fq).astype(complex)
    b_c = np.einsum("ij,pq->ijpq", np.eye(2), gp).astype(complex)
    commuting = classical_limit_gap(a_c, b_c, ps, hbars)

    sx = np.array([[0.0, 1.0], [1.0, 0.0]])
    sy = np.array([[0.0, -1j], [1j, 0.0]])
    a_n = np.einsum("ij,pq->ijpq", sx, fq).astype(complex)
    b_n = np.einsum("ij,pq->ijpq", sy, gp).astype(complex)
    noncommuting = classical_limit_gap(a_n, b_n, ps, hbars)
    elapsed = time.time() - t0
    ok = (
        abs(commuting.exponent - 2.0) < 0.2
        and abs(noncommuting.exponent + 1.0) < 0.2
        and elapsed < 10.0
    )
    report(
        11,
        ok,
        f"classical limit: commuting exponent {commuting.exponent:.3f} (2 +- 0.2), "
        f"non-commuting {noncommuting.exponent:.3f} (-1 +- 0.2), {elapsed:.2f}s",
    )
    assert abs(commuting.exponent - 2.0) < 0.2
    assert abs(noncommuting.exponent + 1.0) < 0.2
    assert elapsed < 10.0


def test_criterion_12_interference_gain():
    t0 = time.time()
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
    gain = np.abs(k_rel[c_idx, j_idx]) / np.abs(k_unit[c_idx, j_idx])
    gain_err = abs(gain - interference_gain(pa, pb))

    p = np.linspace(-20, 20, 101)
    eps_min = eps_factor(p[:, None], p[None, :]).min()
    elapsed = time.time() - t0
    ok = gain_err < 1e-3 and gain >= 1.0 and eps_min >= 1.0 - 1e-12 and elapsed < 5.0
    report(
        12,
        ok,
        f"interference gain: end-to-end {gain:.6f} vs eps {interference_gain(pa, pb):.6f} "
        f"(dev {gain_err:.1e} < 1e-3), min eps on grid {eps_min:.12f} >= 1, {elapsed:.2f}s",
    )
    assert gain_err < 1e-3
    assert gain >= 1.0
    assert eps_min >= 1.0 - 1e-12
    assert elapsed < 5.0
