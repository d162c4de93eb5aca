"""The benchmark's three closed-loop workloads: inputs, operations and result checks.

Each workload turns (seed, pass index) into a fixed list of operations.
Every pass holds the same mix of operation kinds and sizes; the seed
draws the order and the continuous parameters inside each stratum, so
runs with different seeds do comparable work.  Operations call fvps
through module attributes (``wigner.wigner_even``, ``cli.main``) so that
the tracer's rebinding sees every call.

Result checks never reuse the code path being timed: they use analytic
values, the package's matrix oracle, or reference values stored in
``reference.json``, always at a stated tolerance rather than by hash.

``python3 perfbench/worker.py --write-reference`` regenerates
``reference.json`` from the current source tree.
"""

import contextlib
import io
import json
import math
import shutil
import warnings
from pathlib import Path

import numpy as np

from fvps import cli, grids, moyal, opmatrix, rotator, spectrum, states, wigner

REFERENCE_PATH = Path(__file__).with_name("reference.json")

# Tolerances of the result checks.
NORM_TOL = 1e-9  # W normalisation, mean momentum, evolved norm (all analytic)
MOMENT_RTOL = 1e-9  # moments() against independent sums over the same field
REF_RTOL = 1e-7  # stored reference values of the cli outputs and oracle results
CSV_NORM_TOL = 1e-6  # normalisation re-read from CSV text written with repr()
PURITY_RTOL = 0.15  # purity criterion at the coarsest grid (n = 512, lam = 8) reads 0.11
ORACLE_TOL = 1e-8  # orbit_series against orbit_series_matrix_oracle
COMMUTATOR_TOL = 1e-9  # [A, A+] diagonal against (n+1) f(n+1)^2 - n f(n)^2
STAR_RTOL = 1e-10  # integral of a star product against that of the pointwise product


class Workload:
    """One closed-loop client: the next operation starts when the last one returns."""

    name = ""
    pool_workers = 0
    # wall seconds of one pass, checks and calibration included, on the
    # reference machine; a run makes round(--seconds / pass_seconds) passes
    pass_seconds = 1.0
    # a callable returning None or a failure description, run once per pass
    # outside the timed mix (see CliOutputs.probe)
    probe = None

    def __init__(self, seed, workdir):
        self.seed = seed
        self.workdir = Path(workdir)
        self.bytes_written = 0

    def rng(self, index):
        return np.random.default_rng([self.seed, index])

    def pass_ops(self, index):
        """Operations of pass `index`, as (kind, params) pairs."""
        raise NotImplementedError

    def warm_up_ops(self):
        """Small operations of every kind, run once before timing starts."""
        raise NotImplementedError

    def prepare(self, op):
        """Untimed set-up of one operation; returns the argument of `run`."""
        return op

    def run(self, op):
        """The timed call into fvps; returns whatever `check` needs."""
        raise NotImplementedError

    def check(self, op, result):
        """Problems found in the result; an empty list means it is correct."""
        raise NotImplementedError


def _close(value, expected, rtol, atol=0.0):
    return abs(value - expected) <= atol + rtol * abs(expected)


# ---------------------------------------------------------------------------
# cli_outputs: the README commands at their documented sizes
# ---------------------------------------------------------------------------

CLI_COMMANDS = {
    "wigner_fig1": ["wigner", "--preset", "fig1"],
    **{f"wigner_matrix_{lam}": ["wigner", "--lambda", lam, "--matrix"] for lam in ("0.1", "1", "4")},
    **{
        f"evolve_{lam}_{t}": ["evolve", "--lambda", lam, "--t", t, "--check"]
        for lam in ("0.5", "2", "4")
        for t in ("1", "5")
    },
    "coherent": ["coherent"],
    "rotator": ["rotator", "--b", "0.5", "--alpha", "3", "--t-max", "1300", "--dt", "1.0"],
    "entangle": ["entangle", "--sigmas", "0.5,1,2"],
    "factors": ["factors", "--p1", "0", "--p2", "1.7320508"],
}

# `entangle --jobs 2` hands a local closure to a process pool and raises
# "Can't pickle local object" (ROADMAP item 5).  Timed operations must not
# fail, so it runs once per pass as a probe outside the timed mix; its
# exceptions are reported on their own and counted in cli.errors.
PROBE_COMMAND = ["entangle", "--sigmas", "0.5,1,2", "--jobs", "2"]

CLI_WARM_UP = [
    ["wigner", "--lambda", "1", "--n-points", "128"],
    ["wigner", "--lambda", "1", "--n-points", "128", "--matrix"],
    ["evolve", "--lambda", "1", "--t", "1", "--n-points", "128", "--check"],
    ["coherent", "--lambdas", "1"],
    ["rotator", "--b", "0.5", "--alpha", "3", "--t-max", "100", "--dt", "1.0"],
    ["entangle", "--sigmas", "1"],
    ["factors", "--p1", "0", "--p2", "1"],
]


def _out_name(argv):
    return "out.json" if argv[0] in ("evolve", "factors") else "out.csv"


def _read_csv(path):
    """(metadata dict, header fields, data lines) of an fvps CSV file."""
    meta, header, data = {}, None, []
    with open(path) as fh:
        for line in fh.read().splitlines():
            if header is None and line.startswith("#"):
                key, _, value = line[1:].strip().partition("=")
                meta[key] = value
            elif header is None:
                header = line.split(",")
            else:
                data.append(line)
    return meta, header, data


def parse_cli_output(key, outdir):
    """Comparable values of one command's output files."""
    kind = key.split("_")[0]
    out = Path(outdir) / ("out.json" if kind in ("evolve", "factors") else "out.csv")
    if kind == "wigner":
        meta, header, data = _read_csv(out)
        n = int(meta["n_points"])
        if key == "wigner_fig1":
            first, second = data[0].split(","), data[1].split(",")
            dq = float(second[0]) - float(first[0])
            dp = float(data[n].split(",")[1]) - float(first[1])
            total = math.fsum(float(line.rpartition(",")[2]) for line in data)
            cells = len(data)
        else:
            dq = float(header[2]) - float(header[1])
            rows = [line.split(",") for line in data]
            dp = float(rows[1][0]) - float(rows[0][0])
            total = math.fsum(float(x) for row in rows for x in row[1:])
            cells = sum(len(row) - 1 for row in rows)
        with open(str(out) + ".moments.json") as fh:
            moments = json.load(fh)
        return {"n": n, "cells": cells, "norm": total * dp * dq, "moments": moments}
    if kind in ("evolve", "factors"):
        with open(out) as fh:
            return json.load(fh)
    _, _, data = _read_csv(out)
    rows = [[float(x) for x in line.split(",")] for line in data]
    if kind == "coherent":
        return {"lambdas": [r[0] for r in rows], "ratios": [r[1] for r in rows]}
    if kind == "entangle":
        return {"sigmas": [r[0] for r in rows], "nonrel": [r[1] for r in rows], "rel": [r[2] for r in rows]}
    if kind == "rotator":
        with open(str(out) + ".peaks.json") as fh:
            peaks = json.load(fh)
        return {"rows": len(rows), "min_r": min(r[1] for r in rows), "omega": peaks["omega"],
                "peaks": [[p["frequency"], p["amplitude"]] for p in peaks["peaks"][:3]]}
    raise KeyError(key)


def check_cli_output(key, got, ref):
    """Analytic checks first, then the stored reference within REF_RTOL."""
    kind = key.split("_")[0]
    problems = []
    if kind == "wigner":
        if got["cells"] != got["n"] ** 2:
            problems.append(f"{got['cells']} field cells, expected {got['n']}^2")
        if abs(got["norm"] - 1.0) > CSV_NORM_TOL:
            problems.append(f"W normalisation {got['norm']!r} != 1")
        m = got["moments"]
        if abs(m["mean_p"]) > NORM_TOL:
            problems.append(f"mean_p {m['mean_p']!r} != p_bar = 0")
        for name, value in ref["moments"].items():
            if isinstance(value, bool):
                ok = m[name] == value
            else:
                ok = _close(m[name], value, REF_RTOL, NORM_TOL)
            if not ok:
                problems.append(f"moment {name} {m[name]!r} != reference {value!r}")
    elif kind == "evolve":
        if not got["deviation"] <= 1e-8:
            problems.append(f"propagator deviation {got['deviation']!r} above 1e-8")
    elif kind == "factors":
        if abs(got["eps"] ** 2 - got["chi"] ** 2 - 1.0) > 1e-12:
            problems.append("eps^2 - chi^2 != 1")
        for name in ("eps", "chi", "purity_rhs"):
            if not _close(got[name], ref[name], REF_RTOL, 1e-15):
                problems.append(f"{name} {got[name]!r} != reference {ref[name]!r}")
    elif kind == "coherent":
        if got["lambdas"] != ref["lambdas"]:
            problems.append(f"lambda column {got['lambdas']} != {ref['lambdas']}")
        elif not all(_close(a, b, REF_RTOL) for a, b in zip(got["ratios"], ref["ratios"])):
            problems.append(f"m_eff/m {got['ratios']} != reference {ref['ratios']}")
    elif kind == "entangle":
        if got["sigmas"] != [0.5, 1.0, 2.0]:
            problems.append(f"sigma column {got['sigmas']}")
        else:
            for s, nonrel, rel, rel_ref in zip(got["sigmas"], got["nonrel"], got["rel"], ref["rel"]):
                if not _close(nonrel, 1.0 / (2.0 * s * s), 1e-9):
                    problems.append(f"nonrel penalty {nonrel!r} != hbar^2/2m sigma^2 at sigma={s}")
                if not (_close(rel, rel_ref, REF_RTOL) and rel < nonrel):
                    problems.append(f"rel penalty {rel!r} != reference {rel_ref!r}")
    elif kind == "rotator":
        if got["rows"] != ref["rows"] or got["min_r"] < 0.0:
            problems.append(f"{got['rows']} rows (expected {ref['rows']}), min r {got['min_r']!r}")
        if got["omega"] != 0.5:
            problems.append(f"omega {got['omega']!r} != b m c^2 / hbar = 0.5")
        if len(got["peaks"]) != len(ref["peaks"]) or not all(
            _close(a, b, REF_RTOL) for pg, pr in zip(got["peaks"], ref["peaks"]) for a, b in zip(pg, pr)
        ):
            problems.append(f"peaks {got['peaks']} != reference {ref['peaks']}")
    return problems


def _call_cli(argv):
    stdout, stderr = io.StringIO(), io.StringIO()
    with contextlib.redirect_stdout(stdout), contextlib.redirect_stderr(stderr):
        code = cli.main(argv)
    return code, stderr.getvalue()


class CliOutputs(Workload):
    name = "cli_outputs"
    pool_workers = 2
    pass_seconds = 10.0

    def __init__(self, seed, workdir):
        super().__init__(seed, workdir)
        self.reference = json.loads(REFERENCE_PATH.read_text())["cli"]
        self.outdir = self.workdir / "op"

    def pass_ops(self, index):
        keys = list(CLI_COMMANDS)
        order = self.rng(index).permutation(len(keys))
        return [("cli", keys[i]) for i in order]

    def warm_up_ops(self):
        return [("cli_warm_up", argv) for argv in CLI_WARM_UP]

    def _fresh_argv(self, argv):
        shutil.rmtree(self.outdir, ignore_errors=True)
        self.outdir.mkdir(parents=True)
        return list(argv) + ["--out", str(self.outdir / _out_name(argv))]

    def prepare(self, op):
        kind, arg = op
        return self._fresh_argv(CLI_COMMANDS[arg] if kind == "cli" else arg)

    def run(self, argv):
        return _call_cli(argv)

    def check(self, op, result):
        code, stderr = result
        self.bytes_written += sum(f.stat().st_size for f in self.outdir.iterdir())
        if code != 0:
            return [f"exit code {code}: {stderr.strip()[-200:]}"]
        if op[0] != "cli":
            return []
        key = op[1]
        return check_cli_output(key, parse_cli_output(key, self.outdir), self.reference.get(key, {}))

    def probe(self):
        """Run PROBE_COMMAND; returns None on success, else a one-line description."""
        argv = self._fresh_argv(PROBE_COMMAND)
        try:
            code, stderr = _call_cli(argv)
        except Exception as exc:  # counted as a probe failure; the loop continues
            return f"{type(exc).__name__}: {exc}"
        if code != 0:
            return f"exit code {code}: {stderr.strip()[-200:]}"
        problems = check_cli_output("entangle", parse_cli_output("entangle", self.outdir),
                                    self.reference["entangle"])
        return "; ".join(problems) or None


# ---------------------------------------------------------------------------
# packet_analysis: the in-memory Gaussian-packet pipeline
# ---------------------------------------------------------------------------

# Six of the eight operations are at n = 1024, so that the median
# operation sits in the middle of the n = 1024 cluster rather than in the
# gap between the two sizes or at the cluster's edge.
PACKET_SIZES = {512: 2, 1024: 6}
LAM_RANGE = (0.05, 8.0)
PACKET_TIMES = (1.0, 5.0)


class PacketAnalysis(Workload):
    name = "packet_analysis"
    pass_seconds = 10.0

    def pass_ops(self, index):
        """Per size, one lam from each of its log-uniform strata; t alternates over 1 and 5."""
        rng = self.rng(index)
        ops = []
        for n, count in PACKET_SIZES.items():
            edges = np.geomspace(*LAM_RANGE, count + 1)
            times = rng.permutation(np.resize(PACKET_TIMES, count))
            for lo, hi, t in zip(edges[:-1], edges[1:], times):
                lam = float(np.exp(rng.uniform(np.log(lo), np.log(hi))))
                ops.append(("packet", {"n": n, "lam": lam, "t": float(t),
                                       "p_bar": float(rng.uniform(-0.5, 0.5))}))
        return [ops[i] for i in rng.permutation(len(ops))]

    def warm_up_ops(self):
        return [("packet", {"n": 128, "lam": 1.0, "t": 1.0, "p_bar": 0.2})]

    def prepare(self, op):
        return op[1]

    def run(self, p):
        # same momentum window as cli.packet_grid: 9 hbar/sigma + |p_bar| + 0.5
        grid = grids.MomentumGrid(p["n"], 9.0 * p["lam"] + abs(p["p_bar"]) + 0.5)
        ps = grids.PhaseSpaceGrid.conjugate(grid)
        state = states.gaussian_state(grid, lam=p["lam"], p_bar=p["p_bar"])
        w0 = wigner.wigner_even(state, +1, ps)
        m0 = wigner.moments(w0, ps)
        w1 = moyal.evolve_even(w0, spectrum.energy, p["t"], ps)
        m1 = wigner.moments(w1, ps)
        purity = wigner.purity_check(w0, ps)
        return ps, w0, m0, w1, m1, purity

    def check(self, op, result):
        p = op[1]
        ps, w0, m0, w1, m1, purity = result
        cell = ps.dp * ps.dq
        q, mom = ps.q_nodes, ps.p_nodes
        problems = []
        norm0 = w0.sum() * cell
        norm1 = w1.sum() * cell
        mean_p = (w0.sum(axis=1) @ mom) * cell / norm0
        mean_q = (w0.sum(axis=0) @ q) * cell / norm0
        var_p = (w0.sum(axis=1) @ mom**2) * cell / norm0 - mean_p**2
        var_q = (w0.sum(axis=0) @ q**2) * cell / norm0 - mean_q**2
        if abs(norm0 - 1.0) > NORM_TOL:
            problems.append(f"W normalisation {norm0!r} != 1")
        if abs(mean_p - p["p_bar"]) > NORM_TOL:
            problems.append(f"mean momentum {mean_p!r} != p_bar {p['p_bar']!r}")
        for name, ours in (("mean_p", mean_p), ("mean_q", mean_q), ("var_p", var_p), ("var_q", var_q)):
            if not _close(getattr(m0, name), ours, MOMENT_RTOL, MOMENT_RTOL):
                problems.append(f"moments().{name} {getattr(m0, name)!r} != direct sum {ours!r}")
        if abs(norm1 - norm0) > NORM_TOL:
            problems.append(f"evolve_even changed the norm by {norm1 - norm0:.3e}")
        if abs(m1.mean_p - p["p_bar"]) > NORM_TOL:
            problems.append(f"evolved mean momentum {m1.mean_p!r} != p_bar")
        if not (purity.window_points > 0 and purity.max_deviation <= PURITY_RTOL * purity.max_rhs):
            problems.append(f"purity criterion deviation {purity.max_deviation:.3e} "
                            f"above {PURITY_RTOL} x {purity.max_rhs:.3e}")
        return problems


# ---------------------------------------------------------------------------
# operator_algebra: the magnetic problem and the symbol calculus
# ---------------------------------------------------------------------------

ORBIT_SIZES = ((3.0, 64), (6.0, 128), (10.0, 256))
ORBIT_FIELDS = (0.1, 0.5, 1.0)
ORBIT_SAMPLES = 2048
COMMUTATOR_LEVELS = (64, 256)
KERNEL_SIZES = (128, 256)
COUPLING_FIELDS = (0.5, 1.0)
COUPLING_PZ_MAX = (4.0, 6.0, 8.0)
BRACKET_GRID = grids.MomentumGrid(32, 4.0)
STAR_GRID = grids.MomentumGrid(64, 4.0)


def band_limited_symbol(rng, n):
    """Real (n, n) symbol whose modes lie in |k| < n/4 on both axes.

    The product of two such symbols still fits the grid, which is the
    regime where the sampled star product is exact.
    """
    half = n // 4
    idx = np.r_[0:half, n - half + 1 : n]
    coeffs = np.zeros((n, n), dtype=complex)
    coeffs[np.ix_(idx, idx)] = rng.normal(size=(idx.size, idx.size)) + 1j * rng.normal(size=(idx.size, idx.size))
    return np.fft.ifft2(coeffs).real * n


def _matrix_symbol(rng, n):
    return np.array([[band_limited_symbol(rng, n) for _ in range(2)] for _ in range(2)])


class OperatorAlgebra(Workload):
    name = "operator_algebra"
    pass_seconds = 3.7

    def __init__(self, seed, workdir):
        super().__init__(seed, workdir)
        self.reference = json.loads(REFERENCE_PATH.read_text())["translational_coupling"]

    def pass_ops(self, index):
        rng = self.rng(index)
        ops = []
        for alpha, n_max in ORBIT_SIZES:
            b = float(rng.choice(ORBIT_FIELDS))
            # dt between period/16 and the period/8 limit of orbit_series
            dt = (2.0 * np.pi / b) / 8.0 * rng.uniform(0.5, 1.0)
            ops.append(("orbit", {"alpha": alpha, "n_max": n_max, "b": b, "dt": dt}))
        for n_max in COMMUTATOR_LEVELS:
            ops.append(("commutator", {"n_max": n_max, "b": float(rng.uniform(0.1, 1.0))}))
        for n in KERNEL_SIZES:
            ops.append(("kernel", {"n": n, "p_max": float(rng.uniform(5.0, 20.0))}))
        ops.append(("bracket", {"a": _matrix_symbol(rng, 32), "b": _matrix_symbol(rng, 32), "grid": BRACKET_GRID}))
        # two star products, so that the median of the eleven operations
        # falls inside the star-product cluster, not between two kinds
        for _ in range(2):
            ops.append(("star", {"a": band_limited_symbol(rng, 64), "b": band_limited_symbol(rng, 64),
                                 "grid": STAR_GRID}))
        ops.append(("coupling", {"b": float(rng.choice(COUPLING_FIELDS)), "pz_max": float(rng.choice(COUPLING_PZ_MAX))}))
        return [ops[i] for i in rng.permutation(len(ops))]

    def warm_up_ops(self):
        rng = np.random.default_rng(0)
        small = grids.MomentumGrid(16, 4.0)
        return [
            ("orbit", {"alpha": 3.0, "n_max": 64, "b": 0.5, "dt": 1.0}),
            ("commutator", {"n_max": 32, "b": 0.5}),
            ("kernel", {"n": 64, "p_max": 10.0}),
            ("bracket", {"a": _matrix_symbol(rng, 16), "b": _matrix_symbol(rng, 16), "grid": small}),
            ("star", {"a": band_limited_symbol(rng, 16), "b": band_limited_symbol(rng, 16), "grid": small}),
            ("coupling", {"b": 0.5, "pz_max": 4.0, "n_max": 4, "n_pz": 8}),
        ]

    def run(self, op):
        kind, p = op
        if kind == "orbit":
            model = rotator.RotatorModel(b=p["b"], n_max=p["n_max"])
            state = states.rotator_coherent_state(p["alpha"], model.energy_model, n_max=p["n_max"])
            series = rotator.orbit_series(state, model, t_max=ORBIT_SAMPLES * p["dt"], dt=p["dt"])
            with warnings.catch_warnings():
                # a window shorter than four modulation periods is expected at weak fields
                warnings.simplefilter("ignore")
                peaks = rotator.modulation_spectrum(series)
            return model, state, series, peaks
        if kind == "commutator":
            return rotator.deformed_commutator(rotator.RotatorModel(b=p["b"], n_max=p["n_max"]))
        if kind == "kernel":
            grid = grids.MomentumGrid(p["n"], p["p_max"])
            ps = grids.PhaseSpaceGrid.conjugate(grid)
            h = opmatrix.build_hamiltonian(spectrum.EnergyModel.free(), grid=grid)
            return opmatrix.kernel_relation_check(opmatrix.position_kernel(ps), h)
        if kind == "bracket":
            return moyal.moyal_bracket(p["a"], p["b"], grids.PhaseSpaceGrid.conjugate(p["grid"]))
        if kind == "star":
            return moyal.star_product(p["a"], p["b"], grids.PhaseSpaceGrid.conjugate(p["grid"]))
        if kind == "coupling":
            pz = grids.MomentumGrid(p.get("n_pz", 16), p["pz_max"])
            return rotator.translational_coupling(rotator.RotatorModel(b=p["b"], n_max=p.get("n_max", 16), pz_grid=pz))
        raise KeyError(kind)

    def check(self, op, result):
        kind, p = op
        if kind == "orbit":
            model, state, series, peaks = result
            expected = len(np.arange(0.0, ORBIT_SAMPLES * p["dt"], p["dt"]))
            if len(series.times) != expected:
                return [f"{len(series.times)} samples, expected {expected}"]
            idx = np.array([1, expected // 3, expected - 2])
            oracle = rotator.orbit_series_matrix_oracle(state, model, series.times[idx])
            gap = float(np.abs(series.radius[idx] - oracle).max())
            problems = [] if gap <= ORACLE_TOL else [f"orbit radius differs from the matrix oracle by {gap:.3e}"]
            amps = [pk.amplitude for pk in peaks]
            nyquist = np.pi / p["dt"]
            if amps != sorted(amps, reverse=True) or not all(0 < pk.frequency <= nyquist for pk in peaks):
                problems.append("modulation peaks unsorted or outside (0, nyquist]")
            return problems
        if kind == "commutator":
            model = spectrum.EnergyModel.landau(p["b"])
            n = np.arange(len(result))
            f_next = spectrum.deformation_f(n + 1, model)
            f_here = spectrum.deformation_f(np.maximum(n, 1), model)
            expected = (n + 1) * f_next**2 - n * f_here**2
            gap = float(np.abs(result - expected).max())
            ok = len(result) == p["n_max"] - 1 and gap <= COMMUTATOR_TOL
            return [] if ok else [f"[A, A+] diagonal off (n+1)f(n+1)^2 - n f(n)^2 by {gap:.3e}"]
        if kind == "kernel":
            return [] if result.passed else [f"kernel relation failed: {result}"]
        if kind in ("bracket", "star"):
            a, b = p["a"], p["b"]
            if kind == "bracket":
                # the integral of A*B is that of the pointwise product AB
                ab = np.einsum("ik...,kl...->il...", a, b)
                ba = np.einsum("ik...,kl...->il...", b, a)
                got = result.sum(axis=(-2, -1))
                want = ((ab - ba) / 1j).sum(axis=(-2, -1))
                scale = np.abs(ab).sum() + np.abs(ba).sum()
            else:
                got, want, scale = result.sum(), (a * b).sum(), np.abs(a * b).sum()
            gap = float(np.abs(got - want).max())
            return [] if gap <= STAR_RTOL * scale else [f"integral of the {kind} off by {gap:.3e}"]
        if kind == "coupling":
            ref = self.reference[f"{p['b']:g},{p['pz_max']:g}"]
            return [] if _close(result, ref, REF_RTOL) else [f"coupling {result!r} != reference {ref!r}"]
        raise KeyError(kind)


WORKLOADS = {cls.name: cls for cls in (CliOutputs, PacketAnalysis, OperatorAlgebra)}


def write_reference(path, workdir):
    """Recompute the stored reference values from the current source tree."""
    ref = {"cli": {}, "translational_coupling": {}}
    outdir = Path(workdir) / "reference"
    for key, argv in CLI_COMMANDS.items():
        if key.startswith("evolve"):
            continue  # checked against its own --tol only
        shutil.rmtree(outdir, ignore_errors=True)
        outdir.mkdir(parents=True)
        code, stderr = _call_cli(list(argv) + ["--out", str(outdir / _out_name(argv))])
        if code != 0:
            raise RuntimeError(f"{key}: exit code {code}: {stderr}")
        got = parse_cli_output(key, outdir)
        ref["cli"][key] = {"moments": got["moments"]} if key.startswith("wigner") else got
    shutil.rmtree(outdir, ignore_errors=True)
    for b in COUPLING_FIELDS:
        for pz_max in COUPLING_PZ_MAX:
            model = rotator.RotatorModel(b=b, n_max=16, pz_grid=grids.MomentumGrid(16, pz_max))
            ref["translational_coupling"][f"{b:g},{pz_max:g}"] = rotator.translational_coupling(model)
    Path(path).write_text(json.dumps(ref, indent=1, sort_keys=True) + "\n")
