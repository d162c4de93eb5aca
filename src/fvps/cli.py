"""Batch command-line front end: experiment drivers and the files they write.

The file formats themselves live in `fvps.tables`.

Subcommands wrap the library modules into reproducible runs: identical
configuration produces bit-identical output (no timestamps, no seeded
randomness).  Every run with --out writes a JSON provenance sidecar
holding the resolved configuration, package version, and the tolerances
it applied.

A command imports only what it runs.  Importing cli loads numpy, `grids`,
`spectrum`, `states` and `pairs`; each driver imports its other modules
(`wigner`, `moyal`, `rotator` and through it `opmatrix`) when it is
called, and `main` imports the file writers of `fvps.tables` only when
--out means it will write.  The names cli once imported from those
modules (`cli.wigner_even`, `cli.write_json`, ...) are still its
attributes, looked up in their module at every access (`__getattr__`).

argparse makes every command-line decision.  The command parser and the
`--config` pre-parser are built once per process, on the first `main`
call (`_parsers`), and bind the `_cmd_*` handlers then.
A handler looks up its `run_*` function when it runs, so a `cli.run_*`
replaced later (as tests do) still takes effect.  A `--config` file, given
before the command, stands for the flags its keys name; they are put
right after the command, so any flag on the command line comes later and
wins.  `wigner` and `evolve` build their packet and its field with one
pipeline, `_packet`; `coherent` needs only the packet's amplitudes.

A command handler only computes: it returns an `Output` record of the
files it made, its stdout lines, its sidecar extras and, for a failed
check, a failure line.  `main` does everything else, in one place: it
writes the files and then the `<out>.json` sidecar (when --out is set),
prints, picks the exit code, and runs the command under one
floating-point policy: numpy raises on overflow, on an invalid operation
and on division by zero, so each ends the command with exit 3 and no
file, where it would otherwise print or write inf or NaN.  Underflow is
left to round to zero.  The policy holds on the command line only;
library calls run under the caller's numpy settings.

Exit codes, from the EXIT_CODES table: 0 success; 2 configuration,
validation, file or memory error (any ValueError -- every fvps grid,
conjugacy, resolution, truncation and step-size error is one -- an
OSError, or a MemoryError when a size asks for more memory than the
machine has); 3 numerical failure: a --check tolerance exceeded, or an
ArithmeticError such as ConditioningError or numpy's FloatingPointError.
An error raised by the package never ends in a traceback.
"""

import argparse
import functools
import importlib
import sys
from dataclasses import asdict, dataclass, field

import numpy as np

from . import __version__
from .grids import NATURAL, MomentumGrid, PhaseSpaceGrid
from .pairs import penalty_curve
from .spectrum import EPS_RELATIVISTIC, EPS_UNITY, chi_factor, energy, eps_factor, purity_rhs
from .states import ChargeBranchState, gaussian_state, momentum_grid, rotator_coherent_state

EXIT_OK = 0
EXIT_CONFIG = 2
EXIT_TOLERANCE = 3

# Exit code and stderr label of each failure a command may raise, by the
# class it derives from.  This covers every fvps error: GridError,
# ConjugacyError, ResolutionError, TruncationError and StepSizeError are
# ValueErrors; ConditioningError is an ArithmeticError.
EXIT_CODES = {
    ValueError: (EXIT_CONFIG, "validation error"),
    OSError: (EXIT_CONFIG, "file error"),
    ArithmeticError: (EXIT_TOLERANCE, "numerical error"),
    MemoryError: (EXIT_CONFIG, "memory error"),
}

# The names the drivers and `main` import when they run, and their modules.
# Callers still read and patch them as cli.<name> (perfbench's self-check
# reads cli.wigner_even), so `__getattr__` reads each from its module at
# every access, never caching it: a function replaced there, by a span
# tracer say, is what cli.<name> gives, and its restoring shows too.
_DEFERRED = {
    "evolve_even": "moyal",
    "RotatorModel": "rotator", "modulation_spectrum": "rotator", "orbit_series": "rotator",
    "write_csv": "tables", "write_field_csv": "tables", "write_json": "tables",
    "moments": "wigner", "wigner_even": "wigner",
}


def __getattr__(name):
    if name not in _DEFERRED:
        raise AttributeError(f"module {__name__!r} has no attribute {name!r}")
    return getattr(importlib.import_module(f"{__package__}.{_DEFERRED[name]}"), name)


# ---------------------------------------------------------------------------
# Drivers (importable; the CLI is a thin shell around these)
# ---------------------------------------------------------------------------


def run_factors(p1: float, p2: float) -> dict:
    """eps, chi and the purity right-hand side at the momentum pair (p1, p2).

    Raises ArithmeticError where E1 E2 (E1 + E2)^2 leaves the float range
    (|p| from about 1e77 on): past it the three factors would read 0, -0
    or NaN.
    """
    if not np.isfinite([p1, p2]).all():
        raise ValueError(f"momenta must be finite, got p1={p1}, p2={p2}")
    e1, e2 = energy(p1), energy(p2)
    with np.errstate(over="ignore"):
        scale = e1 * e2 * (e1 + e2) ** 2
    if not np.isfinite(scale):
        raise ArithmeticError(f"E1 E2 (E1 + E2)^2 overflows at p1={p1}, p2={p2}")
    return {
        "p1": p1,
        "p2": p2,
        "eps": float(eps_factor(p1, p2)),
        "chi": float(chi_factor(p1, p2)),
        "purity_rhs": float(purity_rhs(p1, p2)),
    }


def packet_grid(lam: float, p_bar: float = 0.0, n_points: int | None = None) -> MomentumGrid:
    """Momentum window wide enough for spectral round trips of a lam-packet.

    It has n_points nodes, or without them the nodes `momentum_grid` asks
    for, at least 512.
    """
    if not 0.0 < lam < np.inf:
        raise ValueError(f"lambda must be finite and positive, got {lam}")
    sigma = 1.0 / lam
    p_max = 9.0 / sigma + abs(p_bar) + 0.5
    return momentum_grid(sigma, p_max, NATURAL, n_min=512) if n_points is None else MomentumGrid(n_points, p_max)


def _packet(lam: float, n_points: int, eps_mode: str):
    """A resting lam-packet on its `packet_grid`: (state, conjugate grid, positive-branch field)."""
    from .wigner import wigner_even

    grid = packet_grid(lam, n_points=n_points)
    ps = PhaseSpaceGrid.conjugate(grid)
    state = gaussian_state(grid, lam=lam)
    return state, ps, wigner_even(state, +1, ps, eps_mode)


def run_wigner(lam: float, n_points: int = 512, eps_mode: str = EPS_RELATIVISTIC):
    """Build the packet's phase-space field and its moments."""
    from .wigner import moments

    _, ps, w = _packet(lam, n_points, eps_mode)
    return w, ps, moments(w, ps)


def run_evolve_check(lam: float, t: float, n_points: int = 512) -> float:
    """Max-norm gap between the spectral propagator and the amplitude pipeline."""
    from .moyal import evolve_even
    from .wigner import wigner_even

    state, ps, w0 = _packet(lam, n_points, EPS_RELATIVISTIC)
    w_prop = evolve_even(w0, energy, t, ps)
    phi_t = state.phi_plus * np.exp(-1j * energy(state.grid.nodes) * t)
    w_wave = wigner_even(ChargeBranchState(state.grid, phi_plus=phi_t), +1, ps)
    np.subtract(w_prop, w_wave, out=w_prop)
    return float(np.abs(w_prop, out=w_prop).max())


def effective_mass_ratio(lam: float, p_bar: float = 0.02, n_points: int | None = None) -> float:
    """m_eff/m = p_bar / <c^2 p/E>, the mean momentum over the mean group velocity.

    Free evolution conserves the momentum distribution |phi|^2, so the
    position mean drifts at d<q>/dt = <dE/dp> = <c^2 p/E>, the same at
    every t (Ehrenfest: the even field evolves with E(p + P/2) - E(p - P/2),
    whose first-order term in P is P E'(p)).  eps is 1 on the diagonal,
    so the even field's p-marginal is |phi|^2 itself and the average is
    one quadrature over the packet's amplitudes: no field, no evolution.
    Units are natural (c = 1).

    Strong localization feeds relativistic momenta into the velocity
    average no matter how small p_bar is, so the ratio grows with lam
    even at crawling speeds.  Without n_points the grid is the one
    `packet_grid` sizes by `states.momentum_grid`: 512 nodes up to
    lam ~ 9.6, then as many as `states._resolves` asks for.  A grid that
    misses the rule, given as n_points or sized past 2^16 nodes, raises
    ResolutionError.
    """
    if not 0.0 < abs(p_bar) < np.inf:
        raise ValueError(f"p_bar must be finite and nonzero, got {p_bar}")
    grid = packet_grid(lam, p_bar, n_points)
    density = np.abs(gaussian_state(grid, lam=lam, p_bar=p_bar).phi_plus) ** 2
    return p_bar / np.average(grid.nodes / energy(grid.nodes), weights=density)


def run_coherent(lams, p_bar: float = 0.02):
    return [(lam, effective_mass_ratio(lam, p_bar)) for lam in lams]


def run_rotator(b: float, alpha: float, t_max: float, dt: float, n_max: int = 64):
    from .rotator import RotatorModel, modulation_spectrum, orbit_series

    model = RotatorModel(b=b, n_max=n_max)
    state = rotator_coherent_state(alpha, model.energy_model, n_max=n_max)
    series = orbit_series(state, model, t_max=t_max, dt=dt)
    peaks = modulation_spectrum(series)
    return series, peaks, model


# ---------------------------------------------------------------------------
# Command handlers: each computes and returns an Output; `main` does the rest
# ---------------------------------------------------------------------------


@dataclass
class Output:
    """What a command made, for `main` to write, print and turn into an exit code.

    `files` holds (writer, path, *payload) entries, `writer` naming a
    `fvps.tables` function; with --out set, `main` imports `tables` and
    calls writer(path, *payload) for each, in order, then writes the
    `<out>.json` sidecar with `config` merged into the resolved flags and
    `tolerances` beside them.  `failure`, when set, is a failed check: it
    goes to stderr and the exit code is 3.
    """

    lines: list
    files: list
    config: dict = field(default_factory=dict)
    tolerances: dict = field(default_factory=dict)
    failure: str | None = None


def _cmd_factors(args) -> Output:
    out = run_factors(args.p1, args.p2)
    lines = [f"{name:10s} = {out[name]:.10g}" for name in ("eps", "chi", "purity_rhs")]
    return Output(lines, [("write_json", args.out, out)])


def _cmd_wigner(args) -> Output:
    lam = 8.0 if args.preset == "fig1" else args.lam
    if lam is None:
        raise ValueError("give --lambda or --preset fig1")
    w, ps, m = run_wigner(lam, n_points=args.n_points, eps_mode=args.eps_mode)
    meta = {
        "lambda": f"{lam:g}",
        "n_points": args.n_points,
        "p_max": f"{ps.momentum.p_max:g}",
        "eps_mode": args.eps_mode,
    }
    mdict = {**asdict(m), "var_q_negative": m.var_q_negative, "var_p_negative": m.var_p_negative}
    files = [
        ("write_field_csv", args.out, meta, ps.q_nodes, ps.p_nodes, w, args.matrix),
        ("write_json", args.moments_out or (str(args.out) + ".moments.json"), mdict),
    ]
    return Output([f"var_q = {m.var_q:.6g} (negative: {m.var_q_negative})"], files, {"lambda_resolved": lam})


def _cmd_evolve(args) -> Output:
    if not 0.0 <= args.tol < np.inf:
        raise ValueError(f"tol must be finite and non-negative, got {args.tol}")
    dev = run_evolve_check(args.lam, args.t, n_points=args.n_points)
    return Output(
        [f"max |spectral - wavefunction| = {dev:.3e}"],
        [("write_json", args.out, {"lambda": args.lam, "t": args.t, "deviation": dev})],
        tolerances={"check": args.tol},
        failure=f"FAIL: deviation exceeds {args.tol:g}" if args.check and not dev <= args.tol else None,
    )


def _cmd_coherent(args) -> Output:
    lams = [float(x) for x in args.lambdas.split(",")]
    rows = run_coherent(lams, p_bar=args.p_bar)
    rows_out = (map(float, row) for row in rows)
    return Output(
        [f"lambda={lam:g}: m_eff/m = {ratio:.6g}" for lam, ratio in rows],
        [("write_csv", args.out, {"p_bar": f"{args.p_bar:g}"}, ["lambda", "m_eff_over_m"], rows_out)],
    )


def _cmd_rotator(args) -> Output:
    series, peaks, model = run_rotator(args.b, args.alpha, args.t_max, args.dt, n_max=args.n_max)
    meta = {"b": f"{args.b:g}", "alpha": f"{args.alpha:g}", "omega": f"{model.omega:g}"}
    peaks_doc = {"omega": model.omega, "peaks": [{"frequency": p.frequency, "amplitude": p.amplitude} for p in peaks]}
    files = [
        ("write_csv", args.out, meta, ["t", "r", "x", "y"], (map(float, row) for row in series.to_rows())),
        ("write_json", args.peaks_out or (str(args.out) + ".peaks.json"), peaks_doc),
    ]
    if peaks:
        line = f"dominant peak: {peaks[0].frequency:.6g} ({peaks[0].frequency / model.omega:.4g} omega)"
    else:
        line = "no modulation peaks detected"
    return Output([line], files)


def _cmd_entangle(args) -> Output:
    sigmas = [float(x) for x in args.sigmas.split(",")]
    models = tuple(args.models.split(","))
    table = penalty_curve(sigmas, models)
    header = ["sigma"] + [f"penalty_{m}" for m in models]
    return Output(
        ["  ".join(f"{v:.6g}" for v in row) for row in table.rows()],
        [("write_csv", args.out, {"models": ",".join(models)}, header, (map(float, row) for row in table.rows()))],
    )


def _finish(args, made: Output) -> int:
    """Write the files and the provenance sidecar (with --out), print, and pick the exit code."""
    if args.out:
        from . import tables

        for writer, path, *payload in made.files:
            getattr(tables, writer)(path, *payload)
        config = {k: v for k, v in vars(args).items() if k != "func"} | made.config
        sidecar = {"version": __version__, "command": args.command, "config": config, "tolerances": made.tolerances}
        tables.write_json(str(args.out) + ".json", sidecar)
    sys.stdout.writelines(line + "\n" for line in made.lines)
    if made.failure is not None:
        print(made.failure, file=sys.stderr)
    return EXIT_OK if made.failure is None else EXIT_TOLERANCE


# ---------------------------------------------------------------------------
# Argument plumbing
# ---------------------------------------------------------------------------


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="fvps",
        description="Phase-space experiments for relativistic scalar charged particles",
    )
    parser.add_argument("--config", help="key=value file, given before the command; command-line flags override it")
    sub = parser.add_subparsers(dest="command", required=True)

    f = sub.add_parser("factors", help="print eps, chi, purity RHS at a momentum pair")
    f.add_argument("--p1", type=float, required=True)
    f.add_argument("--p2", type=float, required=True)
    f.add_argument("--out", help="optional JSON output path")
    f.set_defaults(func=_cmd_factors)

    w = sub.add_parser("wigner", help="phase-space field and moments of a Gaussian packet")
    w.add_argument("--lambda", dest="lam", type=float, help="localization parameter")
    w.add_argument("--preset", choices=["fig1"], help="fig1 = lambda 8")
    w.add_argument("--n-points", type=int, default=512, help="momentum nodes, a power of two that resolves the packet")
    w.add_argument("--eps-mode", choices=[EPS_RELATIVISTIC, EPS_UNITY], default=EPS_RELATIVISTIC)
    w.add_argument("--matrix", action="store_true", help="contour-ready matrix CSV layout")
    w.add_argument("--out", required=True)
    w.add_argument("--moments-out")
    w.set_defaults(func=_cmd_wigner)

    e = sub.add_parser("evolve", help="propagator vs amplitude-evolution cross-check")
    e.add_argument("--lambda", dest="lam", type=float, required=True)
    e.add_argument("--t", type=float, required=True)
    e.add_argument("--n-points", type=int, default=512, help="momentum nodes, a power of two that resolves the packet")
    e.add_argument("--check", action="store_true", help="exit 3 when deviation exceeds --tol")
    e.add_argument("--tol", type=float, default=1e-8)
    e.add_argument("--out", help="optional JSON output path")
    e.set_defaults(func=_cmd_evolve)

    c = sub.add_parser("coherent", help="effective-mass ratio across localization values")
    c.add_argument("--lambdas", default="0.05,0.5,1,2,4")
    c.add_argument("--p-bar", type=float, default=0.02)
    c.add_argument("--out", required=True)
    c.set_defaults(func=_cmd_coherent)

    r = sub.add_parser("rotator", help="orbit-radius series and modulation peaks")
    r.add_argument("--b", type=float, required=True)
    r.add_argument("--alpha", type=float, required=True)
    r.add_argument("--t-max", type=float, required=True)
    r.add_argument("--dt", type=float, required=True)
    r.add_argument("--n-max", type=int, default=64)
    r.add_argument("--out", required=True)
    r.add_argument("--peaks-out")
    r.set_defaults(func=_cmd_rotator)

    n = sub.add_parser("entangle", help="Fermi overlap-penalty table")
    n.add_argument("--sigmas", "--sigma", dest="sigmas", default="1.0")
    n.add_argument("--models", default="nonrel,rel")
    n.add_argument("--out", required=True)
    n.set_defaults(func=_cmd_entangle)

    return parser


# Config-file values that turn a switch (a flag without a value) on or off.
SWITCH_ON = ("1", "true", "yes", "on")
SWITCH_OFF = ("0", "false", "no", "off")


def _load_config_file(path) -> dict:
    values = {}
    with open(path) as fh:
        for raw in fh:
            line = raw.strip()
            if not line or line.startswith("#"):
                continue
            if "=" not in line:
                raise ValueError(f"config line without '=': {line!r}")
            key, _, value = line.partition("=")
            values[key.strip().replace("-", "_")] = value.strip()
    return values


def _switches(command: argparse.ArgumentParser) -> set:
    """Option strings of the command's zero-argument actions (store_true and kin)."""
    return {flag for action in command._actions if action.nargs == 0 for flag in action.option_strings}


def _config_flags(command: argparse.ArgumentParser, path) -> list:
    """The arguments a --config file stands for, one flag per key."""
    switches = _switches(command)
    added = []
    for key, value in _load_config_file(path).items():
        flag = "--" + key.replace("_", "-")
        if flag not in switches:
            added += [flag, value]
        elif value.lower() in SWITCH_ON:
            added.append(flag)
        elif value.lower() not in SWITCH_OFF:
            raise ValueError(f"{key}={value}: {flag} is a switch, give one of {'/'.join(SWITCH_ON + SWITCH_OFF)}")
    return added


@functools.cache
def _parsers():
    """The command parser and the --config pre-parser, built on the first call and kept for the process."""
    parser = build_parser()
    pre = argparse.ArgumentParser(prog=parser.prog, add_help=False)
    pre.add_argument("--config")
    pre.add_argument("rest", nargs=argparse.REMAINDER)
    return parser, pre


def _with_config(argv: list) -> list:
    """argv with the --config file's flags inserted right after the command.

    --config is read where the command parser accepts it, before the
    command, so an option after the command (`evolve --c` abbreviates
    --check) is never taken for it.  argparse keeps the last occurrence of
    a flag, so every flag given on the command line, abbreviated or not,
    beats the file.
    """
    parser, pre = _parsers()
    known, _ = pre.parse_known_args(argv)
    sub = next(a for a in parser._actions if isinstance(a, argparse._SubParsersAction))
    command = sub.choices.get(known.rest[0]) if known.rest else None
    if known.config is None or command is None:
        return argv
    at = len(argv) - len(known.rest) + 1
    return argv[:at] + _config_flags(command, known.config) + argv[at:]


def main(argv=None) -> int:
    argv = list(sys.argv[1:] if argv is None else argv)
    try:
        args = _parsers()[0].parse_args(_with_config(argv))
    except SystemExit as exc:
        return EXIT_CONFIG if exc.code not in (0, None) else 0
    except (OSError, ValueError) as exc:
        print(f"config error: {exc}", file=sys.stderr)
        return EXIT_CONFIG
    try:
        # the floating-point policy of every command: overflow, invalid
        # operations and division by zero raise (exit 3); underflow does not
        with np.errstate(over="raise", invalid="raise", divide="raise"):
            return _finish(args, args.func(args))
    except tuple(EXIT_CODES) as exc:
        code, label = next(v for cls, v in EXIT_CODES.items() if isinstance(exc, cls))
        print(f"{label}: {exc}", file=sys.stderr)
        return code


if __name__ == "__main__":
    sys.exit(main())
