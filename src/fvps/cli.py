"""Batch command-line front end: experiment drivers and the files they write.

The file formats themselves live in `fvps.tables`.

Subcommands wrap the library modules into reproducible runs: identical
configuration produces bit-identical output (no timestamps, no seeded
randomness).  Every run writes a JSON provenance sidecar holding the
resolved configuration, package version, and the tolerances it applied.

argparse makes every command-line decision.  A `--config` file, given
before the command, stands for the flags its keys name; they are put
right after the command, so any flag on the command line comes later and
wins.  `wigner` and `evolve` build their packet and its field with one
pipeline, `_packet`; `coherent` needs only the packet's amplitudes.

Exit codes, from the EXIT_CODES table: 0 success; 2 configuration,
validation, file or memory error (any ValueError -- every fvps grid,
conjugacy, resolution, truncation and step-size error is one -- an
OSError, or a MemoryError when a size asks for more memory than the
machine has); 3 numerical failure: a --check tolerance exceeded, or an
ArithmeticError such as ConditioningError.  An error raised by the
package never ends in a traceback.
"""

import argparse
import sys
from dataclasses import asdict

import numpy as np

from . import __version__
from .grids import MomentumGrid, PhaseSpaceGrid
from .moyal import evolve_even
from .pairs import PenaltyTable, penalty_curve
from .rotator import RotatorModel, modulation_spectrum, orbit_series
from .spectrum import chi_factor, energy, eps_factor, purity_rhs
from .states import ChargeBranchState, gaussian_state, rotator_coherent_state
from .tables import write_csv, write_json
from .wigner import EPS_RELATIVISTIC, moments, wigner_even

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


# ---------------------------------------------------------------------------
# Drivers (importable; the CLI is a thin shell around these)
# ---------------------------------------------------------------------------


def run_factors(p1: float, p2: float) -> dict:
    if not np.isfinite([p1, p2]).all():
        raise ValueError(f"momenta must be finite, got p1={p1}, p2={p2}")
    return {
        "p1": p1,
        "p2": p2,
        "eps": float(eps_factor(p1, p2)),
        "chi": float(chi_factor(p1, p2)),
        "purity_rhs": float(purity_rhs(p1, p2)),
    }


def packet_grid(lam: float, p_bar: float = 0.0, n_points: int = 512) -> MomentumGrid:
    """Momentum window wide enough for spectral round trips of a lam-packet."""
    if not 0.0 < lam < np.inf:
        raise ValueError(f"lambda must be finite and positive, got {lam}")
    sigma = 1.0 / lam
    p_max = 9.0 / sigma + abs(p_bar) + 0.5
    return MomentumGrid(n_points, p_max)


def _packet(lam: float, n_points: int, eps_mode: str):
    """A resting lam-packet on its `packet_grid`: (state, conjugate grid, positive-branch field)."""
    grid = packet_grid(lam, n_points=n_points)
    ps = PhaseSpaceGrid.conjugate(grid)
    state = gaussian_state(grid, lam=lam)
    return state, ps, wigner_even(state, +1, ps, eps_mode)


def run_wigner(lam: float, n_points: int = 512, eps_mode: str = EPS_RELATIVISTIC):
    """Build the packet's phase-space field and its moments."""
    _, ps, w = _packet(lam, n_points, eps_mode)
    return w, ps, moments(w, ps)


def run_evolve_check(lam: float, t: float, n_points: int = 512) -> float:
    """Max-norm gap between the spectral propagator and the amplitude pipeline."""
    if not np.isfinite(t):
        raise ValueError(f"t must be finite, got {t}")
    state, ps, w0 = _packet(lam, n_points, EPS_RELATIVISTIC)
    w_prop = evolve_even(w0, energy, t, ps)
    phi_t = state.phi_plus * np.exp(-1j * energy(state.grid.nodes) * t)
    w_wave = wigner_even(ChargeBranchState(state.grid, phi_plus=phi_t), +1, ps)
    return float(np.abs(w_prop - w_wave).max())


def effective_mass_ratio(lam: float, p_bar: float = 0.02, n_points: int = 512) -> float:
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
    even at crawling speeds.
    """
    if not 0.0 < abs(p_bar) < np.inf:
        raise ValueError(f"p_bar must be finite and nonzero, got {p_bar}")
    grid = packet_grid(lam, p_bar, n_points)
    density = np.abs(gaussian_state(grid, lam=lam, p_bar=p_bar).phi_plus) ** 2
    return p_bar / np.average(grid.nodes / energy(grid.nodes), weights=density)


def run_coherent(lams, p_bar: float = 0.02):
    return [(lam, effective_mass_ratio(lam, p_bar)) for lam in lams]


def run_rotator(b: float, alpha: float, t_max: float, dt: float, n_max: int = 64):
    model = RotatorModel(b=b, n_max=n_max)
    state = rotator_coherent_state(alpha, model.energy_model, n_max=n_max)
    series = orbit_series(state, model, t_max=t_max, dt=dt)
    peaks = modulation_spectrum(series)
    return series, peaks, model


def run_entangle(sigmas, models=("nonrel", "rel")) -> PenaltyTable:
    return penalty_curve(sigmas, models)


# ---------------------------------------------------------------------------
# Output helpers
# ---------------------------------------------------------------------------


def _write_provenance(args, tolerances: dict | None = None, **extra):
    """Write the `<args.out>.json` sidecar: version, command, resolved config, tolerances."""
    config = {k: v for k, v in vars(args).items() if k != "func"}
    config.update(extra)
    write_json(
        str(args.out) + ".json",
        {"version": __version__, "command": args.command, "config": config, "tolerances": tolerances or {}},
    )


def _write_field_csv(path, w, ps, metadata: dict, matrix: bool = False):
    q_nodes = list(map(repr, ps.q_nodes.tolist()))
    p_nodes = list(map(repr, ps.p_nodes.tolist()))
    if matrix:
        # contour-ready: first row q nodes, then one row per p node
        write_csv(path, metadata, ["p\\q"] + q_nodes, ([p] + row for p, row in zip(p_nodes, w.tolist())))
    else:
        rows = ((q, p, x) for p, row in zip(p_nodes, w.tolist()) for q, x in zip(q_nodes, row))
        write_csv(path, metadata, ["q", "p", "W"], rows)


# ---------------------------------------------------------------------------
# Command handlers
# ---------------------------------------------------------------------------


def _cmd_factors(args) -> int:
    out = run_factors(args.p1, args.p2)
    print(f"eps        = {out['eps']:.10g}")
    print(f"chi        = {out['chi']:.10g}")
    print(f"purity_rhs = {out['purity_rhs']:.10g}")
    if args.out:
        write_json(args.out, out)
        _write_provenance(args)
    return EXIT_OK


def _lam_from_args(args) -> float:
    if args.preset == "fig1":
        return 8.0
    if args.lam is None:
        raise ValueError("give --lambda or --preset fig1")
    return args.lam


def _cmd_wigner(args) -> int:
    lam = _lam_from_args(args)
    w, ps, m = run_wigner(lam, n_points=args.n_points, eps_mode=args.eps_mode)
    meta = {
        "lambda": f"{lam:g}",
        "n_points": args.n_points,
        "p_max": f"{ps.momentum.p_max:g}",
        "eps_mode": args.eps_mode,
    }
    _write_field_csv(args.out, w, ps, meta, matrix=args.matrix)
    mdict = {**asdict(m), "var_q_negative": bool(m.var_q < 0), "var_p_negative": bool(m.var_p < 0)}
    write_json(args.moments_out or (str(args.out) + ".moments.json"), mdict)
    _write_provenance(args, lambda_resolved=lam)
    print(f"var_q = {m.var_q:.6g} (negative: {mdict['var_q_negative']})")
    return EXIT_OK


def _cmd_evolve(args) -> int:
    dev = run_evolve_check(args.lam, args.t, n_points=args.n_points)
    print(f"max |spectral - wavefunction| = {dev:.3e}")
    if args.out:
        write_json(args.out, {"lambda": args.lam, "t": args.t, "deviation": dev})
        _write_provenance(args, {"check": args.tol})
    if args.check and not dev <= args.tol:
        print(f"FAIL: deviation exceeds {args.tol:g}", file=sys.stderr)
        return EXIT_TOLERANCE
    return EXIT_OK


def _cmd_coherent(args) -> int:
    lams = [float(x) for x in args.lambdas.split(",")]
    rows = run_coherent(lams, p_bar=args.p_bar)
    write_csv(args.out, {"p_bar": f"{args.p_bar:g}"}, ["lambda", "m_eff_over_m"], (map(float, row) for row in rows))
    _write_provenance(args)
    for lam, ratio in rows:
        print(f"lambda={lam:g}: m_eff/m = {ratio:.6g}")
    return EXIT_OK


def _cmd_rotator(args) -> int:
    series, peaks, model = run_rotator(args.b, args.alpha, args.t_max, args.dt, n_max=args.n_max)
    meta = {"b": f"{args.b:g}", "alpha": f"{args.alpha:g}", "omega": f"{model.omega:g}"}
    write_csv(args.out, meta, ["t", "r", "x", "y"], (map(float, row) for row in series.to_rows()))
    write_json(
        args.peaks_out or (str(args.out) + ".peaks.json"),
        {"omega": model.omega, "peaks": [{"frequency": p.frequency, "amplitude": p.amplitude} for p in peaks]},
    )
    _write_provenance(args)
    if peaks:
        print(f"dominant peak: {peaks[0].frequency:.6g} ({peaks[0].frequency / model.omega:.4g} omega)")
    else:
        print("no modulation peaks detected")
    return EXIT_OK


def _cmd_entangle(args) -> int:
    sigmas = [float(x) for x in args.sigmas.split(",")]
    models = tuple(args.models.split(","))
    table = run_entangle(sigmas, models)
    header = ["sigma"] + [f"penalty_{m}" for m in models]
    write_csv(args.out, {"models": ",".join(models)}, header, (map(float, row) for row in table.rows()))
    _write_provenance(args)
    for row in table.rows():
        print("  ".join(f"{v:.6g}" for v in row))
    return EXIT_OK


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
    w.add_argument("--n-points", type=int, default=512)
    w.add_argument("--eps-mode", choices=["relativistic", "unity"], default="relativistic")
    w.add_argument("--matrix", action="store_true", help="contour-ready matrix CSV layout")
    w.add_argument("--out", required=True)
    w.add_argument("--moments-out")
    w.set_defaults(func=_cmd_wigner)

    e = sub.add_parser("evolve", help="propagator vs amplitude-evolution cross-check")
    e.add_argument("--lambda", dest="lam", type=float, required=True)
    e.add_argument("--t", type=float, required=True)
    e.add_argument("--n-points", type=int, default=512)
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


def _with_config(parser: argparse.ArgumentParser, argv: list) -> list:
    """argv with the --config file's flags inserted right after the command.

    --config is read where `parser` accepts it, before the command, so an
    option after the command (`evolve --c` abbreviates --check) is never
    taken for it.  argparse keeps the last occurrence of a flag, so every
    flag given on the command line, abbreviated or not, beats the file.
    """
    pre = argparse.ArgumentParser(prog=parser.prog, add_help=False)
    pre.add_argument("--config")
    pre.add_argument("rest", nargs=argparse.REMAINDER)
    known, _ = pre.parse_known_args(argv)
    sub = next(a for a in parser._actions if isinstance(a, argparse._SubParsersAction))
    command = sub.choices.get(known.rest[0]) if known.rest else None
    if known.config is None or command is None:
        return argv
    at = len(argv) - len(known.rest) + 1
    return argv[:at] + _config_flags(command, known.config) + argv[at:]


def main(argv=None) -> int:
    argv = list(sys.argv[1:] if argv is None else argv)
    parser = build_parser()
    try:
        argv = _with_config(parser, argv)
        args = parser.parse_args(argv)
    except SystemExit as exc:
        return EXIT_CONFIG if exc.code not in (0, None) else 0
    except (OSError, ValueError) as exc:
        print(f"config error: {exc}", file=sys.stderr)
        return EXIT_CONFIG
    try:
        return args.func(args)
    except tuple(EXIT_CODES) as exc:
        code, label = next(v for cls, v in EXIT_CODES.items() if isinstance(exc, cls))
        print(f"{label}: {exc}", file=sys.stderr)
        return code


if __name__ == "__main__":
    sys.exit(main())
