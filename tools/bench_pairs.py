"""Compare two checkouts on one perfbench workload by alternating pairs of runs.

Runs `perfbench/run.py` in a parent checkout and in a change checkout, one
run each per pair, alternating which side runs first, and prints per
metric the parent's median [quartiles] -> the change's median, the
relative move and the number of pairs the change won, lower being better
(ties count for neither side).  It also prints each side's failed-op counts and `correct`
flags and, for `--trace 1`, each run's share of traced time outside layer
spans.  Standard library only.

    python tools/bench_pairs.py --parent ../parent --change . \\
        --workload operator_algebra --pairs 10 --seed 20020206 --trace 0

Each checkout runs its own `perfbench/run.py` from its own root, with
that script's own run length and worker bounds.

With --fresh it times start-up instead: each README command
(`reach.readme_commands()`) runs in a fresh process, `fvps` imported
from that checkout's `src/`, in an empty temporary directory, once per
side and pair, one process at a time, alternating which side runs first.
It prints, per command, the wall time of the whole process in the same
form as a metric above.

    python tools/bench_pairs.py --parent ../parent --change . --fresh --pairs 11

Both checkouts must be in the same bytecode state: the tool refuses to
run when the sets of sources whose cached `.pyc` this interpreter would
load differ between them.  A copy made with `cp -r` carries `.pyc` files
whose recorded source mtimes no longer match, so with
PYTHONDONTWRITEBYTECODE set its modules recompile on every run while the
other tree loads its caches, and `setup_s` compares compile time, not
fvps.  Remove every `__pycache__` under both trees (or compile both)
before running.  A fresh PYTHONPYCACHEPREFIX per side was not chosen: it
also moves numpy's and the standard library's caches, so every run would
compile those as well.
"""

import argparse
import importlib.util
import json
import os
import re
import shlex
import statistics
import subprocess
import sys
import tempfile
import time
from pathlib import Path

from reach import readme_commands

OUTSIDE_SPANS = re.compile(r"([0-9.]+)% outside layer spans")
COMMAND = "import sys; from fvps.cli import main; sys.exit(main(sys.argv[1:]))"


def run_once(root: Path, args) -> dict:
    """One perfbench run in `root`: its JSON line plus the outside-spans share."""
    cmd = [sys.executable, "perfbench/run.py", "--workload", args.workload, "--seed", str(args.seed),
           "--trace", str(args.trace)]
    proc = subprocess.run(cmd, cwd=root, capture_output=True, text=True)
    if proc.returncode != 0:
        raise RuntimeError(f"{root}: perfbench exited with {proc.returncode}:\n{proc.stderr[-2000:]}")
    result = json.loads(proc.stdout.strip().splitlines()[-1])
    match = OUTSIDE_SPANS.search(proc.stdout)
    result["outside_spans"] = float(match.group(1)) / 100.0 if match else None
    return result


def fresh_once(root: Path, argv) -> float:
    """Wall seconds of one fresh process running `fvps argv` from `root`'s src/, in an empty directory."""
    env = {**os.environ, "PYTHONPATH": os.pathsep.join(filter(None, [str(root / "src"), os.environ.get("PYTHONPATH")]))}
    with tempfile.TemporaryDirectory() as tmp:
        start = time.perf_counter()
        proc = subprocess.run([sys.executable, "-c", COMMAND, *argv], cwd=tmp, env=env, capture_output=True, text=True)
        seconds = time.perf_counter() - start
    if proc.returncode != 0:
        raise RuntimeError(f"{root}: fvps {shlex.join(argv)} exited with {proc.returncode}:\n{proc.stderr[-2000:]}")
    return seconds


def fresh_pair(sides: dict, order) -> dict:
    """One fresh process per README command and side, in `order` for each command, as run_once-like records."""
    pair = {side: {"metrics": {}} for side in sides}
    for argv in readme_commands():
        for side in order:
            pair[side]["metrics"][f"fvps {shlex.join(argv)}"] = {"value": fresh_once(sides[side], argv), "unit": "s"}
    return pair


def cached_sources(root: Path) -> set[str]:
    """Sources under `root` whose cached bytecode this interpreter would load rather than compile."""
    cached = set()
    for source in root.rglob("*.py"):
        try:
            header = Path(importlib.util.cache_from_source(str(source))).read_bytes()[:16]
            stat = source.stat()
        except OSError:
            continue
        if header[:4] != importlib.util.MAGIC_NUMBER:
            continue
        flags = int.from_bytes(header[4:8], "little")
        if flags & 1:  # hash-based: loaded unchecked unless flagged check_source
            valid = not flags & 2 or header[8:16] == importlib.util.source_hash(source.read_bytes())
        else:
            stamp = (int(stat.st_mtime) & 0xFFFFFFFF, stat.st_size & 0xFFFFFFFF)
            valid = header[8:16] == b"".join(v.to_bytes(4, "little") for v in stamp)
        if valid:
            cached.add(source.relative_to(root).as_posix())
    return cached


def quartiles(values):
    if len(values) < 2:
        return values[0], values[0]
    q1, _, q3 = statistics.quantiles(values, n=4)
    return q1, q3


def summarise(runs):
    """One printable line per metric over the paired runs."""
    lines = []
    width = max(40, *map(len, runs[0]["parent"]["metrics"]))
    for name in runs[0]["parent"]["metrics"]:
        parent = [r["parent"]["metrics"][name]["value"] for r in runs]
        change = [r["change"]["metrics"][name]["value"] for r in runs]
        unit = runs[0]["parent"]["metrics"][name]["unit"]
        won = sum(c < p for p, c in zip(parent, change))
        p_med, c_med = statistics.median(parent), statistics.median(change)
        q1, q3 = quartiles(parent)
        move = f"{(c_med - p_med) / abs(p_med):+.1%}" if p_med else "n/a"
        lines.append(f"{name:{width}s} {p_med:.4g} [{q1:.4g}, {q3:.4g}] -> {c_med:.4g} {unit}  "
                     f"{move}  change won {won}/{len(runs)}")
    return lines


def main(argv=None):
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--parent", type=Path, required=True, help="root of the parent checkout")
    parser.add_argument("--change", type=Path, required=True, help="root of the change checkout")
    parser.add_argument("--workload")
    parser.add_argument("--fresh", action="store_true", help="time each README command in fresh processes")
    parser.add_argument("--pairs", type=int, default=10)
    parser.add_argument("--seed", type=int, default=20020206)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    if args.pairs < 1:
        parser.error("--pairs must be at least 1")
    if (args.workload is None) == (not args.fresh):
        parser.error("give one of --workload and --fresh")

    sides = {"parent": args.parent.resolve(), "change": args.change.resolve()}
    cached = {side: cached_sources(root) for side, root in sides.items()}
    if cached["parent"] != cached["change"]:
        differ = sorted(cached["parent"] ^ cached["change"])
        parser.error(f"the checkouts' bytecode caches differ ({len(differ)} sources, e.g. "
                     f"{', '.join(differ[:3])}); remove every __pycache__ under both trees")
    runs = []
    try:
        for i in range(args.pairs):
            order = ("parent", "change") if i % 2 == 0 else ("change", "parent")
            if args.fresh:
                runs.append(fresh_pair(sides, order))
                print(f"pair {i + 1}/{args.pairs} ({order[0]} first)", file=sys.stderr, flush=True)
                continue
            pair = {side: run_once(sides[side], args) for side in order}
            runs.append(pair)
            print(f"pair {i + 1}/{args.pairs} ({order[0]} first): "
                  + "; ".join(f"{side} correct={pair[side]['correct']} failed={pair[side]['failed']}"
                              for side in ("parent", "change")), file=sys.stderr, flush=True)
    except (RuntimeError, ValueError, IndexError) as exc:
        print(f"bench_pairs: {exc}", file=sys.stderr)
        if not runs:
            return 1
        print(f"bench_pairs: summarising the {len(runs)} complete pairs", file=sys.stderr)

    header = "fresh processes" if args.fresh else f"{args.workload} seed={args.seed} trace={args.trace}"
    print(f"{header} pairs={len(runs)}; parent median [quartiles] -> change median")
    for line in summarise(runs):
        print(line)
    for side in () if args.fresh else ("parent", "change"):  # a fresh process runs no counted ops
        print(f"{side}: failed ops per run {[r[side]['failed'] for r in runs]}, "
              f"correct {[r[side]['correct'] for r in runs]}")
        if args.trace:
            shares = ", ".join("n/a" if r[side]["outside_spans"] is None else f"{r[side]['outside_spans']:.2%}"
                               for r in runs)
            print(f"{side}: outside layer spans {shares}")
    return 0 if len(runs) == args.pairs else 1

if __name__ == "__main__":
    sys.exit(main())
