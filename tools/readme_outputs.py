"""Fingerprint what each README command leaves behind, part by part.

Runs every `fvps ...` line of the README's command-line block (as
`reach.readme_commands` reads it) through `cli.main`, each in a fresh
temporary directory, and prints, for each command, the command, its
exit code and one sha256 per part: its stdout, its stderr and each file
it wrote, by relative name.  A warning counts as one stderr line,
`Category: message`; the file and line it names depend on the checkout
and are left out.  Run it on two checkouts and diff the outputs: an
empty diff means the same files, sidecars, output and exit codes.

`--keep DIR` also writes each command's parts to `DIR/<i>/<part>`, i
its place in the README, with its command line in `DIR/<i>/head`.
`--compare A B` reads two such directories (say, one written in a
parent checkout and one in a change) and prints, for each part whose
bytes differ, how far its numbers moved (`deviation`): how many of
them differ, and the largest |change| relative to the largest
magnitude in A's part.

`--kernels` runs the commands again, in one subprocess per OpenBLAS
kernel (the default, and `OPENBLAS_CORETYPE=Haswell` and
`=Sandybridge`), and prints, for each other kernel, each part whose
bytes differ from the default kernel's, with its `deviation` (the
`--compare` lines of the two kernels' `--keep` directories).  It
changes no machine setting: the variable holds for the subprocess
alone.  `--write` writes the default kernel's lines to
`tests/readme_outputs.txt`, the file `tests/test_readme_outputs.py`
checks the commands against, with the parts `--kernels` finds marked
`kernel-dependent` in place of their sha256.

    python tools/readme_outputs.py > outputs.txt
    python tools/readme_outputs.py --keep ../parent-parts   # run in each checkout
    python tools/readme_outputs.py --compare ../parent-parts ../change-parts
    python tools/readme_outputs.py --kernels
    python tools/readme_outputs.py --write
"""

import argparse
import contextlib
import hashlib
import io
import os
import re
import shlex
import subprocess
import sys
import tempfile
import warnings
from pathlib import Path

from reach import ROOT, chdir, readme_commands

PINNED = ROOT / "tests" / "readme_outputs.txt"
KERNELS = ("Haswell", "Sandybridge")  # OPENBLAS_CORETYPE values compared with the default kernel
KERNEL_DEPENDENT = "kernel-dependent"  # stands in the pinned file for the sha256 of a part that follows the kernel


def run_parts(argv) -> tuple:
    """(exit code, {part: bytes}) of `cli.main(argv)` run in a fresh directory.

    The parts are 'stdout', 'stderr' and 'file <name>' for each file
    written, in the order of their names.
    """
    from fvps import cli

    out, err = io.StringIO(), io.StringIO()
    with tempfile.TemporaryDirectory() as tmp, chdir(tmp):
        with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
            with warnings.catch_warnings(record=True) as caught:
                warnings.simplefilter("always")
                code = cli.main(list(argv))
        err.writelines(f"{w.category.__name__}: {w.message}\n" for w in caught)
        parts = {"stdout": out.getvalue().encode(), "stderr": err.getvalue().encode()}
        for path in sorted(p for p in Path().rglob("*") if p.is_file()):
            parts[f"file {path}"] = path.read_bytes()
    return code, parts


def digests(parts: dict) -> dict:
    """{part: sha256 hex digest} of {part: bytes}."""
    return {part: hashlib.sha256(data).hexdigest() for part, data in parts.items()}


def fingerprint(argv) -> tuple:
    """(exit code, {part: sha256 hex digest}) of `run_parts(argv)`."""
    code, parts = run_parts(argv)
    return code, digests(parts)


def keep(directory: Path, index: int, head: str, parts: dict) -> None:
    """Write one record's {part: bytes} as `--keep` lays them out: `directory/<index>/<part>`, with `head` in `head`."""
    for part, data in [("head", head.encode()), *parts.items()]:
        path = directory / str(index) / part
        path.parent.mkdir(parents=True, exist_ok=True)
        path.write_bytes(data)


NUMBER = re.compile(rb"(?<![\w.])[-+]?(?:(?:\d+\.?\d*|\.\d+)(?:[eE][-+]?\d+)?|inf|Infinity|nan|NaN)(?![\w.])")


def deviation(ref: bytes, other: bytes) -> str:
    """How far the numbers in `other` moved from those in `ref`, in one line.

    How many differ (a NaN equals a NaN), and the largest |change|
    relative to the largest finite magnitude in `ref`.
    """
    a, b = ([float(x) for x in NUMBER.findall(data)] for data in (ref, other))
    if len(a) != len(b):
        return f"{len(a)} numbers against {len(b)}"
    moved = [abs(x - y) for x, y in zip(a, b) if x != y and not (x != x and y != y)]
    largest = max((abs(x) for x in a if abs(x) < float("inf")), default=0.0)
    worst = max(moved, default=0.0) / largest if largest else float("nan")
    return f"{len(moved)} of {len(a)} numbers differ, max |change| {worst:.2g} of max |x|"


def compare(ref_dir: Path, other_dir: Path) -> list:
    """A line per part that differs between two `--keep` directories: part, head and `deviation`."""
    lines = []
    for run in sorted((p for p in ref_dir.iterdir() if p.is_dir()), key=lambda p: int(p.name)):
        head = (run / "head").read_text()
        for path in sorted(run.iterdir()):
            other = other_dir / run.name / path.name
            if path.name != "head" and (not other.is_file() or other.read_bytes() != path.read_bytes()):
                moved = deviation(path.read_bytes(), other.read_bytes()) if other.is_file() else "missing"
                lines.append(f"{path.name}  {head}  {moved}\n")
    return lines


def format_records(records, dependent=frozenset()) -> str:
    """The text of `records`, (argv, exit code, parts) each; the (command, part) pairs in `dependent` are marked."""
    text = []
    for argv, code, parts in records:
        command = shlex.join(argv)
        text += [f"fvps {command}\n", f"  exit {code}\n"]
        text += [f"  {KERNEL_DEPENDENT if (command, part) in dependent else digest}  {part}\n" for part, digest in parts.items()]
    return "".join(text)


def parse(text: str) -> list:
    """The (argv, exit code, parts) records of `format_records`' text."""
    records = []
    for line in text.splitlines():
        if line.startswith("fvps "):
            records.append((shlex.split(line[len("fvps ") :]), None, {}))
        elif line.startswith("  exit "):
            argv, _, parts = records[-1]
            records[-1] = (argv, int(line.split()[1]), parts)
        else:
            digest, _, part = line.strip().partition("  ")
            records[-1][2][part] = digest
    return records


def kernel_runs(directory: Path) -> dict:
    """{kernel: records} of the README commands run in one subprocess per kernel; None is the default kernel.

    Each kernel's parts are kept in `directory / <kernel>` (`--keep`).
    """
    runs = {}
    for kernel in (None, *KERNELS):
        env = {key: value for key, value in os.environ.items() if key != "OPENBLAS_CORETYPE"}
        if kernel is not None:
            env["OPENBLAS_CORETYPE"] = kernel
        argv = [sys.executable, __file__, "--keep", str(directory / str(kernel))]
        run = subprocess.run(argv, env=env, capture_output=True, text=True, check=True)
        runs[kernel] = parse(run.stdout)
    return runs


def kernel_dependent(runs) -> set:
    """(command, part) of each part whose sha256 under a kernel of KERNELS differs from the default kernel's."""
    return {
        (shlex.join(argv), part)
        for kernel in KERNELS
        for (argv, _, parts), (_, _, other) in zip(runs[None], runs[kernel])
        for part, digest in parts.items()
        if other.get(part) != digest
    }


if __name__ == "__main__":
    parser = argparse.ArgumentParser(description="Fingerprint what each README command leaves behind, part by part.")
    parser.add_argument("--kernels", action="store_true", help="print the parts whose sha256 follows the OpenBLAS kernel")
    parser.add_argument("--write", action="store_true", help=f"write the lines to {PINNED.relative_to(ROOT)}")
    parser.add_argument("--keep", type=Path, help="also write each command's parts under this directory")
    parser.add_argument("--compare", type=Path, nargs=2, help="print how far the parts of two --keep directories moved")
    args = parser.parse_args()
    sys.path.insert(0, str(ROOT / "src"))
    if args.compare:
        sys.stdout.writelines(compare(*args.compare))
    elif args.kernels or args.write:
        with tempfile.TemporaryDirectory() as tmp:
            runs = kernel_runs(Path(tmp))
            dependent = kernel_dependent(runs)
            if args.kernels:
                for kernel in KERNELS:
                    sys.stdout.writelines(f"{kernel}  {line}" for line in compare(Path(tmp) / "None", Path(tmp) / kernel))
        if args.write:
            PINNED.write_text(format_records(runs[None], dependent))
    else:
        records = [(argv, *run_parts(argv)) for argv in readme_commands()]
        if args.keep:
            for i, (argv, _, parts) in enumerate(records):
                keep(args.keep, i, f"fvps {shlex.join(argv)}", parts)
        sys.stdout.write(format_records((argv, code, digests(parts)) for argv, code, parts in records))
