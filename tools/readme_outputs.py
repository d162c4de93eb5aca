"""Fingerprint what each README command leaves behind, part by part.

Runs every `fvps ...` line of the README's command-line block (as
`reach.readme_commands` reads it) through `cli.main`, each in a fresh
temporary directory, and prints, for each command, the command, its
exit code and one sha256 per part: its stdout, its stderr and each file
it wrote, by relative name.  A warning counts as one stderr line,
`Category: message`; the file and line it names depend on the checkout
and are left out.  Run it on two checkouts and diff the outputs: an
empty diff means the same files, sidecars, output and exit codes.

`--kernels` runs the commands again, in one subprocess per OpenBLAS
kernel (the default, and `OPENBLAS_CORETYPE=Haswell` and
`=Sandybridge`), and prints each part whose sha256 under another kernel
differs from the default's.  It changes no machine setting: the
variable holds for the subprocess alone.  `--write` writes the default
kernel's lines to `tests/readme_outputs.txt`, the file
`tests/test_readme_outputs.py` checks the commands against, with the
parts `--kernels` finds marked `kernel-dependent` in place of their
sha256.

    python tools/readme_outputs.py > outputs.txt
    python tools/readme_outputs.py --kernels
    python tools/readme_outputs.py --write
"""

import argparse
import contextlib
import hashlib
import io
import os
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


def fingerprint(argv) -> tuple:
    """(exit code, {part: sha256 hex digest}) of `cli.main(argv)` run in a fresh directory.

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
    return code, {part: hashlib.sha256(data).hexdigest() for part, data in parts.items()}


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


def kernel_runs() -> dict:
    """{kernel: records} of the README commands run in one subprocess per kernel; None is the default kernel."""
    runs = {}
    for kernel in (None, *KERNELS):
        env = {key: value for key, value in os.environ.items() if key != "OPENBLAS_CORETYPE"}
        if kernel is not None:
            env["OPENBLAS_CORETYPE"] = kernel
        run = subprocess.run([sys.executable, __file__], env=env, capture_output=True, text=True, check=True)
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
    args = parser.parse_args()
    sys.path.insert(0, str(ROOT / "src"))
    if args.kernels or args.write:
        runs = kernel_runs()
        dependent = kernel_dependent(runs)
        if args.kernels:
            sys.stdout.writelines(f"{part}  fvps {command}\n" for command, part in sorted(dependent))
        if args.write:
            PINNED.write_text(format_records(runs[None], dependent))
    else:
        sys.stdout.write(format_records((argv, *fingerprint(argv)) for argv in readme_commands()))
