"""Fingerprint what each README command leaves behind.

Runs every `fvps ...` line of the README's command-line block (as
`reach.readme_commands` reads it) through `cli.main`, each in a fresh
temporary directory, and prints one line per command: its exit code, a
sha256 over its stdout, its stderr and every file it wrote (relative
name and bytes), and the command.  A warning counts as one stderr line,
`Category: message`; the file and line it names depend on the checkout
and are left out.  Run it on two checkouts and diff the outputs: an
empty diff means the same files, sidecars, output and exit codes.
`--write` writes the lines to `tests/readme_outputs.txt` instead, the
file `tests/test_readme_outputs.py` checks the commands against.

    python tools/readme_outputs.py > outputs.txt
    python tools/readme_outputs.py --write
"""

import argparse
import contextlib
import hashlib
import io
import shlex
import sys
import tempfile
import warnings
from pathlib import Path

from reach import ROOT, chdir, readme_commands

PINNED = ROOT / "tests" / "readme_outputs.txt"


def fingerprint(argv) -> tuple:
    """(exit code, sha256 hex digest) of `cli.main(argv)` run in a fresh directory."""
    from fvps import cli

    out, err = io.StringIO(), io.StringIO()
    with tempfile.TemporaryDirectory() as tmp, chdir(tmp):
        with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
            with warnings.catch_warnings(record=True) as caught:
                warnings.simplefilter("always")
                code = cli.main(list(argv))
        err.writelines(f"{w.category.__name__}: {w.message}\n" for w in caught)
        parts = [out.getvalue().encode(), err.getvalue().encode()]
        for path in sorted(p for p in Path().rglob("*") if p.is_file()):
            parts += [str(path).encode(), path.read_bytes()]
    digest = hashlib.sha256()
    for part in parts:
        # length-prefixed, so no two different part lists hash alike
        digest.update(len(part).to_bytes(8, "little") + part)
    return code, digest.hexdigest()


if __name__ == "__main__":
    parser = argparse.ArgumentParser(description="Fingerprint what each README command leaves behind.")
    parser.add_argument("--write", action="store_true", help=f"write the lines to {PINNED.relative_to(ROOT)}")
    args = parser.parse_args()
    sys.path.insert(0, str(ROOT / "src"))
    lines = []
    for argv in readme_commands():
        code, digest = fingerprint(argv)
        lines.append(f"{code} {digest}  fvps {shlex.join(argv)}\n")
    if args.write:
        PINNED.write_text("".join(lines))
    else:
        sys.stdout.writelines(lines)
