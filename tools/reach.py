"""Which `src/fvps` functions and methods the paper's results reach.

Runs the README's command-line examples (in a temporary directory) and
`tests/test_acceptance.py` under `sys.setprofile`, then prints one
markdown table row per module: its functions and methods (module-level
functions and the methods of module-level classes) split into those
that were called and those that were not.  Run from anywhere:

    python tools/reach.py
"""

import ast
import contextlib
import io
import os
import re
import shlex
import sys
import tempfile
from pathlib import Path

ROOT = Path(__file__).resolve().parents[1]
PACKAGE = ROOT / "src" / "fvps"


def definitions():
    """(module, qualname) of every module-level function and module-level class method."""
    names = []
    for path in sorted(PACKAGE.glob("*.py")):
        for node in ast.parse(path.read_text()).body:
            if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef)):
                names.append((path.stem, node.name))
            elif isinstance(node, ast.ClassDef):
                names += [
                    (path.stem, f"{node.name}.{item.name}")
                    for item in node.body
                    if isinstance(item, (ast.FunctionDef, ast.AsyncFunctionDef))
                ]
    return names


@contextlib.contextmanager
def chdir(path):
    """Work in directory `path` inside the block, as ``contextlib.chdir`` does from Python 3.11 on."""
    before = os.getcwd()
    os.chdir(path)
    try:
        yield
    finally:
        os.chdir(before)


def readme_commands():
    """argv lists of the `fvps ...` lines in the README's command-line block."""
    text = (ROOT / "README.md").read_text()
    block = re.search(r"## Command line\s+```sh\n(.*?)```", text, re.S).group(1)
    return [shlex.split(line, comments=True)[1:] for line in block.splitlines() if line.startswith("fvps ")]


def traced_run():
    """Code objects called while the README commands and the acceptance tests run.

    fvps is first imported under the profiler, so the calls it makes at
    import time (such as building `grids.NATURAL`) count as reached.
    """
    called = set()

    def profile(frame, event, arg):
        if event == "call":
            called.add(frame.f_code)

    with tempfile.TemporaryDirectory() as tmp, contextlib.redirect_stdout(io.StringIO()):
        sys.setprofile(profile)
        try:
            import pytest

            from fvps import cli

            with chdir(tmp):
                codes = [cli.main(argv) for argv in readme_commands()]
            codes.append(int(pytest.main(["-q", "-p", "no:cacheprovider", str(ROOT / "tests" / "test_acceptance.py")])))
        finally:
            sys.setprofile(None)
    return called, codes


if __name__ == "__main__":
    sys.path.insert(0, str(ROOT / "src"))
    os.chdir(ROOT)
    called, codes = traced_run()
    reached = {
        (Path(code.co_filename).stem, code.co_qualname)
        for code in called
        if Path(code.co_filename).parent == PACKAGE
    }
    names = definitions()
    print(f"README commands exit {codes[:-1]}; tests/test_acceptance.py exits {codes[-1]}")
    print()
    print("| module | reached | unreached |")
    print("|---|---|---|")
    for module in dict.fromkeys(m for m, _ in names):
        hit = [q for m, q in names if m == module and (m, q) in reached]
        miss = [q for m, q in names if m == module and (m, q) not in reached]
        print(f"| {module} | {', '.join(hit)} | {', '.join(miss)} |")
    count = sum(name in reached for name in names)
    print()
    print(f"reached {count} of {len(names)} functions and methods")
