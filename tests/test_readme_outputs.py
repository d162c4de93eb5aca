"""The README commands' outputs, pinned in `tests/readme_outputs.txt`.

Each line of that file is `tools/readme_outputs.py`'s fingerprint of one
README command: its exit code and a sha256 over its stdout, its stderr
and every file it wrote.  `python tools/readme_outputs.py --write`
rewrites the file, so a change that moves a README byte shows in its
diff.

The sha256 is asserted for `factors`, `evolve`, `coherent` and
`entangle`, whose bytes were identical under three OpenBLAS kernels
(the default SkylakeX, and `OPENBLAS_CORETYPE=Haswell` and
`=Sandybridge`).  Both `wigner` commands and `rotator` gave three
different fingerprints under those kernels (ROADMAP item 17): their
last bits follow the BLAS kernel of the host.  For them only the exit
code is asserted.
"""

import shlex
import sys
from pathlib import Path

import pytest

TOOLS = Path(__file__).resolve().parents[1] / "tools"
sys.path.insert(0, str(TOOLS))
try:
    import readme_outputs
finally:
    sys.path.remove(str(TOOLS))

# Commands whose bytes follow the host's BLAS kernel.
KERNEL_DEPENDENT = {"wigner", "rotator"}


def _pinned() -> list:
    """(exit code, sha256, argv) of each line of the pinned file."""
    rows = []
    for line in readme_outputs.PINNED.read_text().splitlines():
        head, _, command = line.partition("  fvps ")
        code, digest = head.split()
        rows.append((int(code), digest, shlex.split(command)))
    return rows


def test_pins_every_readme_command():
    assert [argv for _, _, argv in _pinned()] == readme_outputs.readme_commands()


@pytest.mark.parametrize("code, digest, argv", [pytest.param(*row, id=row[2][0]) for row in _pinned()])
def test_readme_command_output(code, digest, argv):
    got_code, got_digest = readme_outputs.fingerprint(argv)
    assert got_code == code
    if argv[0] not in KERNEL_DEPENDENT:
        assert got_digest == digest
