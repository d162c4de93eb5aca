"""The README commands' outputs, pinned part by part in `tests/readme_outputs.txt`.

For each README command that file holds its exit code and a sha256 of
each part it leaves behind: its stdout, its stderr and each file it
wrote.  `python tools/readme_outputs.py --write` rewrites the file, so a
change that moves a README byte shows in its diff, file by file.

Every part is asserted byte for byte except those the file marks
`kernel-dependent`, for which the test asserts only that the command
wrote them.  `--write` marks the parts that `--kernels` finds: those
whose bytes under `OPENBLAS_CORETYPE=Haswell` or `=Sandybridge` differ
from the default kernel's.  They are both `wigner` commands'
`w.csv.moments.json`, whose marginal sums are BLAS dots, and `rotator`'s
`orbit.csv` and `orbit.csv.peaks.json`, whose series is a BLAS product
(ROADMAP item 17).  The field CSVs, every stdout and every `<out>.json`
sidecar are the same under all three kernels, and the test passes under
each.
"""

import sys
from pathlib import Path

import pytest

TOOLS = Path(__file__).resolve().parents[1] / "tools"
sys.path.insert(0, str(TOOLS))
try:
    import readme_outputs
finally:
    sys.path.remove(str(TOOLS))

PINNED = readme_outputs.parse(readme_outputs.PINNED.read_text())


def test_pins_every_readme_command():
    assert [argv for argv, _, _ in PINNED] == readme_outputs.readme_commands()


@pytest.mark.parametrize("argv, code, parts", [pytest.param(*record, id=record[0][0]) for record in PINNED])
def test_readme_command_output(argv, code, parts):
    got_code, got = readme_outputs.fingerprint(argv)
    assert got_code == code
    assert list(got) == list(parts)
    for part, digest in parts.items():
        if digest != readme_outputs.KERNEL_DEPENDENT:
            assert got[part] == digest, part
