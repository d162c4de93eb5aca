"""The README commands' outputs, pinned part by part in `tests/readme_outputs.txt`.

For each README command that file holds its exit code and a sha256 of
each part it leaves behind: its stdout, its stderr and each file it
wrote.  `python tools/readme_outputs.py --write` rewrites the file, so a
change that moves a README byte shows in its diff, file by file.

Every part is asserted byte for byte except those the file marks
`kernel-dependent`, for which the test asserts only that the command
wrote them.  `--write` marks the parts that `--kernels` finds: those
whose bytes under `OPENBLAS_CORETYPE=Haswell` or `=Sandybridge` differ
from the default kernel's.  They are `rotator`'s `orbit.csv` and
`orbit.csv.peaks.json`, whose series is a BLAS product (ROADMAP item
17); the `wigner` commands' `w.csv.moments.json` no longer are, since
`moments` sums its marginals in one pass off BLAS.  The field CSVs, every stdout and every `<out>.json`
sidecar are the same under all three kernels, and the test passes under
each.

The tool's numeric diff, `deviation` (how many numbers of a part moved,
and by how much relative to its largest magnitude), and `compare`, which
applies it to two `--keep` directories, are checked on small inputs.
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


def test_deviation_counts_moved_numbers_against_the_largest_magnitude():
    # a NaN equals a NaN, words and version strings hold no numbers, and
    # the largest |change| is relative to the first file's largest finite magnitude
    ref = b'{"t": 1300.0, "r": 6.25, "x": nan, "v": "0.1.0", "s": "a8c1126"}\n-inf,2e-3\n'
    other = b'{"t": 1300.0, "r": 6.5, "x": nan, "v": "0.2.0", "s": "a8c1127"}\n-inf,2.5e-3\n'
    assert readme_outputs.deviation(ref, ref) == "0 of 5 numbers differ, max |change| 0 of max |x|"
    assert readme_outputs.deviation(ref, other) == f"2 of 5 numbers differ, max |change| {0.25 / 1300:.2g} of max |x|"
    assert readme_outputs.deviation(ref, b"1300.0") == "5 numbers against 1"


def test_compare_names_each_part_that_moved(tmp_path):
    head = "fvps rotator --b 0.5"
    parts = {"stdout": b"peak 0.1\n", "file orbit.csv": b"t,r\n0.0,6.0\n1.0,6.5\n"}
    readme_outputs.keep(tmp_path / "a", 0, head, parts)
    readme_outputs.keep(tmp_path / "b", 0, head, {**parts, "file orbit.csv": b"t,r\n0.0,6.0\n1.0,6.25\n"})
    assert readme_outputs.compare(tmp_path / "a", tmp_path / "b") == [
        "file orbit.csv  fvps rotator --b 0.5  1 of 4 numbers differ, max |change| 0.038 of max |x|\n"
    ]
