"""Check the field writer's float text against `repr`, value by value.

Formats float64 values with `fvps.tables._repr_slots`, the vectorised
kernel behind `write_field_csv`, and compares each text with Python's
`repr`: first these families, each value with its neighbours one ulp
below and above, and with both signs:

  * 2^k for every binary exponent of the float range, subnormals included;
  * 10^k for every decimal exponent of the float range;
  * the bounds of `repr`'s positional form: 1e-05 and 0.0001 (exponent
    -5 and -4), 9999999999999998.0 and 1e16 (exponent 15 and 16);
  * short decimals: for every decimal exponent of the float range, the
    positional form's -4..15 among them, a value with each count of
    significant digits 1..17, whose shortest digits come out of the
    kernel's product with trailing zeros;

then N random 64-bit patterns from a seeded generator (NaN and the
infinities included).  The families and every 16th chunk of patterns
also go through `write_field_csv` itself, in both layouts, as a field
whose last block of rows, and last record, is ragged, its first row and first column
serving as q and p nodes; every cell of the file is compared with
`repr`, which referees the record layout and the NUL deletion too.
Prints the count of values checked and the first mismatches, and exits
1 on any.  numpy and the standard library only.

    python tools/float_text_check.py --patterns 10000000 --seed 0
"""

import argparse
import itertools
import math
import sys
import tempfile
from pathlib import Path

import numpy as np

sys.path.insert(0, str(Path(__file__).resolve().parents[1] / "src"))
from fvps.tables import _geometry, _repr_slots, write_field_csv  # noqa: E402

CHUNK = 1 << 16  # values formatted per call
SHOW = 10  # mismatches printed
WRITER_EVERY = 16  # every this many chunks also go through write_field_csv
N_Q = 1000  # field columns when values go through write_field_csv


def families():
    """The family values, their one-ulp neighbours and their negatives."""
    powers = [2.0**k for k in range(-1074, 1024)] + [float(f"1e{k}") for k in range(-323, 309)]
    digits = "12345678912345678"  # no zero, so that each prefix keeps all its digits
    short = [float(f"{digits[:k]}e{sci - k + 1}") for sci in range(-324, 309) for k in range(1, 18)]
    short = [value for value in short if 0.0 < value < math.inf]
    base = np.array(powers + [1e-05, 0.0001, 9999999999999998.0, 1e16] + short)
    near = np.concatenate([np.nextafter(base, 0.0), base, np.nextafter(base, np.inf)])
    return np.concatenate([near, -near])


def random_patterns(count: int, seed: int):
    """`count` random float64 bit patterns, in chunks."""
    rng = np.random.default_rng(seed)
    for start in range(0, count, CHUNK):
        size = min(CHUNK, count - start)
        yield rng.integers(0, 2**64, size=size, dtype=np.uint64, endpoint=False).view(np.float64)


def mismatches(values):
    """(bits, kernel text, repr) of each float64 in `values` whose two texts differ."""
    slots = _repr_slots(values)
    lines = np.empty((values.size, slots.shape[0] + 1), dtype=np.uint8)
    lines[:, :-1] = slots.T
    lines[:, -1] = ord("\n")
    got = lines.tobytes().translate(None, b"\0").decode("ascii", "replace")
    want = "".join(f"{v!r}\n" for v in values.tolist())
    if got == want:
        return []
    pairs = zip(values.view(np.uint64).tolist(), got.splitlines(), want.splitlines())
    return [(bits, g, w) for bits, g, w in pairs if g != w]


def field_mismatches(values, path, matrix: bool):
    """(bits, written text, repr) of each cell `write_field_csv` writes from `values` whose two texts differ.

    The values fill an N_Q-column field row by row, repeated where the
    last row needs more, with rows added until the last block of rows
    and, where a record holds more than one row, the last record are
    ragged; the field's first row and first column are its nodes.
    """
    rows, block = _geometry(N_Q)
    n_p = -(-values.size // N_Q)
    while n_p % block == 0 or (rows > 1 and n_p % rows == 0):
        n_p += 1
    w = np.resize(values, (n_p, N_Q))
    q, p = w[0], w[:, 0]
    write_field_csv(path, {}, q, p, w, matrix=matrix)
    lines = path.read_bytes().decode("ascii", "replace").split("\r\n")
    if matrix:
        got = lines[0].split(",")[1:] + ",".join(lines[1:-1]).split(",")
        cells = np.concatenate([q, np.column_stack([p, w]).ravel()])
    else:
        got = ",".join(lines[1:-1]).split(",")
        cells = np.stack(np.broadcast_arrays(q, p[:, None], w), axis=-1).ravel()
    want = [repr(v) for v in cells.tolist()]
    if got == want:
        return []
    if len(got) != len(want):
        return [(0, f"{len(got)} cells", f"{len(want)} cells")]
    pairs = zip(cells.view(np.uint64).tolist(), got, want)
    return [(bits, g, w) for bits, g, w in pairs if g != w]


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--patterns", type=int, default=1_000_000, help="random 64-bit patterns to check")
    parser.add_argument("--seed", type=int, default=0, help="seed of the random patterns")
    args = parser.parse_args(argv)

    checked, count, shown = 0, 0, []
    written, written_bad, written_shown = 0, 0, []
    with tempfile.TemporaryDirectory() as tmp:
        path = Path(tmp) / "field.csv"
        chunks = itertools.chain([families()], random_patterns(args.patterns, args.seed))
        for index, values in enumerate(chunks):
            bad = mismatches(values)
            checked, count = checked + values.size, count + len(bad)
            shown += bad[: SHOW - len(shown)]
            if index % WRITER_EVERY == 0:
                written += values.size
                for matrix in (False, True):
                    bad = field_mismatches(values, path, matrix)
                    written_bad += len(bad)
                    written_shown += bad[: SHOW - len(written_shown)]
    print(f"{checked} values checked ({args.patterns} random patterns, seed {args.seed}): {count} mismatches")
    for bits, got, want in shown:
        print(f"  {bits:016x}: kernel {got!r}, repr {want!r}")
    print(f"{written} of them also written by write_field_csv, in each layout: {written_bad} mismatches")
    for bits, got, want in written_shown:
        print(f"  {bits:016x}: written {got!r}, repr {want!r}")
    count += written_bad
    return 1 if count else 0


if __name__ == "__main__":
    sys.exit(main())
