"""Check the field writer's float text against `repr`, value by value.

Formats float64 values with `fvps.tables._repr_slots`, the vectorised
kernel behind `write_field_csv`, and compares each text with Python's
`repr`: first these families, each value with its neighbours one ulp
below and above, and with both signs:

  * 2^k for every binary exponent of the float range, subnormals included;
  * 10^k for every decimal exponent of the float range;
  * the bounds of `repr`'s positional form: 1e-05 and 0.0001 (exponent
    -5 and -4), 9999999999999998.0 and 1e16 (exponent 15 and 16);

then N random 64-bit patterns from a seeded generator (NaN and the
infinities included).  Prints the count of values checked and the first
mismatches, and exits 1 on any.  numpy and the standard library only.

    python tools/float_text_check.py --patterns 10000000 --seed 0
"""

import argparse
import itertools
import sys
from pathlib import Path

import numpy as np

sys.path.insert(0, str(Path(__file__).resolve().parents[1] / "src"))
from fvps.tables import _repr_slots  # noqa: E402

CHUNK = 1 << 16  # values formatted per call
SHOW = 10  # mismatches printed


def families():
    """The family values, their one-ulp neighbours and their negatives."""
    powers = [2.0**k for k in range(-1074, 1024)] + [float(f"1e{k}") for k in range(-323, 309)]
    base = np.array(powers + [1e-05, 0.0001, 9999999999999998.0, 1e16])
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
    got = lines.tobytes().translate(None, b"\0").decode("ascii")
    want = "".join(f"{v!r}\n" for v in values.tolist())
    if got == want:
        return []
    pairs = zip(values.view(np.uint64).tolist(), got.splitlines(), want.splitlines())
    return [(bits, g, w) for bits, g, w in pairs if g != w]


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--patterns", type=int, default=1_000_000, help="random 64-bit patterns to check")
    parser.add_argument("--seed", type=int, default=0, help="seed of the random patterns")
    args = parser.parse_args(argv)

    checked, count, shown = 0, 0, []
    for values in itertools.chain([families()], random_patterns(args.patterns, args.seed)):
        bad = mismatches(values)
        checked, count = checked + values.size, count + len(bad)
        shown += bad[: SHOW - len(shown)]
    print(f"{checked} values checked ({args.patterns} random patterns, seed {args.seed}): {count} mismatches")
    for bits, got, want in shown:
        print(f"  {bits:016x}: kernel {got!r}, repr {want!r}")
    return 1 if count else 0


if __name__ == "__main__":
    sys.exit(main())
