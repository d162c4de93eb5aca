"""Fingerprint the phase-space kernels' outputs, packet by packet and worker count by worker count.

For each Gaussian packet on its `cli.packet_grid` (lam = 0.3 at n = 256,
lam = 8 at n = 512, both at n = 1024, each at p_bar = 0 and 0.45: grids
that resolve each packet) and each row-block worker count
(1 and 3, set through `grids._WORKERS`), prints one sha256 per kernel
output: the bytes of `wigner_even` on the positive branch, of
`wigner_odd` between the packet and a copy of it with a random phase,
and of `evolve_even` at t = 5, and the `repr` of `purity_check`'s
report and of `moments` of the even field.  Run it on two checkouts and
diff the outputs: an empty diff means the same output bits.  `--write`
writes the lines to `tests/kernel_outputs.txt`, the file
`tests/test_kernel_outputs.py` checks the kernels against.

`--keep DIR` also writes each output as text to `DIR/<i>/<kernel>`, i
the record's place in the output, with its header in `DIR/<i>/head`:
a field as the `repr` of each of its floats (a complex field's real and
imaginary parts in turn), a report as its `repr`.  `--compare A B` reads
two such directories (say, one written in a parent checkout and one in a
change) and prints, for each output whose text differs, how far its
numbers moved (`readme_outputs.deviation`): how many of them differ, and
the largest |change| relative to the largest magnitude in A's output.

    python tools/kernel_outputs.py > outputs.txt
    python tools/kernel_outputs.py --keep ../parent-kernels   # run in each checkout
    python tools/kernel_outputs.py --compare ../parent-kernels ../change-kernels
    python tools/kernel_outputs.py --write
"""

import argparse
import sys
from pathlib import Path

from reach import ROOT
from readme_outputs import compare, digests, keep

PINNED = ROOT / "tests" / "kernel_outputs.txt"
PACKETS = [(n, lam, p_bar) for n, lam in ((256, 0.3), (512, 8.0), (1024, 0.3), (1024, 8.0)) for p_bar in (0.0, 0.45)]
WORKERS = (1, 3)


def header(n: int, lam: float, p_bar: float, workers: int) -> str:
    return f"n={n} lam={lam} p_bar={p_bar} workers={workers}"


def outputs(n: int, lam: float, p_bar: float) -> dict:
    """{kernel: field array or report repr} of each kernel on the (n, lam, p_bar) packet, on the current workers."""
    import numpy as np

    from fvps import (ChargeBranchState, PhaseSpaceGrid, energy, evolve_even, gaussian_state, moments, purity_check,
                      wigner_even, wigner_odd)
    from fvps.cli import packet_grid

    ps = PhaseSpaceGrid.conjugate(packet_grid(lam, p_bar, n))
    state = gaussian_state(ps.momentum, lam=lam, p_bar=p_bar)
    phase = np.exp(0.1j * np.random.default_rng(7).normal(size=n))
    both = ChargeBranchState(ps.momentum, phi_plus=state.phi_plus, phi_minus=state.phi_plus * phase)
    w = wigner_even(state, +1, ps)
    return {
        "wigner_even": w,
        "wigner_odd": wigner_odd(both, +1, ps),
        "evolve_even": evolve_even(w, energy, 5.0, ps),
        "purity_check": repr(purity_check(w, ps)),
        "moments": repr(moments(w, ps)),
    }


def pinned_bytes(value) -> bytes:
    """The bytes a fingerprint hashes: a field's buffer, a report's `repr`."""
    return value.encode() if isinstance(value, str) else value.tobytes()


def keep_text(value) -> bytes:
    """`--keep`'s text of an output: the `repr` of each float of a field, or a report's `repr`."""
    if isinstance(value, str):
        return value.encode()
    return " ".join(map(repr, value.view(float).ravel().tolist())).encode()


def fingerprints(n: int, lam: float, p_bar: float) -> dict:
    """{kernel: sha256 hex digest} of each kernel's output on the (n, lam, p_bar) packet, on the current workers."""
    return digests({kernel: pinned_bytes(value) for kernel, value in outputs(n, lam, p_bar).items()})


def records(keep_dir: Path | None = None) -> dict:
    """{header: fingerprints} for every worker count and packet, in that order; with `keep_dir`, each output's text too."""
    from fvps import grids

    before, out = grids._WORKERS, {}
    try:
        for workers in WORKERS:
            grids._WORKERS = workers
            for packet in PACKETS:
                head, values = header(*packet, workers), outputs(*packet)
                out[head] = digests({kernel: pinned_bytes(value) for kernel, value in values.items()})
                if keep_dir:
                    keep(keep_dir, len(out) - 1, head, {kernel: keep_text(value) for kernel, value in values.items()})
    finally:
        grids._WORKERS = before
    return out


def format_records(records: dict) -> str:
    return "".join(f"{head}\n" + "".join(f"  {digest}  {kernel}\n" for kernel, digest in parts.items())
                   for head, parts in records.items())


def parse(text: str) -> dict:
    """The {header: {kernel: digest}} records of `format_records`' text."""
    out = {}
    for line in text.splitlines():
        if line.startswith("  "):
            digest, kernel = line.split()
            out[head][kernel] = digest
        else:
            head = line
            out[head] = {}
    return out


if __name__ == "__main__":
    parser = argparse.ArgumentParser(description="Fingerprint the phase-space kernels' outputs.")
    parser.add_argument("--write", action="store_true", help=f"write the lines to {PINNED.relative_to(ROOT)}")
    parser.add_argument("--keep", type=Path, help="also write each output as text under this directory")
    parser.add_argument("--compare", type=Path, nargs=2,
                        help="print how far the outputs of two --keep directories moved")
    args = parser.parse_args()
    sys.path.insert(0, str(ROOT / "src"))
    if args.compare:
        sys.stdout.writelines(compare(*args.compare))
    else:
        text = format_records(records(args.keep))
        if args.write:
            PINNED.write_text(text)
        else:
            sys.stdout.write(text)
