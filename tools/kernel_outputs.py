"""Fingerprint the phase-space kernels' outputs, packet by packet and worker count by worker count.

For each Gaussian packet on its `cli.packet_grid` (lam = 0.3 at n = 256,
lam = 8 at n = 512, both at n = 1024, each at p_bar = 0 and 0.45: grids
that resolve each packet) and each row-block worker count
(1 and 3, set through `grids._WORKERS`), prints one sha256 per kernel
output: the bytes of `wigner_even` on the positive branch, of
`wigner_odd` between the packet and a copy of it with a random phase,
and of `evolve_even` at t = 5, and the `repr` of `purity_check`'s
report.  Run it on two checkouts and diff the outputs: an empty diff
means the same output bits.  `--write` writes the lines to
`tests/kernel_outputs.txt`, the file `tests/test_kernel_outputs.py`
checks the kernels against.

    python tools/kernel_outputs.py > outputs.txt
    python tools/kernel_outputs.py --write
"""

import argparse
import hashlib
import sys

from reach import ROOT

PINNED = ROOT / "tests" / "kernel_outputs.txt"
PACKETS = [(n, lam, p_bar) for n, lam in ((256, 0.3), (512, 8.0), (1024, 0.3), (1024, 8.0)) for p_bar in (0.0, 0.45)]
WORKERS = (1, 3)


def header(n: int, lam: float, p_bar: float, workers: int) -> str:
    return f"n={n} lam={lam} p_bar={p_bar} workers={workers}"


def fingerprints(n: int, lam: float, p_bar: float) -> dict:
    """{kernel: sha256 hex digest} of each kernel's output on the (n, lam, p_bar) packet, on the current workers."""
    import numpy as np

    from fvps import ChargeBranchState, PhaseSpaceGrid, energy, evolve_even, gaussian_state, purity_check, wigner_even, wigner_odd
    from fvps.cli import packet_grid

    ps = PhaseSpaceGrid.conjugate(packet_grid(lam, p_bar, n))
    state = gaussian_state(ps.momentum, lam=lam, p_bar=p_bar)
    phase = np.exp(0.1j * np.random.default_rng(7).normal(size=n))
    both = ChargeBranchState(ps.momentum, phi_plus=state.phi_plus, phi_minus=state.phi_plus * phase)
    w = wigner_even(state, +1, ps)
    outputs = {
        "wigner_even": w.tobytes(),
        "wigner_odd": wigner_odd(both, +1, ps).tobytes(),
        "evolve_even": evolve_even(w, energy, 5.0, ps).tobytes(),
        "purity_check": repr(purity_check(w, ps)).encode(),
    }
    return {kernel: hashlib.sha256(data).hexdigest() for kernel, data in outputs.items()}


def records() -> dict:
    """{header: fingerprints} for every worker count and packet, in that order."""
    from fvps import grids

    before, out = grids._WORKERS, {}
    try:
        for workers in WORKERS:
            grids._WORKERS = workers
            out.update({header(*packet, workers): fingerprints(*packet) for packet in PACKETS})
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
    args = parser.parse_args()
    sys.path.insert(0, str(ROOT / "src"))
    text = format_records(records())
    if args.write:
        PINNED.write_text(text)
    else:
        sys.stdout.write(text)
