"""The phase-space kernels' outputs, pinned packet by packet in `tests/kernel_outputs.txt`.

For each packet (lam = 0.3 at n = 256, lam = 8 at n = 512, both at
n = 1024, each at p_bar = 0 and 0.45) and row-block worker count (1 and
3), that file holds a sha256 of the bytes of `wigner_even`, `wigner_odd`
and `evolve_even` and of the `repr` of `purity_check`'s report and of
`moments` (see `tools/kernel_outputs.py`).
`python tools/kernel_outputs.py --write` rewrites it, so a change that
moves an output bit on any packet or worker count shows in its diff.
"""

import sys
from pathlib import Path

import pytest

from fvps import grids

TOOLS = Path(__file__).resolve().parents[1] / "tools"
sys.path.insert(0, str(TOOLS))
try:
    import kernel_outputs
finally:
    sys.path.remove(str(TOOLS))

PINNED = kernel_outputs.parse(kernel_outputs.PINNED.read_text())


def test_pins_every_packet_on_every_worker_count():
    assert list(PINNED) == [kernel_outputs.header(*packet, workers)
                            for workers in kernel_outputs.WORKERS for packet in kernel_outputs.PACKETS]


@pytest.mark.parametrize("workers", kernel_outputs.WORKERS)
@pytest.mark.parametrize("packet", kernel_outputs.PACKETS, ids=lambda packet: "n={}-lam={}-p_bar={}".format(*packet))
def test_kernel_outputs(packet, workers, monkeypatch):
    monkeypatch.setattr(grids, "_WORKERS", workers)
    assert kernel_outputs.fingerprints(*packet) == PINNED[kernel_outputs.header(*packet, workers)]
