"""Units, sampling grids, quadrature, and transform conventions.

Everything downstream integrates over momentum with a periodic Riemann sum
(the trapezoid rule for our symmetric grids), which is spectrally accurate
for smooth decaying integrands.  The momentum->position transform uses the
kernel exp(-i p q / hbar) so that phase-space correlation integrals built
later reproduce their continuum definitions without stray signs.

The transform is a centred DFT.  A conjugate grid has p_0 = -n dp / 2,
q_0 = -n dq / 2 and dq dp n = 2 pi hbar, so

    p_k q_m / hbar = n pi / 2 - k pi - m pi + 2 pi k m / n,

and since n is a power of two >= 8 the constant phase exp(i n pi / 2) is
1: every phase that the grid's offset adds to the plain DFT is a sign
(-1)^k or (-1)^m, which is what fftshift/ifftshift apply.  No exp ramp
is evaluated, so nothing picks up roundoff that grows with n.
"""

import contextvars
import os
import threading
from dataclasses import dataclass, field

import numpy as np
from numpy.lib.stride_tricks import sliding_window_view

from .errors import ConjugacyError, GridError


@dataclass(frozen=True)
class UnitSystem:
    """Mass, speed of light, and reduced Planck constant.

    Defaults to natural units m = c = hbar = 1, in which the Compton
    length hbar/(m c) is also 1.  Positions are then measured in Compton
    lengths and momenta in units of m c.
    """

    m: float = 1.0
    c: float = 1.0
    hbar: float = 1.0

    def __post_init__(self):
        if not all(0.0 < x < np.inf for x in (self.m, self.c, self.hbar)):
            raise ValueError(f"mass, c, and hbar must all be finite and positive, got {self.m}, {self.c}, {self.hbar}")
        try:
            in_range = all(0.0 < x < np.inf for x in (self.mc, self.mc2, self.compton_length))
        except (OverflowError, ZeroDivisionError):  # c**2 beyond ~1.3e154; m c underflowing to 0
            in_range = False
        if not in_range:
            raise ValueError(
                f"m c, m c^2 and hbar/(m c) must be finite and positive, got m={self.m}, c={self.c}, hbar={self.hbar}"
            )

    @property
    def mc(self) -> float:
        return self.m * self.c

    @property
    def mc2(self) -> float:
        return self.m * self.c**2

    @property
    def compton_length(self) -> float:
        return self.hbar / (self.m * self.c)


NATURAL = UnitSystem()


def _is_power_of_two(n: int) -> bool:
    return n >= 1 and (n & (n - 1)) == 0


@dataclass(frozen=True)
class MomentumGrid:
    """Uniform symmetric momentum lattice p_k = -p_max + k dp.

    n_points must be a power of two (>= 8) so spectral transforms stay
    cheap; the lattice is symmetric about zero up to the single-node
    offset of an even grid.
    """

    n_points: int
    p_max: float

    def __post_init__(self):
        if self.n_points < 8 or not _is_power_of_two(self.n_points):
            raise GridError(
                f"n_points must be a power of two >= 8, got {self.n_points}"
            )
        if not 0.0 < self.p_max < np.inf:
            raise GridError(f"p_max must be finite and positive, got {self.p_max}")

    @property
    def spacing(self) -> float:
        return 2.0 * self.p_max / self.n_points

    @property
    def nodes(self) -> np.ndarray:
        return -self.p_max + self.spacing * np.arange(self.n_points)


def half_step_lattice(grid: MomentumGrid, pad: int = 0) -> np.ndarray:
    """Nodes p_0 + kappa dp / 2 for kappa in [-pad, 2 n + pad).

    On a conjugate grid every shifted momentum p_k +- hbar kappa_m / 2 of
    a pair product or a mode phase is one of these nodes, so E(p +-
    hbar kappa / 2) is evaluated once per node and gathered.  `pad`
    extends the lattice past either end by as many half steps.
    """
    return -grid.p_max + 0.5 * grid.spacing * np.arange(-pad, 2 * grid.n_points + pad)


def _lattice_pairs(ahead: np.ndarray, behind: np.ndarray, rows: int, width: int):
    """Views F, B with F[k, c] = ahead[2k + c] and B[k, c] = behind[::-1][2k + width - c], k < rows, c = 0 .. width.

    The one rule by which a pair product reads two vectors on a
    (padded) `half_step_lattice` at the nodes 2k + width/2 +- j, j = c -
    width/2, either side of row k's centre: the transform's phi(p +- P/2)
    and a propagator's E(p +- hbar kappa / 2).  `behind` comes reversed,
    so that B, like F, runs forwards through a contiguous vector along c.
    F and B are (rows, width + 1) strided views, so nothing is copied.
    Both vectors need at least 2 rows + width - 1 entries.
    """
    # B's row 0 is the last window of the reversed vector
    return sliding_window_view(ahead, width + 1)[: 2 * rows : 2], sliding_window_view(behind, width + 1)[::-2][:rows]


# Cells of a kernel's widest work array in flight in the phase-space
# kernels (the transform, even-field evolution and the purity
# criterion), summed over the workers' blocks: 64 of the transform's
# n-wide output rows at n = 1024, whose two (rows, n/2 + 1) complex
# work buffers take 1 MB.  So the
# kernels' transient memory is a fixed budget (at least one row a
# worker) instead of O(n^2), for any number of workers.  At n = 1024 on
# a 2-core box (lam = 0.3 and 3, medians of 15 alternating rounds), two
# workers ran each kernel 7-19 % faster with this budget split in two
# than with half of it; one worker ran 0-6 % slower with the whole
# budget than with half.  The same budget is the threading threshold:
# a kernel runs on the workers from one budget of work (rows times
# `row_cells`) up, and `_run_row_blocks` holds the one rule that cuts
# and deals its blocks.  Below it the Python between its numpy calls
# contends for the interpreter lock: on two cores the criterion's
# window scan at n = 256 (33 K cells) took 10-42 % longer on two
# threads, and its stencils on 48-52 K-cell boxes 4-5 % longer.
_BLOCK_CELLS = 1 << 16
# The worker count: the CPUs this process may run on, or 1 where the
# affinity mask cannot be read.
_WORKERS = len(os.sched_getaffinity(0)) if hasattr(os, "sched_getaffinity") else 1

_pool = None
_pool_lock = threading.Lock()


def _forget_pool():
    """In a forked child the pool's threads do not exist: start a new pool on demand."""
    global _pool, _pool_lock
    _pool, _pool_lock = None, threading.Lock()


if hasattr(os, "register_at_fork"):
    os.register_at_fork(after_in_child=_forget_pool)


def _run_row_blocks(kernel, n_rows: int, row_cells: int) -> list:
    """[kernel(rows) for rows in blocks], for row blocks `rows` (slices) covering range(n_rows) in order.

    The one rule for every row-blocked kernel.  `row_cells` is the width
    of the kernel's widest work array.  Below one budget of work
    (`n_rows * row_cells < _BLOCK_CELLS`) the kernel runs on one worker,
    otherwise on w = `_WORKERS`, and a worker's share is
    `_BLOCK_CELLS // row_cells // w` rows (at least one).  The blocks are
    the fewest equal ones that come to a whole number per worker, each
    no taller than the share: count = w ceil(n_rows / (w share)) blocks
    of ceil(n_rows / count) rows, the last one shorter where the rows do
    not divide (and fewer blocks where such blocks run out of rows
    first).  So the blocks in flight hold at most `_BLOCK_CELLS` cells of
    that array together, unless a single row a worker is wider; no rows
    give no block.  Worker i of w runs blocks[i::w] in turn: the calling
    thread the first stripe, a thread pool started on first use the
    rest, each in a copy of the caller's context, which holds numpy's
    error state.  A kernel allocates its own work buffers, writes only
    its own rows and calls numpy and private helpers only.  The call
    returns, or raises, once every stripe has finished.  It is private
    so that a tracer wrapping the public functions neither takes the
    kernels' time as its own nor runs on a worker thread.
    """
    global _pool
    workers = _WORKERS if n_rows * row_cells >= _BLOCK_CELLS else 1
    share = max(_BLOCK_CELLS // row_cells // workers, 1)
    count = workers * -(-n_rows // (workers * share))
    size = -(-n_rows // count) if count else 1
    blocks = [slice(start, min(start + size, n_rows)) for start in range(0, n_rows, size)]
    workers = min(workers, len(blocks))
    if workers < 2:
        return [kernel(rows) for rows in blocks]
    from concurrent.futures import ThreadPoolExecutor, wait

    def stripe(i):
        return [kernel(rows) for rows in blocks[i::workers]]

    with _pool_lock:
        if _pool is None:
            _pool = ThreadPoolExecutor(_WORKERS - 1, thread_name_prefix="fvps-rows")
        pool = _pool
    futures = [pool.submit(contextvars.copy_context().run, stripe, i) for i in range(1, workers)]
    try:
        stripes = [stripe(0)]
    finally:
        wait(futures)
    stripes += [future.result() for future in futures]
    return [stripes[k % workers][k // workers] for k in range(len(blocks))]


@dataclass(frozen=True)
class PhaseSpaceGrid:
    """Momentum axis paired with a uniform position axis.

    Spectral (Fourier-pair) operations additionally require conjugacy,
    dq * dp * n_q = 2 pi hbar, which `conjugate` builds by construction.
    """

    momentum: MomentumGrid
    n_q: int
    q_max: float
    hbar: float = 1.0

    def __post_init__(self):
        if self.n_q < 8 or not _is_power_of_two(self.n_q):
            raise GridError(f"n_q must be a power of two >= 8, got {self.n_q}")
        if not 0.0 < self.q_max < np.inf:
            raise GridError(f"q_max must be finite and positive, got {self.q_max}")
        if not 0.0 < self.hbar < np.inf:
            raise GridError(f"hbar must be finite and positive, got {self.hbar}")

    @classmethod
    def conjugate(cls, momentum: MomentumGrid, hbar: float = 1.0) -> "PhaseSpaceGrid":
        """Position axis that is the exact discrete Fourier dual of `momentum`."""
        n_q = momentum.n_points
        dq = 2.0 * np.pi * hbar / (momentum.spacing * n_q)
        return cls(momentum=momentum, n_q=n_q, q_max=0.5 * n_q * dq, hbar=hbar)

    @property
    def dq(self) -> float:
        return 2.0 * self.q_max / self.n_q

    @property
    def q_nodes(self) -> np.ndarray:
        return -self.q_max + self.dq * np.arange(self.n_q)

    @property
    def p_nodes(self) -> np.ndarray:
        return self.momentum.nodes

    @property
    def dp(self) -> float:
        return self.momentum.spacing

    @property
    def is_conjugate(self) -> bool:
        target = 2.0 * np.pi * self.hbar
        return abs(self.dq * self.dp * self.n_q - target) <= 1e-9 * target

    def require_conjugate(self):
        if not self.is_conjugate:
            raise ConjugacyError(
                "spectral transform requires dq*dp*n_q = 2*pi*hbar; "
                f"got {self.dq * self.dp * self.n_q:.6g} vs {2 * np.pi * self.hbar:.6g}"
            )

    def require_field(self, field) -> np.ndarray:
        """`field` as an array, raising GridError unless its shape is (n_p, n_q)."""
        field = np.asarray(field)
        shape = (self.momentum.n_points, self.n_q)
        if field.shape != shape:
            raise GridError(f"field shape {field.shape} does not match grid {shape}")
        return field


def quadrature(values: np.ndarray, grid: MomentumGrid) -> complex:
    """Integrate sampled values over the momentum grid.

    Periodic Riemann sum = trapezoid rule here; linear in `values`.
    """
    values = np.asarray(values)
    if values.shape[-1] != grid.n_points:
        raise GridError(
            f"values length {values.shape[-1]} != grid length {grid.n_points}"
        )
    return values.sum(axis=-1) * grid.spacing


def phase_space_quadrature(field: np.ndarray, psgrid: PhaseSpaceGrid) -> complex:
    """Integrate a (n_p, n_q) field over dp dq."""
    return psgrid.require_field(field).sum() * psgrid.dp * psgrid.dq


def centred_dft_size(values: np.ndarray, psgrid: PhaseSpaceGrid) -> int:
    """n of the centred DFT that `values` (n samples on the last axis) take.

    The phases are signs only on conjugate axes of equal length, so
    anything else raises.
    """
    psgrid.require_conjugate()
    n = psgrid.n_q
    if psgrid.momentum.n_points != n or np.shape(values)[-1] != n:
        raise GridError(
            f"expected {n} samples on a square {psgrid.momentum.n_points} x {n} grid, "
            f"got {np.shape(values)[-1]}"
        )
    return n


def fourier_pair(values: np.ndarray, psgrid: PhaseSpaceGrid, direction: str = "forward") -> np.ndarray:
    """Unitary transform between the momentum and position axes.

    forward:  psi(q_m) = (dp / sqrt(2 pi hbar)) sum_k phi(p_k) exp(+i p_k q_m / hbar)
    inverse:  phi(p_k) = (dq / sqrt(2 pi hbar)) sum_m psi(q_m) exp(-i p_k q_m / hbar)

    The forward sign makes the position operator +i hbar d/dp in the
    momentum representation, which is the orientation the phase-space
    correlation kernel exp(-i P q / hbar) assumes (its p-marginal is then
    |psi(q)|^2).  Requires conjugate axes of equal length; the sums are
    centred DFTs (see the module notes), so forward o inverse is the
    identity to machine precision at every n and Parseval holds under
    the grid quadrature weights.  Transforms along the last axis.
    """
    n = centred_dft_size(values, psgrid)
    centred = np.fft.ifftshift(np.asarray(values, dtype=complex), axes=-1)
    if direction == "forward":
        spectrum = (psgrid.dp * n / np.sqrt(2 * np.pi * psgrid.hbar)) * np.fft.ifft(centred)
    elif direction == "inverse":
        spectrum = (psgrid.dq / np.sqrt(2 * np.pi * psgrid.hbar)) * np.fft.fft(centred)
    else:
        raise ValueError(f"direction must be 'forward' or 'inverse', got {direction!r}")
    return np.fft.fftshift(spectrum, axes=-1)
