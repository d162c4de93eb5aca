"""The measured process of one benchmark run; started by run.py, never imported.

One process runs one workload, so its peak RSS belongs to that workload
alone.  The process times its own set-up (importing fvps and generating
the first pass's inputs), warms up every operation kind once, then runs
round(--seconds / pass_seconds) whole passes of the workload's operation
mix as a closed loop.  With --trace it runs half of them untraced and
the other half traced, then one more pass for peak memory.  It prints one
JSON object as its last line of output.
"""

import time

T0 = time.perf_counter()

import argparse  # noqa: E402
import json  # noqa: E402
import os  # noqa: E402
import platform  # noqa: E402
import resource  # noqa: E402
import shutil  # noqa: E402
import statistics  # noqa: E402
import sys  # noqa: E402
from contextlib import nullcontext  # noqa: E402
from pathlib import Path  # noqa: E402

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
sys.path.insert(0, str(ROOT / "src"))
sys.path.insert(1, str(HERE))


def import_fvps():
    import fvps

    source = Path(fvps.__file__).resolve()
    if ROOT / "src" not in source.parents:
        raise ImportError(f"fvps imported from {source}, not from this checkout's src/")
    return fvps


# Machine-speed calibration.  On a shared 2-core virtual machine the CPU speed
# drifts by 10-30 % over tens of seconds, and the drift moves every timing
# alike; medians within a run cannot remove it.  So a fixed kernel runs,
# untimed, before every operation and after each pass's last one: an
# interpreter loop, BLAS matrix products and FFT/element-wise work, the
# three kinds of work fvps does.  Its speed factor is the mean of the three
# parts' times over CALIBRATION_REF_S, their 10th-percentile times on the
# reference machine, and each operation's time is divided by the mean of
# the factors taken just before and just after it.
# A quiet machine reads a factor near 1, so calibrated seconds are close to
# wall seconds there; the report prints the wall figures and the factors.
CALIBRATION_REF_S = (4.2e-3, 3.2e-3, 3.4e-3)
DEADLINE_FACTOR = 1.6


class Calibration:
    def __init__(self):
        import numpy as np

        rng = np.random.default_rng(0)
        self.np = np
        self.matrix = rng.normal(size=(256, 256)) + 1j * rng.normal(size=(256, 256))
        self.vector = rng.normal(size=1 << 17) + 0j
        self.factor()  # the first calls load BLAS and plan the FFT

    def factor(self):
        """Current slowness relative to the reference machine (1 = reference speed).

        The kernel runs once untimed, so that the caches the preceding
        operation left behind do not enter the factor, then once timed
        (about 25 ms in all).
        """
        self._kernel()
        return self._kernel()

    def _kernel(self):
        t0 = time.perf_counter()
        x = 0
        for i in range(80000):
            x += i * i
        t1 = time.perf_counter()
        self.matrix @ self.matrix
        self.matrix @ self.matrix
        t2 = time.perf_counter()
        self.np.sqrt(self.np.abs(self.np.fft.fft(self.vector)) + 1.0)
        t3 = time.perf_counter()
        parts = (t1 - t0, t2 - t1, t3 - t2)
        return statistics.fmean(t / ref for t, ref in zip(parts, CALIBRATION_REF_S))


def phase_stats(passes, factors=None):
    """End-to-end timing figures of a list of passes (each a list of op seconds).

    With `factors` (same shape as `passes`) every time is divided by its factor.
    """
    if factors is not None:
        passes = [[t / f for t, f in zip(p, fs)] for p, fs in zip(passes, factors)]
    ops = sorted(t for p in passes for t in p)
    n = len(ops)
    # the highest percentile with at least ten operations beyond it
    if n > 10:
        tail, tail_pct = ops[n - 11], 100.0 * (n - 10) / n
    else:
        tail, tail_pct = ops[-1], 100.0
    return {
        "run_s": statistics.fmean(sum(p) for p in passes),
        "op_s_p50": statistics.median(ops),
        "op_s_tail": tail,
        "tail_percentile": tail_pct,
        "ops": n,
        "passes": len(passes),
    }


def run_phase(workload, calibration, first_pass, n_passes, deadline, tracer=None):
    """`n_passes` whole passes; no pass starts that would end after `deadline`."""
    passes, op_factors, pass_wall, failures, probe_failures = [], [], [], [], []
    index = first_pass
    while len(passes) < n_passes and (not passes or time.perf_counter() + pass_wall[-1] <= deadline):
        start = time.perf_counter()
        times, factors = [], []
        for i, op in enumerate(workload.pass_ops(index)):
            arg = workload.prepare(op)
            factors.append(calibration.factor())
            root = tracer.root("op", f"{index}.{i}") if tracer else nullcontext()
            t = time.perf_counter()
            try:
                with root:
                    result = workload.run(arg)
            except Exception as exc:  # a failed op is counted, never dropped
                times.append(time.perf_counter() - t)
                failures.append(f"{op[0]}: {type(exc).__name__}: {exc}")
                continue
            times.append(time.perf_counter() - t)
            problems = workload.check(op, result)
            if problems:
                failures.append(f"{op[0]}: {'; '.join(problems)}")
        factors.append(calibration.factor())
        passes.append(times)
        # an operation's factor is the mean of those taken just before and just after it
        op_factors.append([(a + b) / 2 for a, b in zip(factors, factors[1:])])
        if workload.probe:
            with tracer.root("probe", f"{index}.probe") if tracer else nullcontext():
                outcome = workload.probe()
            if outcome is not None:
                probe_failures.append(outcome)
        pass_wall.append(time.perf_counter() - start)
        index += 1
    return {
        "pass_times": passes,
        "factors": op_factors,
        "pass_wall_s": pass_wall,
        "first_pass": first_pass,
        "attempted": sum(len(p) for p in passes),
        "failures": failures,
        "probe_runs": len(passes) if workload.probe else 0,
        "probe_failures": probe_failures,
        "next_pass": index,
        "wall": phase_stats(passes),
        **phase_stats(passes, op_factors),
    }


def traced_phase(tracer, workload, calibration, first_pass, n_passes, deadline):
    tracer.install()
    try:
        return run_phase(workload, calibration, first_pass, n_passes, deadline, tracer)
    finally:
        tracer.restore()


def layer_metrics(tracer, traced, untraced, bytes_written, peak_mb):
    """Per-layer metrics of the traced phase, per pass of the operation mix."""
    from tracer import FUNCTION_METRICS, LAYERS, PEAK_MB, UNATTRIBUTED_MAX

    factors, first = traced["factors"], traced["first_pass"]

    def factor(op_id):  # "pass.op"; a probe takes the factor of its pass's last op
        index, op = op_id.split(".")
        pass_factors = factors[int(index) - first]
        return pass_factors[-1] if op == "probe" else pass_factors[int(op)]

    per_name, problems = tracer.summary(factor)
    n_passes = traced["passes"]
    roots = sum(v["total_s"] for k, v in per_name.items() if k in ("op", "probe"))
    metrics = {}
    layer_self = 0.0
    for layer in LAYERS:
        entries = [v for k, v in per_name.items() if k.split(".")[0] == layer]
        self_s = sum(v["self_s"] for v in entries)
        layer_self += self_s
        metrics[f"{layer}.self_s"] = self_s / n_passes
        metrics[f"{layer}.calls"] = sum(v["calls"] for v in entries) / n_passes
        metrics[f"{layer}.errors"] = sum(v["errors"] for v in entries) / n_passes
        metrics[f"{layer}.share"] = self_s / roots
    empty = {"self_s": 0.0, "calls": 0}
    for name, kinds in FUNCTION_METRICS.items():
        for kind in kinds:
            metrics[f"{name}.{kind}"] = per_name.get(name, empty)[kind] / n_passes
    for name in PEAK_MB:
        metrics[f"{name}.peak_mb"] = peak_mb.get(name, 0.0)
    metrics["cli.bytes_written"] = bytes_written / n_passes
    metrics["trace.overhead_frac"] = traced["run_s"] / untraced["run_s"] - 1.0
    unattributed = 1.0 - layer_self / roots
    if not 0.0 <= unattributed <= UNATTRIBUTED_MAX:
        problems.append(f"layer self times leave {unattributed:.1%} of the traced time "
                        f"unattributed (allowed 0 to {UNATTRIBUTED_MAX:.0%})")
    return metrics, {"unattributed_frac": unattributed, "traced_s": roots / n_passes}, problems


def environment(fvps, workload):
    import numpy
    import scipy

    blas = numpy.show_config(mode="dicts")["Build Dependencies"]["blas"]
    return {
        "python": platform.python_version(),
        "numpy": numpy.__version__,
        "scipy": scipy.__version__,
        "fvps": fvps.__version__,
        "blas": f"{blas.get('name')} {blas.get('version')}",
        "blas_threads": int(os.environ.get("OPENBLAS_NUM_THREADS", "0")),
        "nproc": os.cpu_count(),
        "load_processes": 1,
        "pool_workers": workload.pool_workers,
        "machine": platform.machine(),
    }


def main():
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload")
    parser.add_argument("--seed", type=int, default=0)
    parser.add_argument("--seconds", type=float, default=1.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--workdir", type=Path, default=ROOT / ".perfbench_runs")
    parser.add_argument("--setup-only", action="store_true", help="time set-up and exit")
    parser.add_argument("--write-reference", action="store_true",
                        help="regenerate reference.json from this source tree and exit")
    args = parser.parse_args()

    fvps = import_fvps()
    import workloads

    if args.write_reference:
        workloads.write_reference(workloads.REFERENCE_PATH, args.workdir)
        return
    args.workdir.mkdir(parents=True, exist_ok=True)
    tmp = args.workdir / f"tmp-{os.getpid()}"
    workload = workloads.WORKLOADS[args.workload](args.seed, tmp)
    workload.pass_ops(0)
    setup_s = time.perf_counter() - T0
    calibration = Calibration()
    if args.setup_only:
        print(json.dumps({"setup_s": setup_s, "factor": calibration.factor()}))
        return

    try:
        t = time.perf_counter()
        for op in workload.warm_up_ops():
            workload.run(workload.prepare(op))
        warmup_s = time.perf_counter() - t

        # A fixed number of passes keeps the operation count, and so the
        # rank of op_s_tail, the same from run to run; it takes about
        # --seconds on the reference machine.  On a machine much slower
        # than that, DEADLINE_FACTOR x --seconds of wall time bounds the
        # untraced and traced phases.
        n_passes = max(1, round(args.seconds / workload.pass_seconds))
        deadline = time.perf_counter() + DEADLINE_FACTOR * args.seconds
        untraced_passes = max(1, round(n_passes / 2)) if args.trace else n_passes
        untraced = run_phase(workload, calibration, 0, untraced_passes, deadline)
        out = {
            "setup_s": setup_s,
            "warmup_s": warmup_s,
            "env": environment(fvps, workload),
            "peak_rss_mb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0,
            "untraced": untraced,
        }
        if args.trace:
            from tracer import Tracer

            bytes_before = workload.bytes_written
            tracer = Tracer()
            traced = traced_phase(tracer, workload, calibration, untraced["next_pass"],
                                  max(1, n_passes - untraced_passes), deadline)
            bytes_written = workload.bytes_written - bytes_before
            # one more pass under tracemalloc, for the peak_mb figures only
            memory_tracer = Tracer(track_memory=True)
            memory = traced_phase(memory_tracer, workload, calibration, traced["next_pass"], 1, deadline)
            metrics, extra, problems = layer_metrics(tracer, traced, untraced, bytes_written,
                                                     memory_tracer.peak_mb)
            spans_path = args.workdir / f"spans-{args.workload}-seed{args.seed}.jsonl"
            tracer.write(spans_path)
            out["traced"] = {**traced, **extra, "layers": metrics, "trace_problems": problems,
                             "spans_file": str(spans_path.relative_to(ROOT))}
            out["memory"] = memory
    finally:
        shutil.rmtree(tmp, ignore_errors=True)
    print(json.dumps(out))


if __name__ == "__main__":
    main()
