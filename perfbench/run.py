"""blkp benchmark: one workload, one seed, one closed-loop run.

    python3 perfbench/run.py --workload label --seed 1 --seconds 15 --trace 0

Run from the repository root; the library is imported from ./src. The run
sets up its inputs several times before and after the timed loop (set-up
time is the median), warms up, then repeats the workload's operation over
its items until --seconds have passed and every item has run at least
three times; an item's time is the median of its runs. Every time is
scaled to a reference host speed (see HostSpeed). Outputs are checked
after the timed region. The last line of standard output is one JSON object:

    {"correct": ..., "attempted": ..., "failed": ..., "metrics": {...}}

With --trace 0 the metrics are the end-to-end ones (see METRICS.md). With
--trace 1 every operation runs twice, untraced and then traced, the
per-layer metrics come from the traced runs, the tracing overhead is the
difference, and the spans are written to perfbench/traces/.

Any failed operation or check makes the exit code 1.
"""

import os

# The network's matrices are 16 wide; BLAS threads only add contention.
for _var in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS"):
    os.environ[_var] = "1"

import argparse  # noqa: E402
import json  # noqa: E402
import platform  # noqa: E402
import resource  # noqa: E402
import statistics  # noqa: E402
import sys  # noqa: E402
import traceback  # noqa: E402
from time import perf_counter  # noqa: E402

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
SRC = os.path.join(ROOT, "src")
sys.path.insert(0, SRC)

import numpy as np  # noqa: E402

import blkp  # noqa: E402

if not os.path.realpath(blkp.__file__).startswith(os.path.realpath(SRC) + os.sep):
    sys.exit(f"blkp imported from {blkp.__file__}, not from {SRC}")

from tracing import PER_LAYER, SETUP, TIMED, Tracer, installed, per_layer_metrics  # noqa: E402
from workloads import WORKLOADS  # noqa: E402

# Set-up runs at least twice before the timed loop and, when it is quick,
# until SETUP_MIN_S have passed (at most SETUP_MAX_REPEATS times); after the
# checks it runs once less again. The median then spans the whole run.
SETUP_MIN_S = 0.75
SETUP_MAX_REPEATS = 10
WARMUP_OPS = 3
MIN_PASSES = 3

# A shared host (measured: 2 vCPUs) can change speed by up to 2x for
# seconds to minutes. Every time is therefore scaled to a reference speed:
# a fixed kernel is timed at least every CALIBRATE_EVERY_S, and a time t
# measured when the kernel takes c (median of its last three timings) is
# reported as t * CALIBRATION_REF_S / c, i.e. as it would read on a host
# where the kernel takes CALIBRATION_REF_S.
CALIBRATION_REF_S = 0.0015
CALIBRATE_EVERY_S = 0.2


def git_commit():
    """The checked-out commit, read from .git without starting a process."""
    git = os.path.join(ROOT, ".git")
    try:
        with open(os.path.join(git, "HEAD")) as fh:
            head = fh.read().strip()
        if not head.startswith("ref: "):
            return head
        ref = head[5:]
        ref_file = os.path.join(git, ref)
        if os.path.exists(ref_file):
            with open(ref_file) as fh:
                return fh.read().strip()
        with open(os.path.join(git, "packed-refs")) as fh:
            for line in fh:
                if line.rstrip().endswith(" " + ref):
                    return line.split()[0]
    except OSError:
        pass
    return "unknown"


def environment():
    return {"nproc": os.cpu_count(), "python": platform.python_version(),
            "numpy": np.__version__, "machine": platform.machine(),
            "git_commit": git_commit(),
            "blas_threads": {v: os.environ[v] for v in
                             ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS")}}


def peak_rss_mb():
    return resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0  # KiB on Linux


def calibration_kernel():
    """Fixed work, half interpreter loop and half small numpy calls."""
    total = 0
    for i in range(15000):
        total += i * i
    a = np.arange(15000, dtype=np.int64)
    for _ in range(15):
        a = np.where(a[::-1] > a, a + 1, a)
    return total + int(a[0])


class HostSpeed:
    """Factor that scales a time measured now to the reference host speed."""

    def __init__(self):
        self.recent = []
        self.last = float("-inf")
        self.history = []

    def factor(self):
        if perf_counter() - self.last >= CALIBRATE_EVERY_S:
            t0 = perf_counter()
            calibration_kernel()
            self.last = perf_counter()
            self.recent = (self.recent + [self.last - t0])[-3:]
            self.history.append(CALIBRATION_REF_S / statistics.median(self.recent))
        return self.history[-1]


def timed_setup(wl, seed, host, raw, scaled):
    f = host.factor()
    t0 = perf_counter()
    state = wl.setup(seed)
    raw.append(perf_counter() - t0)
    scaled.append(raw[-1] * f)
    return state


def run_op(wl, state, item, tracer=None):
    """(seconds, output or None, failure message or None) for one operation."""
    try:
        if tracer is None:
            t0 = perf_counter()
            out = wl.run(state, item)
            return perf_counter() - t0, out, None
        with installed(tracer, TIMED):
            op = tracer.wrap("op", wl.run)
            t0 = perf_counter()
            out = op(state, item)
            return perf_counter() - t0, out, None
    except Exception:  # a failed operation is counted and the run goes on
        return 0.0, None, traceback.format_exc()


def main():
    parser = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    parser.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args()
    if args.seed < 0 or args.seconds <= 0:
        parser.error("--seed must be >= 0 and --seconds > 0")

    wl = WORKLOADS[args.workload]()
    tracer = Tracer() if args.trace else None
    host = HostSpeed()
    setup_raw, setup_times = [], []
    while len(setup_raw) < 2 or (
            sum(setup_raw) < SETUP_MIN_S and len(setup_raw) < SETUP_MAX_REPEATS):
        state = timed_setup(wl, args.seed, host, setup_raw, setup_times)
    if tracer is not None:
        with installed(tracer, SETUP):
            state = wl.setup(args.seed)

    items = state.items
    for item in items[:WARMUP_OPS]:
        wl.run(state, item)

    # An item's time is the median of its scaled times over the passes.
    samples = [[] for _ in items]
    samples_traced = [[] for _ in items]
    raw_samples = [[] for _ in items]
    failures = []
    firsts = [None] * len(items)
    first_fp = [None] * len(items)
    mismatched = [False] * len(items)
    ops = 0
    deadline = perf_counter() + args.seconds
    while ops < MIN_PASSES * len(items) or perf_counter() < deadline:
        k = ops % len(items)
        ops += 1
        f = host.factor()
        runs = [run_op(wl, state, items[k])]
        if tracer is not None:
            runs.append(run_op(wl, state, items[k], tracer))
        for dt, out, err in runs:
            if err is not None:
                failures.append(f"item {k}: {err}")
                continue
            fp = wl.fingerprint(out)
            if firsts[k] is None:
                firsts[k], first_fp[k] = out, fp
            elif fp != first_fp[k]:
                mismatched[k] = True
        if runs[0][2] is None:
            samples[k].append(runs[0][0] * f)
            raw_samples[k].append(runs[0][0])
        if tracer is not None and runs[1][2] is None:
            samples_traced[k].append(runs[1][0] * f)
    item_s = [statistics.median(v) for v in samples if v]
    raw_item_s = [statistics.median(v) for v in raw_samples if v]

    # --- correctness, outside the timed region ---
    item_bad = [["output differs between runs"] if m else [] for m in mismatched]
    for k, out in enumerate(firsts):
        if out is not None:
            item_bad[k] += wl.check(state, items[k], out)
        else:
            item_bad[k].append("no successful run")
    quality = wl.quality(state, firsts) if all(o is not None for o in firsts) else \
        {"ub_gaps": [], "failures": ["quality not measured: an item never ran"]}
    for _ in range(len(setup_raw) - 1):
        timed_setup(wl, args.seed, host, setup_raw, setup_times)
    bad_items = sum(1 for b in item_bad if b)
    failed = len(failures) + sum(1 for k in range(ops) if item_bad[k % len(items)])
    failed += len(state.reference_failures) + len(quality["failures"])
    attempted = ops * (1 if tracer is None else 2) + state.references + quality.get("attempted", 0)
    for msg in failures + state.reference_failures + quality["failures"] + [
            f"item {k}: {'; '.join(b)}" for k, b in enumerate(item_bad) if b]:
        print(msg, file=sys.stderr)

    print(json.dumps({"env": environment()}))
    print(json.dumps({"run": {
        "workload": args.workload, "seed": args.seed, "timed_ops": ops, "items": len(items),
        "passes": ops / len(items), "work_unit": wl.work_unit, "bad_items": bad_items,
        "setup_s_each_unscaled": setup_raw,
        "op_ms_p50_unscaled": 1e3 * float(np.percentile(raw_item_s, 50)),
        "host_factor_median": statistics.median(host.history),
        "host_factor_range": [min(host.history), max(host.history)]}}))

    ub_gaps = quality["ub_gaps"]
    if tracer is not None:
        os.makedirs(os.path.join(HERE, "traces"), exist_ok=True)
        tracer.write(os.path.join(HERE, "traces", f"{args.workload}-seed{args.seed}.npz"))
        m = per_layer_metrics(
            tracer, quality.get("val_loss_ratio", 0.0),
            float(np.mean(quality["gaps"])) if quality.get("gaps") else 0.0,
            [(statistics.median(t), statistics.median(u))
             for t, u in zip(samples_traced, samples) if t and u])
        metrics = {name: {"value": m[name], "unit": unit} for name, (unit, _) in PER_LAYER.items()}
    else:
        metrics = {
            "setup_s": (statistics.median(setup_times), "s"),
            "peak_rss_mb": (peak_rss_mb(), "MiB"),
            "throughput_per_s": (wl.units(state) * len(item_s) / sum(item_s), "1/s"),
            "op_ms_p50": (1e3 * float(np.percentile(item_s, 50)), "ms"),
            "op_ms_p90": (1e3 * float(np.percentile(item_s, 90)), "ms"),
            "ub_gap_pct_mean": (float(np.mean(ub_gaps)) if ub_gaps else 0.0, "%"),
        }
        metrics = {name: {"value": v, "unit": u} for name, (v, u) in metrics.items()}
    print(json.dumps({"correct": failed == 0, "attempted": attempted, "failed": failed,
                      "metrics": metrics}))
    return 0 if failed == 0 else 1


if __name__ == "__main__":
    sys.exit(main())
