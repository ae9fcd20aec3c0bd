"""Paired benchmark runs of two checkouts, one pair per seed.

    python3 tools/bench_pairs.py PARENT_DIR CHANGE_DIR --workload solve_followers \\
        --seeds 1-10 --seconds 4

For each seed, runs `perfbench/run.py --workload W --seed S --seconds T
--trace 0` once in each tree, from that tree's root, with the tree that
runs first alternating from seed to seed (the parent first on the first
seed). Prints every pair, then for each end-to-end metric the median of
each side, the interquartile range of the parent's runs and how many
pairs the change read better. Which way is better comes from the parent
tree's BENCHMARK.json (`end_to_end[].better`, "higher" or "lower"); a
tie counts for neither side, and a metric it does not list reads "n/a".
Exits 1 if any run exits non-zero, prints no result line, or reports
itself not `correct`. Python writes no bytecode into either tree, and
`--trace 0` writes no trace, so neither tree gains a file.
"""

import argparse
import json
import os
import statistics
import subprocess
import sys
from pathlib import Path

SIDES = ("parent", "change")


def parse_seeds(text):
    """The seeds of "3", "1-10" or "1,4-6": a comma list of seeds and inclusive ranges."""
    seeds = []
    for part in text.split(","):
        first, last = part.split("-") if "-" in part else (part, part)
        seeds.extend(range(int(first), int(last) + 1))
    if not seeds or min(seeds) < 0:
        raise ValueError(f"--seeds must name seeds >= 0, got {text!r}")
    return seeds


def run_once(tree, workload, seed, seconds):
    """(metrics or None, failure message or None) of one untraced run in `tree`."""
    env = {**os.environ, "PYTHONDONTWRITEBYTECODE": "1"}
    cmd = [sys.executable, "perfbench/run.py", "--workload", workload, "--seed", str(seed),
           "--seconds", str(seconds), "--trace", "0"]
    proc = subprocess.run(cmd, cwd=tree, env=env, capture_output=True, text=True)
    lines = proc.stdout.strip().splitlines()
    try:
        result = json.loads(lines[-1])
        metrics = {name: m["value"] for name, m in result["metrics"].items()}
    except (IndexError, ValueError, KeyError, TypeError, AttributeError):
        return None, f"no result line (exit {proc.returncode}): {proc.stderr.strip()[-2000:]}"
    if proc.returncode != 0 or result.get("correct") is not True:
        return metrics, (f"exit {proc.returncode}, correct {result.get('correct')}, "
                         f"failed {result.get('failed')}: {proc.stderr.strip()[-2000:]}")
    return metrics, None


def quartile_range(values):
    """The interquartile range of `values` (statistics' exclusive method), 0 below two values."""
    if len(values) < 2:
        return 0.0
    q1, _, q3 = statistics.quantiles(values, n=4)
    return q3 - q1


def directions(tree):
    """{metric: +1 if higher is better, -1 if lower} of `tree`'s BENCHMARK.json end-to-end list."""
    path = tree / "BENCHMARK.json"
    if not path.exists():
        return {}
    sign = {"higher": 1, "lower": -1}
    return {m["name"]: sign[m["better"]] for m in json.loads(path.read_text())["end_to_end"]}


def summary(pairs, better):
    """Lines of each metric's medians, change, parent interquartile range and wins over `pairs`.

    `pairs` holds (parent metrics, change metrics) dicts of complete pairs;
    `better` maps a metric to its `directions` sign. A win is a pair the
    change read strictly better; a metric without a sign reads "n/a".
    """
    lines = [f"{'metric':<18} {'parent median':>15} {'change median':>15} {'change':>8} "
             f"{'parent IQR':>12} {'better':>7}"]
    for name in (n for n in pairs[0][0] if n in pairs[0][1]):
        parent = [p[name] for p, _ in pairs]
        change = [c[name] for _, c in pairs]
        mp, mc = statistics.median(parent), statistics.median(change)
        pct = f"{100 * (mc - mp) / mp:+.1f}%" if mp else "n/a"
        sign = better.get(name)
        wins = "n/a" if sign is None else \
            f"{sum(sign * (c - p) > 0 for p, c in zip(parent, change))}/{len(pairs)}"
        lines.append(f"{name:<18} {mp:>15.6g} {mc:>15.6g} {pct:>8} "
                     f"{quartile_range(parent):>12.4g} {wins:>7}")
    return lines


def main(argv=None):
    parser = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    parser.add_argument("parent", type=Path, help="root of the parent checkout")
    parser.add_argument("change", type=Path, help="root of the changed checkout")
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seeds", default="1-10", help='e.g. "1-10" or "1,3,5" (default 1-10)')
    parser.add_argument("--seconds", type=float, default=4.0, help="seconds per run (default 4)")
    args = parser.parse_args(argv)
    try:
        seeds = parse_seeds(args.seeds)
    except ValueError as exc:
        parser.error(str(exc))
    if args.seconds <= 0:
        parser.error("--seconds must be > 0")
    trees = {"parent": args.parent.resolve(), "change": args.change.resolve()}

    pairs, failures = [], []
    for k, seed in enumerate(seeds):
        order = SIDES if k % 2 == 0 else SIDES[::-1]
        got, ok = {}, True
        for side in order:
            got[side], err = run_once(trees[side], args.workload, seed, args.seconds)
            if err is not None:
                ok = False
                failures.append(f"seed {seed}, {side}: {err}")
                print(f"seed {seed} {side} FAILED: {err}", file=sys.stderr)
        if ok:
            pairs.append((got["parent"], got["change"]))
            shown = ", ".join(f"{name} {value:.6g} -> {got['change'][name]:.6g}"
                              for name, value in got["parent"].items() if name in got["change"])
            print(f"seed {seed} ({order[0]} first): {shown}", flush=True)
    if pairs:
        print(f"\n{args.workload}: {len(pairs)} pairs of {args.seconds:g} s runs")
        print("\n".join(summary(pairs, directions(trees["parent"]))))
    if failures:
        print(f"{len(failures)} run(s) failed or were not correct", file=sys.stderr)
        return 1
    return 0


if __name__ == "__main__":
    sys.exit(main())
