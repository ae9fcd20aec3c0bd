"""Record one trajectory point of the benchmark.

    python3 perfbench/record.py NAME

Runs every workload of BENCHMARK.json untraced with seeds 1..10 and once
traced with seed 1, one run at a time, and writes
perfbench/trajectory/NAME.json: the environment, every result object, and
per workload and end-to-end metric the median, the quartiles and the
spread (third minus first quartile over the median, as
statistics.quantiles gives them). Takes about 20 minutes on two cores.
"""

import json
import os
import statistics
import subprocess
import sys

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
SEEDS = range(1, 11)


def run(command, workload, seed, seconds, trace):
    """(env line, result object) of one benchmark run; raises if it failed."""
    proc = subprocess.run(command + ["--workload", workload, "--seed", str(seed),
                                     "--seconds", str(seconds), "--trace", str(trace)],
                          cwd=ROOT, capture_output=True, text=True, check=False)
    if proc.returncode != 0:
        raise RuntimeError(f"{workload} seed {seed} trace {trace} exited {proc.returncode}:\n"
                           f"{proc.stderr[-4000:]}")
    lines = [json.loads(line) for line in proc.stdout.splitlines() if line.startswith("{")]
    env = next(line["env"] for line in lines if "env" in line)
    return env, lines[-1]


def summarize(results):
    """Median, quartiles and spread of every metric over a list of result objects."""
    out = {}
    for name in results[0]["metrics"]:
        values = [r["metrics"][name]["value"] for r in results]
        q1, med, q3 = statistics.quantiles(values, n=4)
        median = statistics.median(values)
        out[name] = {"unit": results[0]["metrics"][name]["unit"], "median": median,
                     "q1": q1, "q3": q3, "spread": (q3 - q1) / median if median else None}
    return out


def main():
    if len(sys.argv) != 2:
        sys.exit(__doc__)
    with open(os.path.join(ROOT, "BENCHMARK.json")) as fh:
        bench = json.load(fh)
    doc = {"run_seconds": bench["run_seconds"], "seeds": list(SEEDS), "workloads": {}}
    for w in bench["workloads"]:
        name = w["name"]
        results = []
        for seed in SEEDS:
            env, result = run(bench["command"], name, seed, bench["run_seconds"], 0)
            results.append(result)
        _env, traced = run(bench["command"], name, 1, bench["run_seconds"], 1)
        doc["env"] = env
        doc["workloads"][name] = {"runs": results, "summary": summarize(results),
                                  "traced_seed1": traced}
    os.makedirs(os.path.join(HERE, "trajectory"), exist_ok=True)
    with open(os.path.join(HERE, "trajectory", sys.argv[1] + ".json"), "w") as fh:
        json.dump(doc, fh, indent=1)


if __name__ == "__main__":
    main()
