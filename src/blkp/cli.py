"""Command-line surface: generate | exact | label | train | solve | bench.

The bench subcommand compares deterministic rounding (theta 0.5, one
sample), the sampling heuristic, and the exact oracle over a directory of
instances and reports average objective, average/maximum optimality gap,
and mean per-instance runtime, grouped by (data type, n1, n2, method).
"""

from __future__ import annotations

import argparse
import dataclasses
import hashlib
import json
import sys
import time
from pathlib import Path

import numpy as np

from . import exact as exact_mod
from . import instance as inst_mod
from . import pnanet, search, trainer
from .graphrep import DEFAULT_NORM
from .knapsack import DpTooLarge, Mode, check_dp_size


class CliError(Exception):
    pass


def _short_hash(data: bytes) -> str:
    return hashlib.sha256(data).hexdigest()[:12]


def _instance_files(path: str):
    p = Path(path)
    if p.is_dir():
        files = sorted(p.glob("*.json"))
        if not files:
            raise CliError(f"no instance files (*.json) in {path}")
        return files
    if p.is_file():
        return [p]
    raise CliError(f"no such file or directory: {path}")


def _exact_dp_items(inst):
    return inst.n1 + inst.n2


def _follower_dp_items(inst):
    return inst.n2


def _load_instances(path: str, dp_items=None):
    """(name, instance) of every instance file, all read before any is solved.

    `dp_items(inst)` is the item count of the largest DP over capacities
    0..b that the command runs on an instance; one above the cell budget
    is refused here, naming its file.
    """
    out = []
    for f in _instance_files(path):
        try:
            inst = inst_mod.read_instance(f)
            if dp_items is not None:
                check_dp_size(dp_items(inst), inst.b)
        except (inst_mod.InstanceError, DpTooLarge) as exc:
            raise CliError(f"{f}: {exc}") from exc
        out.append((f.stem, inst))
    return out


def _timed(fn, *args, **kwargs):
    """fn's result and the wall-clock seconds the whole call took."""
    t0 = time.perf_counter()
    result = fn(*args, **kwargs)
    return result, time.perf_counter() - t0


def _emit(args, key, records, columns, **extra):
    """Write records to `args.out` (stdout when unset or "-") in `args.format`.

    TSV is a header of `columns` and one row of them per record; JSON is
    the document {key: records, **extra}.
    """
    if args.format == "tsv":
        rows = [columns] + [[r[c] for c in columns] for r in records]
        text = "\n".join("\t".join(str(v) for v in row) for row in rows) + "\n"
    else:
        text = json.dumps({key: records, **extra}, indent=1) + "\n"
    if args.out in (None, "-"):
        sys.stdout.write(text)
    else:
        Path(args.out).write_text(text)


def cmd_generate(args):
    if args.count < 1:
        raise CliError(f"--count must be >= 1, got {args.count}")
    outdir = Path(args.out)
    outdir.mkdir(parents=True, exist_ok=True)
    for k in range(args.count):
        cfg = inst_mod.GenConfig(
            n1=args.n1, n2=args.n2, data_type=args.data_type,
            alpha_lo=args.alpha_lo, alpha_hi=args.alpha_hi,
            value_max=args.value_max, seed=args.seed + k)
        inst = inst_mod.generate(cfg)
        name = f"{args.data_type.lower()}_{args.n1}x{args.n2}_{args.seed + k:06d}.json"
        inst_mod.write_instance(inst, outdir / name)
    print(f"wrote {args.count} instances to {outdir}")
    return 0


def _exact_record(name, result, elapsed):
    return {
        "instance": name,
        "mode": result.mode.value,
        "opt_value": result.opt_value,
        "opt_x": result.opt_x.tolist(),
        "opt_y": result.opt_y.tolist(),
        "proven_optimal": result.proven_optimal,
        "node_count": result.node_count,
        "elapsed": elapsed,
        "pool_size": len(result.pool),
    }


def _solve_exact_all(args):
    """(name, result, seconds) of every instance, solved exactly."""
    for name, inst in _load_instances(args.instances, _exact_dp_items):
        yield (name, *_timed(exact_mod.solve_exact, inst, Mode(args.mode)))


def cmd_exact(args):
    records = [_exact_record(*solved) for solved in _solve_exact_all(args)]
    _emit(args, "records", records,
          ["instance", "mode", "opt_value", "proven_optimal", "node_count", "elapsed"])
    return 0


def cmd_label(args):
    records = [{"instance": name, "leader_value": value,
                "x": "".join(str(int(v)) for v in x)}
               for name, result, _ in _solve_exact_all(args)
               for x, value in exact_mod.collect_labels(result, k=args.k)]
    _emit(args, "labels", records, ["instance", "leader_value", "x"])
    return 0


def _read_labels(path):
    """Label file written by `blkp label` (TSV or JSON)."""
    text = Path(path).read_text()
    by_instance = {}
    try:
        if text.lstrip().startswith("{"):
            records = [(rec["instance"], rec["x"]) for rec in json.loads(text)["labels"]]
        else:
            rows = [ln.split("\t") for ln in text.splitlines() if ln.strip()][1:]
            records = [(name, xs) for name, _value, xs in rows]
        for name, xs in records:
            by_instance.setdefault(name, []).append(
                np.array([int(ch) for ch in xs], dtype=np.float64))
    except (KeyError, TypeError, ValueError) as exc:
        raise CliError(f"{path}: malformed label record ({type(exc).__name__}: {exc})") from exc
    return by_instance


def cmd_train(args):
    named = _load_instances(args.instances)
    labels = _read_labels(args.labels)
    missing = [n for n, _ in named if n not in labels]
    if missing:
        raise CliError(f"no labels for instance {missing[0]}")
    instances = [inst for _, inst in named]
    label_lists = [labels[n] for n, _ in named]

    tcfg = trainer.TrainConfig(
        epochs=args.epochs, early_stop_patience=args.patience,
        batch_size=args.batch_size, lr=args.lr,
        weight_decay=args.weight_decay, split=args.split, seed=args.seed)
    mcfg = pnanet.PnaConfig(iterations=args.iterations)
    train_set, val_set = trainer.build_dataset(instances, label_lists, tcfg)
    result = trainer.train(instances, train_set, val_set, mcfg, tcfg)
    meta = {
        "train_config": dataclasses.asdict(tcfg),
        "best_epoch": result.best_epoch,
        "best_val_loss": result.best_val_loss,
        "initial_val_loss": result.initial_val_loss,
    }
    pnanet.save_checkpoint(result.params, DEFAULT_NORM, meta, args.out)
    if args.history:
        lines = ["epoch\ttrain_loss\tval_loss"]
        lines += [f"{i}\t{tr:.6f}\t{vl:.6f}" for i, (tr, vl) in enumerate(result.history)]
        Path(args.history).write_text("\n".join(lines) + "\n")
    print(f"best val loss {result.best_val_loss:.4f} "
          f"(init {result.initial_val_loss:.4f}) at epoch {result.best_epoch}")
    return 0


def cmd_solve(args):
    params, norm, _meta = pnanet.load_checkpoint(args.checkpoint)
    scfg = search.SearchConfig(theta=args.theta, n_samples=args.n_samples,
                               mode=Mode(args.mode), seed=args.seed)
    records = []
    for name, inst in _load_instances(args.instance, _follower_dp_items):
        res, elapsed = _timed(search.solve_heuristic, inst, params, scfg, norm=norm)
        records.append({
            "instance": name,
            "best_value": res.best_value,
            "best_x": res.best_x.tolist(),
            "best_y": res.best_y.tolist(),
            "samples_evaluated": res.samples_evaluated,
            "samples_infeasible": res.samples_infeasible,
            "distinct_x_count": res.distinct_x_count,
            "elapsed": elapsed,
        })
    _emit(args, "results", records,
          ["instance", "best_value", "samples_evaluated", "samples_infeasible",
           "distinct_x_count", "elapsed"],
          search_config=scfg.to_dict())
    return 0


def compute_gaps(heuristic_values: dict, exact_values: dict):
    """Per-instance gap 100*(exact - heuristic)/exact; returns (avg, max)."""
    gaps = []
    for key, z_h in heuristic_values.items():
        if key not in exact_values:
            raise CliError(f"missing exact value for instance {key}")
        z_e = exact_values[key]
        if z_e <= 0:
            raise CliError(f"exact value must be positive for instance {key}")
        gaps.append(100.0 * (z_e - z_h) / z_e)
    return float(np.mean(gaps)), float(np.max(gaps))


def run_benchmark(named_instances, params, norm, theta, n_samples, mode, seed):
    """Compare no_sampling / sampling / exact; returns report row dicts."""
    mode = Mode(mode)
    groups = {}
    for name, inst in named_instances:
        key = (inst.meta.get("data_type", "?"), inst.n1, inst.n2)
        groups.setdefault(key, []).append((name, inst))

    methods = {
        "no_sampling": search.SearchConfig(theta=0.5, n_samples=1, mode=mode, seed=seed),
        f"sampling(theta={theta},N={n_samples})": search.SearchConfig(
            theta=theta, n_samples=n_samples, mode=mode, seed=seed),
    }
    rows = []
    for key in sorted(groups):
        data_type, n1, n2 = key
        members = groups[key]
        exact_vals = {}
        exact_times = []
        for name, inst in members:
            res, elapsed = _timed(exact_mod.solve_exact, inst, mode)
            exact_vals[name] = res.opt_value
            exact_times.append(elapsed)
        for method, scfg in methods.items():
            heur_vals = {}
            times = []
            for name, inst in members:
                res, elapsed = _timed(search.solve_heuristic, inst, params, scfg, norm=norm)
                times.append(elapsed)
                heur_vals[name] = res.best_value
            avg_gap, max_gap = compute_gaps(heur_vals, exact_vals)
            rows.append({
                "data_type": data_type, "n1": n1, "n2": n2, "method": method,
                "count": len(members),
                "avg_obj": float(np.mean(list(heur_vals.values()))),
                "avg_gap_pct": avg_gap, "max_gap_pct": max_gap,
                "avg_time_s": float(np.mean(times)),
                "search_hash": _short_hash(json.dumps(scfg.to_dict(), sort_keys=True).encode()),
            })
        rows.append({
            "data_type": data_type, "n1": n1, "n2": n2, "method": "exact",
            "count": len(members),
            "avg_obj": float(np.mean(list(exact_vals.values()))),
            "avg_gap_pct": 0.0, "max_gap_pct": 0.0,
            "avg_time_s": float(np.mean(exact_times)),
            "search_hash": "-",
        })
    return rows


def cmd_bench(args):
    named = _load_instances(args.instances, _exact_dp_items)
    params, norm, _meta = pnanet.load_checkpoint(args.checkpoint)
    rows = run_benchmark(named, params, norm, theta=args.theta,
                         n_samples=args.n_samples, mode=Mode(args.mode),
                         seed=args.seed)
    ckpt_hash = _short_hash(Path(args.checkpoint).read_bytes())
    for r in rows:
        r["checkpoint_hash"] = ckpt_hash
    _emit(args, "report", rows,
          ["data_type", "n1", "n2", "method", "count", "avg_obj", "avg_gap_pct",
           "max_gap_pct", "avg_time_s", "checkpoint_hash", "search_hash"],
          seed=args.seed)
    return 0


def _add_table_output(p):
    p.add_argument("--out", default=None, help="table path (default: stdout)")
    p.add_argument("--format", choices=["tsv", "json"], default="tsv")


def _add_search(p):
    p.add_argument("--theta", type=float, default=0.2,
                   help="fix items within theta of 0 or 1; 0.5 rounds every item")
    p.add_argument("--n-samples", type=int, default=10)
    p.add_argument("--seed", type=int, default=0, help="seed of the sampling search")


def _add_mode(p):
    p.add_argument("--mode", choices=[m.value for m in Mode],
                   default=Mode.OPTIMISTIC.value)


def build_parser():
    ap = argparse.ArgumentParser(prog="blkp",
                                 description="Bilevel knapsack toolkit")
    sub = ap.add_subparsers(dest="command", required=True)

    p = sub.add_parser("generate", help="write random instance files")
    p.add_argument("--n1", type=int, required=True)
    p.add_argument("--n2", type=int, required=True)
    p.add_argument("--data-type", choices=["UC", "C"], default="UC")
    p.add_argument("--count", type=int, default=1)
    p.add_argument("--alpha-lo", type=float, default=0.5)
    p.add_argument("--alpha-hi", type=float, default=0.75)
    p.add_argument("--value-max", type=int, default=1000)
    p.add_argument("--seed", type=int, default=0,
                   help="seed of the first instance; the k-th uses seed + k")
    p.add_argument("--out", default=".", help="directory for the instance files")
    p.set_defaults(func=cmd_generate)

    p = sub.add_parser("exact", help="solve instances exactly")
    p.add_argument("--instances", required=True)
    _add_mode(p)
    _add_table_output(p)
    p.set_defaults(func=cmd_exact)

    p = sub.add_parser("label", help="write supervised labels from the exact pool")
    p.add_argument("--instances", required=True)
    p.add_argument("--k", type=int, default=10,
                   help="labels beyond the optimum: best vectors of the next k leader weights")
    _add_mode(p)
    _add_table_output(p)
    p.set_defaults(func=cmd_label)

    p = sub.add_parser("train", help="train the predictor")
    p.add_argument("--instances", required=True)
    p.add_argument("--labels", required=True)
    p.add_argument("--epochs", type=int, default=200)
    p.add_argument("--patience", type=int, default=50)
    p.add_argument("--batch-size", type=int, default=550)
    p.add_argument("--lr", type=float, default=0.002)
    p.add_argument("--weight-decay", type=float, default=1e-6)
    p.add_argument("--split", type=float, default=0.8)
    p.add_argument("--iterations", type=int, default=2,
                   help="message-passing rounds, all sharing one set of weights")
    p.add_argument("--history", default=None, help="per-epoch loss log path")
    p.add_argument("--seed", type=int, default=0,
                   help="seed of the initial weights, the split and the batch order")
    p.add_argument("--out", default="model.json", help="checkpoint path")
    p.set_defaults(func=cmd_train)

    p = sub.add_parser("solve", help="heuristic solve with a checkpoint")
    p.add_argument("--instance", required=True,
                   help="instance file or directory")
    p.add_argument("--checkpoint", required=True)
    _add_search(p)
    _add_mode(p)
    _add_table_output(p)
    p.set_defaults(func=cmd_solve)

    p = sub.add_parser("bench", help="gap/time report over an instance directory")
    p.add_argument("--instances", required=True)
    p.add_argument("--checkpoint", required=True)
    _add_search(p)
    _add_mode(p)
    _add_table_output(p)
    p.set_defaults(func=cmd_bench)

    return ap


def main(argv=None) -> int:
    args = build_parser().parse_args(argv)
    try:
        return args.func(args)
    except (CliError, inst_mod.InstanceError, pnanet.CheckpointError,
            trainer.TrainingDiverged, FileNotFoundError, ValueError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1


if __name__ == "__main__":
    sys.exit(main())
