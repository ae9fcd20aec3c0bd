"""Command-line surface: generate | exact | label | train | solve | bench.

A command that solves reads every instance file before it solves any,
and asks `blkp.knapsack.table_form` about each item set it tables up to
b: a1 and a2 for `exact`, `label` and `bench`, a2 for `solve`. a1 is
the leader's exact-weight table; a2 the follower's at-most table, a
covering row or a list. `exact`, `label` and `bench` ask about it from
`blkp.exact.lowest_residual`, the lowest residual any leader leaves, as
`solve_exact` asks for it; `solve` from b, the least table any search
builds. A table that rule refuses is refused then, naming the file. One
timed loop (`_solve_each`) runs every solver call; a solver's refusal of
its input, a DP row past the budget or profits past the 64-bit range,
is reported with the file's path.

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
from .knapsack import DpTooLarge, Mode, OverflowRiskError, table_form


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


# The tables `solve_exact` builds up to b: (weights, the lowest residual the
# follower's at-most table is read from, None for the leader's exact-weight one)
_EXACT_TABLES = (("a1", None), ("a2", exact_mod.lowest_residual))


def _load_instances(path: str, tabled=()):
    """(path, instance) of every instance file, all read before any is solved.

    `tabled` lists the tables the command builds, as `_EXACT_TABLES`
    does; a table `table_form` refuses is refused here, naming its file.
    """
    out = []
    for f in _instance_files(path):
        try:
            inst = inst_mod.read_instance(f)
            for name, lowest in tabled:
                table_form(getattr(inst, name), inst.b, lowest and lowest(inst))
        except (inst_mod.InstanceError, DpTooLarge) as exc:
            raise CliError(f"{f}: {exc}") from exc
        out.append((f, inst))
    return out


def _solve_each(loaded, solve, *args, **kwargs):
    """(path, result, seconds) of `solve(inst, *args, **kwargs)` on each loaded instance.

    The seconds are the wall-clock time of the whole call. A DP row past
    the cell budget or profits past the 64-bit range, refused by the
    solver, are re-raised as a CliError naming the file.
    """
    for f, inst in loaded:
        t0 = time.perf_counter()
        try:
            result = solve(inst, *args, **kwargs)
        except (DpTooLarge, OverflowRiskError) as exc:
            raise CliError(f"{f}: {exc}") from exc
        yield f, result, time.perf_counter() - t0


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
    inst_mod.check_int("--count", args.count, 1, CliError)
    inst_mod.check_int("--seed", args.seed, 0, CliError)
    cfgs = [inst_mod.GenConfig(
        n1=args.n1, n2=args.n2, data_type=args.data_type,
        alpha_lo=args.alpha_lo, alpha_hi=args.alpha_hi,
        value_max=args.value_max, seed=args.seed + k) for k in range(args.count)]
    outdir = Path(args.out)
    outdir.mkdir(parents=True, exist_ok=True)
    for cfg in cfgs:
        name = f"{args.data_type.lower()}_{args.n1}x{args.n2}_{cfg.seed:06d}.json"
        inst_mod.write_instance(inst_mod.generate(cfg), outdir / name)
    print(f"wrote {args.count} instances to {outdir}")
    return 0


def _exact_record(path, result, elapsed):
    return {
        "instance": path.stem,
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
    """(path, result, seconds) of every instance, solved exactly."""
    loaded = _load_instances(args.instances, _EXACT_TABLES)
    return _solve_each(loaded, exact_mod.solve_exact, Mode(args.mode))


def cmd_exact(args):
    records = [_exact_record(*solved) for solved in _solve_exact_all(args)]
    _emit(args, "records", records,
          ["instance", "mode", "opt_value", "proven_optimal", "node_count", "elapsed"])
    return 0


def cmd_label(args):
    records = [{"instance": f.stem, "leader_value": value,
                "x": "".join(str(int(v)) for v in x)}
               for f, result, _ in _solve_exact_all(args)
               for x, value in exact_mod.collect_labels(result, k=args.k)]
    _emit(args, "labels", records, ["instance", "leader_value", "x"])
    return 0


def _read_labels(path):
    """Label file written by `blkp label` (TSV or JSON)."""
    by_instance = {}
    try:
        text = Path(path).read_text()
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
    named = [(f.stem, inst) for f, inst in _load_instances(args.instances)]
    labels = _read_labels(args.labels)
    missing = [n for n, _ in named if n not in labels]
    if missing:
        raise CliError(f"no labels for instance {missing[0]}")
    instances = [inst for _, inst in named]
    label_lists = [[inst_mod.binary_vector(x, inst.n1, f"instance {n}: label") for x in labels[n]]
                   for n, inst in named]

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
    # a search reads its table from b minus its heaviest candidate; the least is from b
    loaded = _load_instances(args.instance, (("a2", lambda inst: inst.b),))
    records = [{
        "instance": f.stem,
        "best_value": res.best_value,
        "best_x": res.best_x.tolist(),
        "best_y": res.best_y.tolist(),
        "samples_evaluated": res.samples_evaluated,
        "samples_infeasible": res.samples_infeasible,
        "distinct_x_count": res.distinct_x_count,
        "elapsed": elapsed,
    } for f, res, elapsed in _solve_each(loaded, search.solve_heuristic, params, scfg, norm=norm)]
    _emit(args, "results", records,
          ["instance", "best_value", "samples_evaluated", "samples_infeasible",
           "distinct_x_count", "elapsed"],
          search_config=scfg.to_dict())
    return 0


def _bench_row(group, method, solved, optima, search_hash):
    """One report row from a method's (objective, seconds) per instance of a group.

    Each instance's gap is 100 * (optimum - objective) / optimum.
    """
    gaps = [100.0 * (opt - value) / opt for (value, _), opt in zip(solved, optima)]
    data_type, n1, n2 = group
    return {
        "data_type": data_type, "n1": n1, "n2": n2, "method": method,
        "count": len(solved),
        "avg_obj": float(np.mean([value for value, _ in solved])),
        "avg_gap_pct": float(np.mean(gaps)), "max_gap_pct": float(np.max(gaps)),
        "avg_time_s": float(np.mean([seconds for _, seconds in solved])),
        "search_hash": search_hash,
    }


def run_benchmark(loaded, params, norm, theta, n_samples, mode, seed):
    """Compare no_sampling / sampling / exact on (path, instance) pairs; returns report rows."""
    mode = Mode(mode)
    groups = {}
    for f, inst in loaded:
        # the reader does not check meta: a list data_type would not hash, nor an int sort
        # beside a str
        key = (str(inst.meta.get("data_type", "?")), inst.n1, inst.n2)
        groups.setdefault(key, []).append((f, inst))

    methods = {
        "no_sampling": search.SearchConfig(theta=0.5, n_samples=1, mode=mode, seed=seed),
        f"sampling(theta={theta},N={n_samples})": search.SearchConfig(
            theta=theta, n_samples=n_samples, mode=mode, seed=seed),
    }
    rows = []
    for group in sorted(groups):
        members = groups[group]
        exact = []
        for f, res, seconds in _solve_each(members, exact_mod.solve_exact, mode):
            if res.opt_value <= 0:  # no gap is relative to it; refused before any heuristic runs
                raise CliError(f"exact value must be positive for instance {f.stem}")
            exact.append((res.opt_value, seconds))
        optima = [value for value, _ in exact]
        for method, scfg in methods.items():
            solved = [(res.best_value, seconds) for _, res, seconds
                      in _solve_each(members, search.solve_heuristic, params, scfg, norm=norm)]
            search_hash = _short_hash(json.dumps(scfg.to_dict(), sort_keys=True).encode())
            rows.append(_bench_row(group, method, solved, optima, search_hash))
        rows.append(_bench_row(group, "exact", exact, optima, "-"))
    return rows


def cmd_bench(args):
    loaded = _load_instances(args.instances, _EXACT_TABLES)
    params, norm, _meta = pnanet.load_checkpoint(args.checkpoint)
    rows = run_benchmark(loaded, params, norm, theta=args.theta,
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
    p.add_argument("--theta", type=float, default=search.SearchConfig.theta,
                   help="fix items within theta of 0 or 1; 0.5 rounds every item")
    p.add_argument("--n-samples", type=int, default=search.SearchConfig.n_samples)
    p.add_argument("--seed", type=int, default=search.SearchConfig.seed,
                   help="seed of the sampling search")


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
    p.add_argument("--data-type", choices=["UC", "C"], default=inst_mod.GenConfig.data_type)
    p.add_argument("--count", type=int, default=1)
    p.add_argument("--alpha-lo", type=float, default=inst_mod.GenConfig.alpha_lo)
    p.add_argument("--alpha-hi", type=float, default=inst_mod.GenConfig.alpha_hi)
    p.add_argument("--value-max", type=int, default=inst_mod.GenConfig.value_max)
    p.add_argument("--seed", type=int, default=inst_mod.GenConfig.seed,
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
    p.add_argument("--epochs", type=int, default=trainer.TrainConfig.epochs)
    p.add_argument("--patience", type=int, default=trainer.TrainConfig.early_stop_patience)
    p.add_argument("--batch-size", type=int, default=trainer.TrainConfig.batch_size)
    p.add_argument("--lr", type=float, default=trainer.TrainConfig.lr)
    p.add_argument("--weight-decay", type=float, default=trainer.TrainConfig.weight_decay)
    p.add_argument("--split", type=float, default=trainer.TrainConfig.split)
    p.add_argument("--iterations", type=int, default=pnanet.PnaConfig.iterations,
                   help="message-passing rounds, all sharing one set of weights")
    p.add_argument("--history", default=None, help="per-epoch loss log path")
    p.add_argument("--seed", type=int, default=trainer.TrainConfig.seed,
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
    except (CliError, trainer.TrainingDiverged, ValueError) as exc:  # InstanceError, CheckpointError
        print(f"error: {exc}", file=sys.stderr)
        return 1
    except OSError as exc:  # a path that cannot be read: missing, a directory, no permission
        print(f"error: {exc.filename}: {exc.strerror}" if exc.filename else f"error: {exc}",
              file=sys.stderr)
        return 1


if __name__ == "__main__":
    sys.exit(main())
