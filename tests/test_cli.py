import dataclasses
import importlib
import json
import re
import time
from pathlib import Path

import numpy as np
import pytest

from blkp.cli import main
from blkp.exact import solve_exact
from blkp.graphrep import DEFAULT_NORM
from blkp.instance import BlkpInstance, GenConfig, generate, read_instance, write_instance
from blkp.knapsack import DpTooLarge, Mode, table_form
from blkp.pnanet import ModelParams, PnaConfig, load_checkpoint, save_checkpoint
from blkp.search import SearchConfig, solve_heuristic
from blkp.trainer import TrainConfig


@pytest.fixture
def instance_dir(tmp_path):
    d = tmp_path / "instances"
    rc = main(["generate", "--n1", "4", "--n2", "4", "--count", "6",
               "--data-type", "UC", "--value-max", "30", "--seed", "100",
               "--out", str(d)])
    assert rc == 0
    return d


@pytest.fixture
def checkpoint(tmp_path):
    path = tmp_path / "model.json"
    params = ModelParams(PnaConfig(), seed=0)
    save_checkpoint(params, DEFAULT_NORM, {}, path)
    return path


def test_console_script_runs_main(capsys):
    # the installed `blkp` command; Python 3.10 has no tomllib, so the
    # [project.scripts] table of pyproject.toml is read with a regex
    text = (Path(__file__).resolve().parent.parent / "pyproject.toml").read_text()
    table = re.search(r"^\[project\.scripts\]\n(.*?)(?=^\[|\Z)", text, re.M | re.S).group(1)
    module, name = re.search(r'^blkp\s*=\s*"([\w.]+):(\w+)"$', table, re.M).groups()
    entry = getattr(importlib.import_module(module), name)
    with pytest.raises(SystemExit) as exc:
        entry(["--help"])
    assert exc.value.code == 0
    assert capsys.readouterr().out.startswith("usage: blkp ")


def test_generate_writes_files(instance_dir):
    files = list(instance_dir.glob("*.json"))
    assert len(files) == 6


@pytest.mark.parametrize("count", ["0", "-3"])
def test_generate_non_positive_count_errors(tmp_path, capsys, count):
    out = tmp_path / "instances"
    rc = main(["generate", "--n1", "2", "--n2", "2", "--count", count, "--out", str(out)])
    assert rc == 1
    assert f"error: --count must be >= 1, got {count}" in capsys.readouterr().err
    assert not out.exists()


def test_generate_invalid_config_creates_no_directory(tmp_path, capsys):
    out = tmp_path / "d"
    rc = main(["generate", "--n1", "0", "--n2", "2", "--out", str(out)])
    assert rc == 1
    assert "error: GenConfig: n1 must be >= 1, got 0" in capsys.readouterr().err
    assert not out.exists()


def test_generate_negative_seed_names_the_flag(tmp_path, capsys):
    out = tmp_path / "d"
    rc = main(["generate", "--n1", "2", "--n2", "2", "--seed", "-1", "--out", str(out)])
    assert rc == 1
    assert "error: --seed must be >= 0, got -1" in capsys.readouterr().err
    assert not out.exists()


def test_exact_subcommand(instance_dir, tmp_path):
    out = tmp_path / "exact.json"
    rc = main(["exact", "--instances", str(instance_dir), "--format", "json",
               "--out", str(out)])
    assert rc == 0
    records = json.loads(out.read_text())["records"]
    assert len(records) == 6
    assert set(records[0]) == {"instance", "mode", "opt_value", "opt_x", "opt_y", "node_count",
                               "elapsed", "pool_size"}


def test_label_and_train_and_solve(instance_dir, tmp_path):
    labels = tmp_path / "labels.tsv"
    rc = main(["label", "--instances", str(instance_dir), "--k", "5",
               "--out", str(labels)])
    assert rc == 0
    lines = labels.read_text().splitlines()
    assert lines[0].split("\t") == ["instance", "leader_value", "x"]
    assert len(lines) > 6

    ckpt = tmp_path / "model.json"
    hist = tmp_path / "history.tsv"
    rc = main(["train", "--instances", str(instance_dir),
               "--labels", str(labels), "--epochs", "3", "--patience", "3",
               "--split", "0.5", "--out", str(ckpt), "--history", str(hist)])
    assert rc == 0
    assert load_checkpoint(ckpt)[2]["train_config"] == dataclasses.asdict(
        TrainConfig(epochs=3, early_stop_patience=3, split=0.5))
    assert hist.read_text().startswith("epoch\t")

    out = tmp_path / "solve.json"
    rc = main(["solve", "--instance", str(instance_dir),
               "--checkpoint", str(ckpt), "--theta", "0.2",
               "--n-samples", "5", "--format", "json", "--out", str(out)])
    assert rc == 0
    results = json.loads(out.read_text())["results"]
    assert len(results) == 6
    assert all(r["best_value"] >= 0 for r in results)


def test_train_default_patience_beyond_epochs(instance_dir, tmp_path):
    # --patience defaults to 50: more than 3 epochs just never stops early
    labels = tmp_path / "labels.tsv"
    assert main(["label", "--instances", str(instance_dir), "--k", "2",
                 "--out", str(labels)]) == 0
    ckpt = tmp_path / "model.json"
    hist = tmp_path / "history.tsv"
    rc = main(["train", "--instances", str(instance_dir), "--labels", str(labels),
               "--epochs", "3", "--out", str(ckpt), "--history", str(hist)])
    assert rc == 0
    assert len(hist.read_text().splitlines()) == 1 + 3


def test_train_flags_default_to_the_train_config():
    from blkp.cli import build_parser
    args = build_parser().parse_args(["train", "--instances", "i", "--labels", "l"])
    assert (args.epochs, args.patience) == (TrainConfig.epochs, TrainConfig.early_stop_patience)
    assert (args.epochs, args.patience) == (200, 50)


def test_train_divergence_errors(instance_dir, tmp_path, capsys):
    # a step size this large overflows the weights within two epochs
    labels = tmp_path / "labels.tsv"
    assert main(["label", "--instances", str(instance_dir), "--out", str(labels)]) == 0
    ckpt = tmp_path / "model.json"
    with np.errstate(all="ignore"):
        rc = main(["train", "--instances", str(instance_dir), "--labels", str(labels),
                   "--epochs", "5", "--lr", "1e308", "--out", str(ckpt)])
    assert rc == 1
    assert "error: non-finite loss at epoch 1" in capsys.readouterr().err
    assert not ckpt.exists()

def test_solve_elapsed_includes_forward(instance_dir, checkpoint, tmp_path, monkeypatch):
    from blkp import search
    forward = search.forward

    def slow_forward(*args, **kwargs):
        time.sleep(0.05)
        return forward(*args, **kwargs)

    monkeypatch.setattr(search, "forward", slow_forward)
    out = tmp_path / "solve.json"
    rc = main(["solve", "--instance", str(sorted(instance_dir.glob("*.json"))[0]),
               "--checkpoint", str(checkpoint), "--format", "json", "--out", str(out)])
    assert rc == 0
    [record] = json.loads(out.read_text())["results"]
    assert record["elapsed"] >= 0.05


@pytest.mark.parametrize("text", [
    '{"labels": [{"instance": "a"}]}',                       # record without "x"
    '{"records": []}',                                       # no "labels" list
    "instance\tleader_value\tx\nuc_4x4_000100\t5\n",       # missing field
    "instance\tleader_value\tx\nuc_4x4_000100\t5\t01x1\n",  # not a digit
    "instance\tleader_value\tx\n\xff\n",                    # not UTF-8
])
def test_malformed_label_file_errors(instance_dir, tmp_path, capsys, text):
    path = tmp_path / "labels.txt"
    path.write_bytes(text.encode("latin-1"))
    rc = main(["train", "--instances", str(instance_dir), "--labels", str(path)])
    assert rc == 1
    assert f"error: {path}: malformed label record" in capsys.readouterr().err


def test_non_binary_label_errors(instance_dir, tmp_path, capsys):
    labels = tmp_path / "labels.tsv"
    assert main(["label", "--instances", str(instance_dir), "--k", "2",
                 "--out", str(labels)]) == 0
    lines = labels.read_text().splitlines()
    name, value, xs = lines[1].split("\t")
    lines[1] = "\t".join([name, value, "2" + xs[1:]])  # a label entry of 2
    labels.write_text("\n".join(lines) + "\n")
    rc = main(["train", "--instances", str(instance_dir), "--labels", str(labels),
               "--epochs", "1", "--patience", "1"])
    assert rc == 1
    assert f"error: instance {name}: label must be a 0/1 vector" in capsys.readouterr().err


@pytest.mark.parametrize("command", ["train", "solve", "bench"])
def test_negative_seed_names_the_setting(instance_dir, checkpoint, tmp_path, capsys, command):
    labels = tmp_path / "labels.tsv"
    assert main(["label", "--instances", str(instance_dir), "--k", "1",
                 "--out", str(labels)]) == 0
    argv = {
        "train": ["train", "--instances", str(instance_dir), "--labels", str(labels),
                  "--epochs", "1", "--out", str(tmp_path / "model.json")],
        "solve": ["solve", "--instance", str(instance_dir), "--checkpoint", str(checkpoint)],
        "bench": ["bench", "--instances", str(instance_dir), "--checkpoint", str(checkpoint)],
    }[command]
    rc = main(argv + ["--seed", "-1"])
    assert rc == 1
    assert "error: seed must be >= 0, got -1" in capsys.readouterr().err


@pytest.mark.parametrize("flag, value, message", [
    pytest.param(flag, value, message, id=f"{flag[2:]}={value}")
    for flag, value, message in [
        ("--lr", "-1", "lr must be a finite number >= 0, got -1.0"),
        ("--lr", "nan", "lr must be a finite number >= 0, got nan"),
        ("--lr", "inf", "lr must be a finite number >= 0, got inf"),
        ("--weight-decay", "-1", "weight_decay must be a finite number >= 0, got -1.0"),
        ("--weight-decay", "nan", "weight_decay must be a finite number >= 0, got nan"),
        ("--batch-size", "0", "batch_size must be >= 1, got 0"),
        ("--epochs", "-1", "epochs must be >= 0, got -1"),
    ]])
def test_invalid_train_setting_names_the_setting(instance_dir, tmp_path, capsys,
                                                 flag, value, message):
    labels = tmp_path / "labels.tsv"
    assert main(["label", "--instances", str(instance_dir), "--k", "1",
                 "--out", str(labels)]) == 0
    model = tmp_path / "model.json"
    rc = main(["train", "--instances", str(instance_dir), "--labels", str(labels),
               "--epochs", "1", "--out", str(model), flag, value])
    assert rc == 1
    assert f"error: {message}" in capsys.readouterr().err
    assert not model.exists()


def test_bench_report(instance_dir, checkpoint, tmp_path):
    out = tmp_path / "report.json"
    rc = main(["bench", "--instances", str(instance_dir),
               "--checkpoint", str(checkpoint), "--n-samples", "5",
               "--format", "json", "--out", str(out)])
    assert rc == 0
    rows = json.loads(out.read_text())["report"]
    methods = {r["method"] for r in rows}
    assert "exact" in methods and "no_sampling" in methods
    for r in rows:
        assert r["avg_gap_pct"] <= r["max_gap_pct"] + 1e-12
        if r["method"] == "exact":
            assert r["avg_gap_pct"] == 0.0
        else:
            assert r["avg_gap_pct"] >= 0.0
        assert "checkpoint_hash" in r


def test_bench_rows_follow_from_the_solvers(tmp_path, checkpoint):
    # each row's objective and gaps, recomputed from the library's solvers:
    # gap = 100 * (optimum - objective) / optimum, averaged and maximized
    d = tmp_path / "instances"
    for data_type, n1, n2 in (("UC", 4, 4), ("C", 5, 3)):
        assert main(["generate", "--n1", str(n1), "--n2", str(n2), "--count", "3",
                     "--data-type", data_type, "--value-max", "30", "--seed", "40",
                     "--out", str(d)]) == 0
    out = tmp_path / "report.json"
    assert main(["bench", "--instances", str(d), "--checkpoint", str(checkpoint),
                 "--theta", "0.3", "--n-samples", "4", "--seed", "2", "--mode", "pessimistic",
                 "--format", "json", "--out", str(out)]) == 0
    rows = json.loads(out.read_text())["report"]
    params, norm, _ = load_checkpoint(checkpoint)
    configs = {"no_sampling": SearchConfig(theta=0.5, n_samples=1, mode=Mode.PESSIMISTIC, seed=2),
               "sampling(theta=0.3,N=4)": SearchConfig(theta=0.3, n_samples=4,
                                                       mode=Mode.PESSIMISTIC, seed=2)}
    instances = [read_instance(f) for f in sorted(d.glob("*.json"))]
    assert [(r["data_type"], r["method"]) for r in rows] == [
        (data_type, method) for data_type in ("C", "UC") for method in (*configs, "exact")]
    all_gaps = []
    for row in rows:
        group = [inst for inst in instances
                 if (inst.meta["data_type"], inst.n1, inst.n2) == (row["data_type"], row["n1"],
                                                                   row["n2"])]
        optima = [solve_exact(inst, Mode.PESSIMISTIC).opt_value for inst in group]
        if row["method"] == "exact":
            values = optima
        else:
            values = [solve_heuristic(inst, params, configs[row["method"]], norm=norm).best_value
                      for inst in group]
        gaps = [100.0 * (opt - value) / opt for value, opt in zip(values, optima)]
        assert row["count"] == len(group) == 3
        assert row["avg_obj"] == pytest.approx(sum(values) / 3)
        assert row["avg_gap_pct"] == pytest.approx(sum(gaps) / 3)
        assert row["max_gap_pct"] == pytest.approx(max(gaps))
        all_gaps += gaps
    assert max(all_gaps) > 0.0  # some heuristic falls short, so the gaps are exercised


def test_bench_non_positive_optimum_names_the_instance(tmp_path, checkpoint, capsys,
                                                       monkeypatch):
    # no item fits the capacity: the optimum is 0, and no gap is relative to it
    from blkp import search
    d = tmp_path / "instances"
    d.mkdir()
    write_instance(BlkpInstance(1, 1, [5], [1], [5], [1], [1], 2), d / "empty.json")
    for k in range(3):  # the same group, each with a positive optimum
        write_instance(BlkpInstance(1, 1, [1], [k + 1], [5], [1], [1], 2), d / f"fits{k}.json")
    calls = []
    heuristic = search.solve_heuristic
    monkeypatch.setattr(search, "solve_heuristic",
                        lambda *a, **k: calls.append(a) or heuristic(*a, **k))
    assert main(["bench", "--instances", str(d), "--checkpoint", str(checkpoint)]) == 1
    assert "error: exact value must be positive for instance empty" in capsys.readouterr().err
    assert calls == []  # refused right after the group's exact pass


@pytest.mark.parametrize("data_types", [[["UC"]], [7, "UC"]], ids=["list", "int_and_str"])
def test_bench_groups_by_the_string_form_of_data_type(tmp_path, checkpoint, data_types):
    # the reader does not check meta: a list data_type raised TypeError (it
    # does not hash), and an int beside a str failed in sorting the groups
    d = tmp_path / "instances"
    d.mkdir()
    for k, data_type in enumerate(data_types):
        inst = generate(GenConfig(3, 3, seed=k))
        inst.meta["data_type"] = data_type
        write_instance(inst, d / f"inst{k}.json")
    out = tmp_path / "report.json"
    assert main(["bench", "--instances", str(d), "--checkpoint", str(checkpoint),
                 "--format", "json", "--out", str(out)]) == 0
    rows = json.loads(out.read_text())["report"]
    assert [r["data_type"] for r in rows[::3]] == sorted(str(t) for t in data_types)
    assert all(r["count"] == 1 for r in rows)


@pytest.mark.parametrize("command", ["exact", "label", "solve", "bench"])
def test_solver_refusal_names_the_file(tmp_path, checkpoint, capsys, command):
    # c and d2 fit int64, but the follower's combined profits M * c + d2 do not
    d = tmp_path / "instances"
    d.mkdir()
    big = 2 ** 40
    path = d / "big_profits.json"
    write_instance(BlkpInstance(2, 2, [1, 1], [1, 1], [1, 1], [big, big], [big, big], 2), path)
    flag = "--instance" if command == "solve" else "--instances"
    args = [command, flag, str(d)]
    if command in ("solve", "bench"):
        args += ["--checkpoint", str(checkpoint)]
    assert main(args) == 1
    assert f"error: {path}: combined lexicographic profits" in capsys.readouterr().err


def test_bench_checkpoint_hash_follows_the_weights(instance_dir, tmp_path):
    def checkpoint_hash(path):
        out = tmp_path / "report.json"
        assert main(["bench", "--instances", str(instance_dir), "--checkpoint", str(path),
                     "--n-samples", "2", "--format", "json", "--out", str(out)]) == 0
        [digest] = {r["checkpoint_hash"] for r in json.loads(out.read_text())["report"]}
        return digest

    paths = [tmp_path / f"model{seed}.json" for seed in (0, 1)]
    for seed, path in enumerate(paths):  # one config, different weights
        save_checkpoint(ModelParams(PnaConfig(), seed=seed), DEFAULT_NORM, {}, path)
    first = checkpoint_hash(paths[0])
    assert checkpoint_hash(paths[0]) == first
    assert checkpoint_hash(paths[1]) != first


def test_bench_sampling_monotone_in_n(instance_dir, checkpoint, tmp_path):
    objs = {}
    for n in (2, 20):
        out = tmp_path / f"report{n}.json"
        rc = main(["bench", "--instances", str(instance_dir),
                   "--checkpoint", str(checkpoint), "--n-samples", str(n),
                   "--theta", "0.2", "--seed", "5",
                   "--format", "json", "--out", str(out)])
        assert rc == 0
        rows = json.loads(out.read_text())["report"]
        row = [r for r in rows if r["method"].startswith("sampling")][0]
        objs[n] = row["avg_obj"]
    assert objs[20] >= objs[2]


def test_bench_reproducible(instance_dir, checkpoint, tmp_path):
    texts = []
    for k in range(2):
        out = tmp_path / f"r{k}.tsv"
        rc = main(["bench", "--instances", str(instance_dir),
                   "--checkpoint", str(checkpoint), "--seed", "7",
                   "--out", str(out)])
        assert rc == 0
        # timing columns vary run to run; compare everything else
        rows = [ln.split("\t") for ln in out.read_text().splitlines()]
        header = rows[0]
        ti = header.index("avg_time_s")
        texts.append([[c for i, c in enumerate(r) if i != ti] for r in rows])
    assert texts[0] == texts[1]


def test_label_negative_k_errors(instance_dir, tmp_path, capsys):
    out = tmp_path / "labels.tsv"
    rc = main(["label", "--instances", str(instance_dir), "--k", "-2", "--out", str(out)])
    assert rc == 1
    assert "error: k must be >= 0" in capsys.readouterr().err
    assert not out.exists()


@pytest.mark.parametrize("argv", [
    ["generate", "--n1", "2", "--n2", "2", "--format", "json"],
    ["exact", "--instances", "d", "--seed", "1"],
    ["label", "--instances", "d", "--seed", "1"],
    ["train", "--instances", "d", "--labels", "l", "--format", "json"],
    ["solve", "--instance", "d", "--checkpoint", "c", "--no-sampling"],
])
def test_flags_a_subcommand_does_not_read_are_refused(argv):
    with pytest.raises(SystemExit) as exc:
        main(argv)
    assert exc.value.code == 2


def test_missing_file_errors(tmp_path, capsys):
    rc = main(["exact", "--instances", str(tmp_path / "nope")])
    assert rc == 1
    assert "error:" in capsys.readouterr().err


def test_directory_without_instances_errors(tmp_path, capsys):
    (tmp_path / "notes.txt").write_text("not an instance")
    rc = main(["exact", "--instances", str(tmp_path)])
    assert rc == 1
    assert f"error: no instance files (*.json) in {tmp_path}" in capsys.readouterr().err


def test_instance_without_labels_errors(instance_dir, tmp_path, capsys):
    labels = tmp_path / "labels.tsv"
    assert main(["label", "--instances", str(instance_dir), "--k", "1",
                 "--out", str(labels)]) == 0
    lines = labels.read_text().splitlines()
    name = lines[-1].split("\t")[0]  # every label of the last instance goes
    labels.write_text("\n".join(ln for ln in lines if not ln.startswith(name + "\t")) + "\n")
    rc = main(["train", "--instances", str(instance_dir), "--labels", str(labels),
               "--epochs", "1", "--out", str(tmp_path / "model.json")])
    assert rc == 1
    assert f"error: no labels for instance {name}" in capsys.readouterr().err
    assert not (tmp_path / "model.json").exists()


@pytest.mark.parametrize("out", [[], ["--out", "-"]], ids=["unset", "dash"])
def test_table_goes_to_stdout_without_an_out_path(instance_dir, capsys, out):
    assert main(["exact", "--instances", str(instance_dir)] + out) == 0
    lines = capsys.readouterr().out.splitlines()
    assert lines[0].split("\t") == ["instance", "mode", "opt_value", "node_count", "elapsed"]
    assert len(lines) == 1 + 6


def test_non_utf8_instance_in_directory_names_the_file(instance_dir, capsys):
    bad = instance_dir / "zz_bad.json"
    bad.write_bytes(b'{"n1": "\xff"}')
    rc = main(["exact", "--instances", str(instance_dir)])
    assert rc == 1
    assert f"error: {bad}: malformed document" in capsys.readouterr().err


def oversized_instance():
    """15 follower items, more than a list serves, whose covering row, read
    from residual b - 1, has 15 * (min(15 * b - (b - 1), b) + 1) cells,
    past the budget."""
    big = 10 ** 8
    return BlkpInstance(1, 15, [1], [1], [big] * 15, [1] * 15, [1] * 15, big)


def test_oversized_instance_errors(tmp_path, capsys):
    write_instance(oversized_instance(), tmp_path / "big.json")
    rc = main(["exact", "--instances", str(tmp_path / "big.json")])
    assert rc == 1
    assert ("n=15 items up to capacity 100000000, read from 99999999, needs "
            "1500000015 cells") in capsys.readouterr().err


@pytest.mark.parametrize("command", ["exact", "label", "solve", "bench"])
def test_oversized_instance_in_directory_names_the_file_and_writes_nothing(tmp_path, checkpoint,
                                                                          capsys, command):
    # the good instance is solved first; the solver's own refusal of the
    # oversized one ends the command before anything is written
    d = tmp_path / "mixed"
    d.mkdir()
    write_instance(generate(GenConfig(3, 3, seed=1)), d / "a_good.json")
    big = oversized_instance()
    write_instance(big, d / "b_big.json")
    with pytest.raises(DpTooLarge) as library:
        if command == "solve":
            params, norm, _meta = load_checkpoint(checkpoint)
            solve_heuristic(big, params, SearchConfig(), norm)
        else:  # bench solves a group exactly before it searches
            solve_exact(big)
    out = tmp_path / "out.tsv"
    flag = "--instance" if command == "solve" else "--instances"
    args = [command, flag, str(d), "--out", str(out)]
    if command in ("solve", "bench"):
        args += ["--checkpoint", str(checkpoint)]
    assert main(args) == 1
    assert capsys.readouterr().err == f"error: {d / 'b_big.json'}: {library.value}\n"
    assert not out.exists()


def test_exact_names_the_follower_table_where_both_are_past_the_budget(tmp_path, capsys):
    # 16 leader and 15 follower items of 1e7 at b = 1.4e8: both rows are
    # past the budget, and the follower's, built first, is the one named
    inst = BlkpInstance(16, 15, [10 ** 7] * 16, [1] * 16, [10 ** 7] * 15, [1] * 15, [1] * 15,
                        14 * 10 ** 7)
    path = tmp_path / "both.json"
    write_instance(inst, path)
    assert main(["exact", "--instances", str(path)]) == 1
    assert capsys.readouterr().err == (
        f"error: {path}: DP table for n=15 items up to capacity 140000000, read from 0, "
        "needs 2100000015 cells, above the budget of 1e+08\n")


def covering_instance(b):
    """15 follower items of weight 1e7 and one leader item of weight 1: from
    the lowest residual b - 1, the follower's covering row writes
    min(1.5e8 - (b - 1), b) + 1 cells per item."""
    return BlkpInstance(1, 15, [1], [1], [10 ** 7] * 15, [1] * 15, [1] * 15, b)


@pytest.mark.parametrize("command", ["exact", "solve"])
def test_cli_and_library_agree_where_only_the_covering_row_fits(tmp_path, checkpoint, capsys,
                                                                 command):
    flag = "--instance" if command == "solve" else "--instances"
    extra = ["--checkpoint", str(checkpoint)] if command == "solve" else []
    # b = 1.5e8 - 1000: 15 x 1002 covering cells from residual b - 1, 15 x
    # (b + 1) from residual 0; only the first fits the budget, and both answer
    fits = covering_instance(15 * 10 ** 7 - 1000)
    lowest = fits.b - 1
    assert table_form(fits.a2, fits.b, lowest) == ("row", fits.b, None)
    with pytest.raises(DpTooLarge):  # read from residual 0, no row fits
        table_form(fits.a2, fits.b, 0)
    res = solve_exact(fits)
    assert res.node_count == 15 * 1002 + 1 * 2
    path = tmp_path / "fits.json"
    write_instance(fits, path)
    out = tmp_path / "out.json"
    assert main([command, flag, str(path), "--format", "json", "--out", str(out)] + extra) == 0
    if command == "exact":
        (record,) = json.loads(out.read_text())["records"]
        assert (record["opt_value"], record["node_count"]) == (res.opt_value, res.node_count)
    # b = 1.4e8: the covering row needs 15 x (1e7 + 2) cells, and the CLI
    # reports the library's own refusal
    refused = covering_instance(14 * 10 ** 7)
    with pytest.raises(DpTooLarge, match="read from 139999999, needs 150000030 cells") as library:
        if command == "solve":
            params, norm, _meta = load_checkpoint(checkpoint)
            solve_heuristic(refused, params, SearchConfig(), norm)
        else:
            solve_exact(refused)
    path = tmp_path / "refused.json"
    write_instance(refused, path)
    assert main([command, flag, str(path)] + extra) == 1
    assert f"error: {path}: {library.value}" in capsys.readouterr().err


def test_exact_answers_where_a_leader_item_is_heavier_than_b(tmp_path):
    # the item of 2e8 fits no leader at b = 1.4e8: the solve tables the 14
    # that fit, a list of 2^14 selections
    inst = BlkpInstance(15, 1, [2 * 10 ** 8] + [10 ** 7] * 14, list(range(1, 16)), [10 ** 7],
                        [1], [1], 14 * 10 ** 7)
    path, out = tmp_path / "heavy.json", tmp_path / "out.json"
    write_instance(inst, path)
    assert main(["exact", "--instances", str(path), "--format", "json", "--out", str(out)]) == 0
    (record,) = json.loads(out.read_text())["records"]
    assert (record["opt_value"], record["node_count"]) == (119, 2 ** 14 + 2)


DESK_CHECKPOINT = Path(__file__).resolve().parent.parent / "perfbench" / "desk_checkpoint.json"


def test_solve_asks_for_the_table_a_search_builds(tmp_path, monkeypatch, capsys):
    # the search reads its follower table from b minus its heaviest candidate,
    # never below: at a budget of 9e4 cells the table from the lowest residual
    # any leader leaves is refused, and `solve` still answers as the library does
    from blkp import exact, knapsack
    monkeypatch.setattr(knapsack, "MAX_DP_CELLS", 9 * 10 ** 4)
    inst = generate(GenConfig(10, 20, seed=1))
    with pytest.raises(DpTooLarge, match=f"read from {exact.lowest_residual(inst)},"):
        table_form(inst.a2, inst.b, exact.lowest_residual(inst))
    params, norm, _meta = load_checkpoint(DESK_CHECKPOINT)
    want = solve_heuristic(inst, params, SearchConfig(), norm)
    path, out = tmp_path / "inst.json", tmp_path / "out.json"
    write_instance(inst, path)
    assert main(["solve", "--instance", str(path), "--checkpoint", str(DESK_CHECKPOINT),
                 "--format", "json", "--out", str(out)]) == 0
    (record,) = json.loads(out.read_text())["results"]
    assert (record["best_value"], record["best_x"]) == (want.best_value, want.best_x.tolist())
    assert main(["exact", "--instances", str(path)]) == 1
    assert f"read from {exact.lowest_residual(inst)}," in capsys.readouterr().err


@pytest.mark.parametrize("command", ["exact", "solve", "bench"])
def test_list_tables_past_the_dense_budget_are_answered(tmp_path, checkpoint, command):
    # (10, 10) at value_max 1e6: b near 7e6, so a dense table over both item
    # sets would pass the budget, but each side is a list of 2^10 selections
    d = tmp_path / "instances"
    assert main(["generate", "--n1", "10", "--n2", "10", "--count", "2", "--value-max",
                 str(10 ** 6), "--seed", "2", "--out", str(d)]) == 0
    out = tmp_path / "out.json"
    flag = "--instance" if command == "solve" else "--instances"
    args = [command, flag, str(d), "--format", "json", "--out", str(out)]
    if command != "exact":
        args += ["--checkpoint", str(checkpoint)]
    assert main(args) == 0
    doc = json.loads(out.read_text())
    if command == "exact":
        assert [r["node_count"] for r in doc["records"]] == [2048, 2048]


def test_bad_checkpoint_errors(instance_dir, tmp_path, capsys):
    bad = tmp_path / "bad.json"
    bad.write_text("{}")
    rc = main(["solve", "--instance", str(instance_dir),
               "--checkpoint", str(bad)])
    assert rc == 1
    assert "error:" in capsys.readouterr().err


def test_checkpoint_error_names_the_file(instance_dir, checkpoint, capsys):
    doc = json.loads(checkpoint.read_text())
    doc["normalization"]["value_scale"] = 0
    checkpoint.write_text(json.dumps(doc))
    rc = main(["solve", "--instance", str(instance_dir), "--checkpoint", str(checkpoint)])
    assert rc == 1
    assert f"error: {checkpoint}: corrupt checkpoint: value_scale" in capsys.readouterr().err


@pytest.mark.parametrize("command", ["solve", "train"])
def test_directory_for_a_file_errors(instance_dir, capsys, command):
    # `--checkpoint DIR` and `--labels DIR`: a clean error naming the path
    args = {"solve": ["solve", "--instance", str(instance_dir), "--checkpoint"],
            "train": ["train", "--instances", str(instance_dir), "--labels"]}[command]
    rc = main(args + [str(instance_dir)])
    assert rc == 1
    assert f"error: {instance_dir}: Is a directory" in capsys.readouterr().err


def test_non_finite_predictions_error(instance_dir, checkpoint, monkeypatch, capsys):
    from blkp import search
    monkeypatch.setattr(search, "forward", lambda inst, *a, **k: np.full(inst.n1, np.nan))
    rc = main(["solve", "--instance", str(instance_dir), "--checkpoint", str(checkpoint)])
    assert rc == 1
    assert "error: final_values must be finite" in capsys.readouterr().err


def test_overflowing_checkpoint_errors(instance_dir, tmp_path, capsys):
    # finite weights whose hidden layers overflow must not predict 0.5
    params = ModelParams(PnaConfig(), seed=0)
    params.flat *= 1e306
    path = tmp_path / "huge.json"
    save_checkpoint(params, DEFAULT_NORM, {}, path)
    with np.errstate(all="ignore"):
        rc = main(["solve", "--instance", str(instance_dir), "--checkpoint", str(path)])
    assert rc == 1
    assert "error: final_values must be finite" in capsys.readouterr().err
