import dataclasses
import json
import time

import numpy as np
import pytest

from blkp.cli import CliError, compute_gaps, main
from blkp.graphrep import DEFAULT_NORM
from blkp.pnanet import ModelParams, PnaConfig, load_checkpoint, save_checkpoint
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


def test_compute_gaps_examples():
    assert compute_gaps({"a": 100}, {"a": 100}) == (0.0, 0.0)
    assert compute_gaps({"a": 99}, {"a": 100}) == (1.0, 1.0)
    avg, mx = compute_gaps({"a": 100, "b": 96}, {"a": 100, "b": 100})
    assert (avg, mx) == (2.0, 4.0)


def test_compute_gaps_missing_exact():
    with pytest.raises(CliError, match="missing exact"):
        compute_gaps({"a": 1}, {})


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
    assert "error: GenConfig: n1 and n2 must be >= 1" in capsys.readouterr().err
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
    assert all(r["proven_optimal"] for r in records)


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


def test_non_utf8_instance_in_directory_names_the_file(instance_dir, capsys):
    bad = instance_dir / "zz_bad.json"
    bad.write_bytes(b'{"n1": "\xff"}')
    rc = main(["exact", "--instances", str(instance_dir)])
    assert rc == 1
    assert f"error: {bad}: malformed document" in capsys.readouterr().err


def test_oversized_instance_errors(tmp_path, capsys):
    from blkp.instance import BlkpInstance, write_instance
    big = 10 ** 9
    write_instance(BlkpInstance(1, 1, [big], [1], [big], [1], [1], big),
                   tmp_path / "big.json")
    rc = main(["exact", "--instances", str(tmp_path / "big.json")])
    assert rc == 1
    assert f"b={big}" in capsys.readouterr().err


@pytest.mark.parametrize("command", ["exact", "solve", "bench"])
def test_oversized_instance_in_directory_refused_before_any_solve(tmp_path, checkpoint, capsys,
                                                                  monkeypatch, command):
    from blkp import cli, instance
    d = tmp_path / "mixed"
    d.mkdir()
    big = 10 ** 9
    instance.write_instance(instance.generate(instance.GenConfig(3, 3, seed=1)), d / "a_good.json")
    instance.write_instance(instance.BlkpInstance(1, 1, [big], [1], [big], [1], [1], big),
                            d / "b_big.json")
    solved = []
    monkeypatch.setattr(cli.exact_mod, "solve_exact", lambda *a, **k: solved.append(a))
    monkeypatch.setattr(cli.search, "solve_heuristic", lambda *a, **k: solved.append(a))
    out = tmp_path / "out.tsv"
    flag = "--instance" if command == "solve" else "--instances"
    args = [command, flag, str(d), "--out", str(out)]
    if command != "exact":
        args += ["--checkpoint", str(checkpoint)]
    assert main(args) == 1
    assert f"error: {d / 'b_big.json'}: DP table" in capsys.readouterr().err
    assert not out.exists()
    assert solved == []


def test_bad_checkpoint_errors(instance_dir, tmp_path, capsys):
    bad = tmp_path / "bad.json"
    bad.write_text("{}")
    rc = main(["solve", "--instance", str(instance_dir),
               "--checkpoint", str(bad)])
    assert rc == 1
    assert "error:" in capsys.readouterr().err


def test_non_finite_predictions_error(instance_dir, checkpoint, monkeypatch, capsys):
    from blkp import search
    monkeypatch.setattr(search, "forward", lambda inst, *a, **k: np.full(inst.n1, np.nan))
    rc = main(["solve", "--instance", str(instance_dir), "--checkpoint", str(checkpoint)])
    assert rc == 1
    assert "error: final_values must be finite" in capsys.readouterr().err


def test_overflowing_checkpoint_errors(instance_dir, tmp_path, capsys):
    # finite weights whose hidden layers overflow must not predict 0.5
    params = ModelParams(PnaConfig(), seed=0)
    for p in params.parameters():
        p.data = p.data * 1e306
    path = tmp_path / "huge.json"
    save_checkpoint(params, DEFAULT_NORM, {}, path)
    with np.errstate(all="ignore"):
        rc = main(["solve", "--instance", str(instance_dir), "--checkpoint", str(path)])
    assert rc == 1
    assert "error: final_values must be finite" in capsys.readouterr().err
