"""tools/bench_pairs.py runs both trees once per seed, alternating, and reports the pairs."""

import importlib.util
import json
from pathlib import Path

import pytest

TOOL = Path(__file__).resolve().parents[1] / "tools" / "bench_pairs.py"

# a stand-in for perfbench/run.py: logs its tree and seed outside the tree,
# then prints the result line with the tree's throughput and correctness
FAKE_RUN = '''import json, os, sys
seed = sys.argv[sys.argv.index("--seed") + 1]
with open(os.environ["PAIRS_LOG"], "a") as log:
    log.write(f"{os.path.basename(os.getcwd())} {seed}\\n")
print("a progress line")
print(json.dumps({"correct": CORRECT, "attempted": 3, "failed": 0 if CORRECT else 1,
                  "metrics": {"throughput_per_s": {"value": SPEED * int(seed), "unit": "1/s"},
                              "op_ms_p50": {"value": 2.0, "unit": "ms"}}}))
sys.exit(0 if CORRECT else 1)
'''


def load_tool():
    spec = importlib.util.spec_from_file_location("bench_pairs", TOOL)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


def fake_tree(root, name, speed, correct=True):
    tree = root / name
    (tree / "perfbench").mkdir(parents=True)
    (tree / "perfbench" / "run.py").write_text(
        FAKE_RUN.replace("SPEED", str(speed)).replace("CORRECT", str(correct)))
    return tree


def tree_files(tree):
    return sorted(p.relative_to(tree) for p in tree.rglob("*"))


def test_pairs_alternate_and_report_medians(tmp_path, monkeypatch, capsys):
    tool = load_tool()
    log = tmp_path / "log.txt"
    monkeypatch.setenv("PAIRS_LOG", str(log))
    parent, change = fake_tree(tmp_path, "parent", 100), fake_tree(tmp_path, "change", 110)
    before = tree_files(parent), tree_files(change)
    code = tool.main([str(parent), str(change), "--workload", "w", "--seeds", "1-3,5",
                      "--seconds", "0.5"])
    out = capsys.readouterr().out
    assert code == 0
    # the first tree alternates, the parent first on the first seed
    assert log.read_text().split("\n")[:-1] == [
        "parent 1", "change 1", "change 2", "parent 2", "parent 3", "change 3",
        "change 5", "parent 5"]
    assert "seed 2 (change first): throughput_per_s 200 -> 220, op_ms_p50 2 -> 2" in out
    # medians over seeds 1, 2, 3, 5, and the parent's interquartile range
    line = next(row for row in out.splitlines() if row.startswith("throughput_per_s"))
    # neither tree has a BENCHMARK.json, so no metric has a better side
    assert line.split() == ["throughput_per_s", "250", "275", "+10.0%", "325", "n/a"]
    assert (tree_files(parent), tree_files(change)) == before


def write_directions(tree, better):
    (tree / "BENCHMARK.json").write_text(json.dumps(
        {"end_to_end": [{"name": name, "better": way} for name, way in better.items()]}))


def test_wins_count_the_pairs_the_change_read_better(tmp_path, monkeypatch, capsys):
    tool = load_tool()
    monkeypatch.setenv("PAIRS_LOG", str(tmp_path / "log.txt"))
    # the change is slower on seed 1 alone; op_ms_p50 is 2.0 on both sides
    parent = fake_tree(tmp_path, "parent", 100)
    change = fake_tree(tmp_path, "change", "(90 if int(seed) == 1 else 110)")
    write_directions(parent, {"throughput_per_s": "higher", "op_ms_p50": "lower"})
    # the change's own file is not read: with it, throughput would read 1/4
    write_directions(change, {"throughput_per_s": "lower"})
    assert tool.main([str(parent), str(change), "--workload", "w", "--seeds", "1-4"]) == 0
    rows = {row.split()[0]: row.split()[-1] for row in capsys.readouterr().out.splitlines()
            if row.startswith(("throughput_per_s", "op_ms_p50"))}
    assert rows == {"throughput_per_s": "3/4", "op_ms_p50": "0/4"}  # a tie counts for neither
    # a metric the parent's file does not list reads n/a
    write_directions(parent, {"throughput_per_s": "higher"})
    assert tool.main([str(parent), str(change), "--workload", "w", "--seeds", "1"]) == 0
    line = next(row for row in capsys.readouterr().out.splitlines()
                if row.startswith("op_ms_p50"))
    assert line.split()[-1] == "n/a"


def test_a_run_that_is_not_correct_exits_1(tmp_path, monkeypatch, capsys):
    tool = load_tool()
    monkeypatch.setenv("PAIRS_LOG", str(tmp_path / "log.txt"))
    parent, change = fake_tree(tmp_path, "parent", 100), fake_tree(tmp_path, "change", 90, False)
    assert tool.main([str(parent), str(change), "--workload", "w", "--seeds", "1"]) == 1
    captured = capsys.readouterr()
    assert "seed 1 change FAILED: exit 1, correct False, failed 1" in captured.err
    assert "1 run(s) failed or were not correct" in captured.err


def test_a_run_without_a_result_line_exits_1(tmp_path, monkeypatch, capsys):
    tool = load_tool()
    monkeypatch.setenv("PAIRS_LOG", str(tmp_path / "log.txt"))
    parent = fake_tree(tmp_path, "parent", 100)
    change = tmp_path / "change"  # no perfbench/run.py: python exits 2 and prints nothing
    change.mkdir()
    assert tool.main([str(parent), str(change), "--workload", "w", "--seeds", "4"]) == 1
    assert "seed 4 change FAILED: no result line (exit 2)" in capsys.readouterr().err


@pytest.mark.parametrize("text, seeds", [("3", [3]), ("1-4", [1, 2, 3, 4]), ("0,2-3", [0, 2, 3])])
def test_seed_lists(text, seeds):
    assert load_tool().parse_seeds(text) == seeds


@pytest.mark.parametrize("text", ["", "a", "1-", "-1"])
def test_bad_seed_lists_are_refused(text):
    with pytest.raises(ValueError):
        load_tool().parse_seeds(text)

