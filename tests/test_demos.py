import runpy
from pathlib import Path

DEMOS = Path(__file__).resolve().parent.parent / "demos"


def test_generate_and_solve_exact_demo(capsys):
    runpy.run_path(str(DEMOS / "01_generate_and_solve_exact.py"), run_name="__main__")
    out = capsys.readouterr().out
    assert "=== 5. A larger instance ===" in out
    assert "proven optimal" in out


def test_search_and_benchmark_demo(capsys, monkeypatch, tmp_path):
    # no demo_model.json in the working directory: the untrained fallback
    monkeypatch.chdir(tmp_path)
    runpy.run_path(str(DEMOS / "03_search_and_benchmark.py"), run_name="__main__")
    out = capsys.readouterr().out
    assert "using an untrained network" in out
    assert "=== Deterministic rounding (theta 0.5 fixes every item) ===" in out
    assert "n1 = n2 = 25:" in out


def test_train_then_search_demos(capsys, monkeypatch, tmp_path):
    # demo 02 writes demo_model.json into the working directory; demo 03 loads it
    monkeypatch.chdir(tmp_path)
    runpy.run_path(str(DEMOS / "02_train_small_model.py"), run_name="__main__")
    out = capsys.readouterr().out
    assert "best validation loss" in out
    assert (tmp_path / "demo_model.json").exists()
    runpy.run_path(str(DEMOS / "03_search_and_benchmark.py"), run_name="__main__")
    assert "loaded trained checkpoint demo_model.json" in capsys.readouterr().out
