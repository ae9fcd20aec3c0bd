import runpy
from pathlib import Path

DEMOS = Path(__file__).resolve().parent.parent / "demos"


def test_generate_and_solve_exact_demo(capsys):
    runpy.run_path(str(DEMOS / "01_generate_and_solve_exact.py"), run_name="__main__")
    out = capsys.readouterr().out
    assert "=== 5. A larger instance ===" in out
    assert "proven optimal" in out
