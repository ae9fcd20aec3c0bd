"""tools/traffic_lines.py lists the function-body statements a traffic left unrun."""

import importlib.util
import subprocess
import sys
from pathlib import Path

from blkp.instance import check_int

TOOL = Path(__file__).resolve().parents[1] / "tools" / "traffic_lines.py"


def load_tool():
    spec = importlib.util.spec_from_file_location("traffic_lines", TOOL)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


def test_recorder_lists_what_a_valid_call_left_unrun():
    # a valid value runs both of check_int's tests and neither raise; the
    # call it makes to is_int runs that function's one statement
    tool = load_tool()
    lines = tool.report(tool.record(lambda: check_int("n", 3, 0)))
    assert [line.split(" ", 2)[2] for line in lines if " [check_int] " in line] == [
        'raise error(f"{name} must be an integer, got {value!r}")',
        'raise error(f"{name} must be >= {least}, got {value}")']
    assert not [line for line in lines if " [is_int] " in line]
    assert any(line.startswith("src/blkp/knapsack.py:") for line in lines)


def test_options_are_refused():
    done = subprocess.run([sys.executable, str(TOOL), "--seed", "1"],
                          capture_output=True, text=True)
    assert done.returncode == 1 and done.stdout == ""
    assert done.stderr == "traffic_lines.py takes no options\n"
