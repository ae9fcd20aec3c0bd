"""tools/code_lines.py counts the code lines the size criteria read."""

import importlib.util
import subprocess
import sys
from pathlib import Path

TOOL = Path(__file__).resolve().parents[1] / "tools" / "code_lines.py"

SOURCE = '''"""Module docstring,
over two lines."""

# a comment


class Thing:
    """Class docstring."""

    def method(self):
        """Function docstring,
        over two lines."""
        # a comment inside
        total = (1 +
                 2 +
                 3)
        return total


async def later():
    """Async docstring."""
    return "a string, not a docstring"
'''


def load_tool():
    spec = importlib.util.spec_from_file_location("code_lines", TOOL)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


def test_counts_code_lines_only(tmp_path, capsys):
    # docstrings, comments and blank lines are not counted; the statement
    # over three lines counts three: class, def, 3, return, async def, return
    path = tmp_path / "sample.py"
    path.write_text(SOURCE)
    tool = load_tool()
    assert tool.code_lines(path) == 8
    tool.main([str(tmp_path)])
    assert capsys.readouterr().out.splitlines() == [
        f"     8  {path}", f"     8  {tmp_path} (total)"]


def test_missing_path_is_a_one_line_error(tmp_path):
    missing = tmp_path / "missing"
    done = subprocess.run([sys.executable, str(TOOL), str(missing)],
                          capture_output=True, text=True)
    assert done.returncode == 1 and done.stdout == ""
    assert done.stderr == f"code_lines.py: no such file or directory: {missing}\n"
