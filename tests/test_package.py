"""Rules the package's source keeps."""

import ast
import importlib
import sys
from pathlib import Path

import blkp

SRC = Path(__file__).resolve().parent.parent / "src" / "blkp"


def test_core_imports_only_the_standard_library_and_numpy():
    # the core stays numpy-only; sys.stdlib_module_names exists from Python 3.10
    allowed = sys.stdlib_module_names | {"numpy"}
    files = sorted(SRC.glob("*.py"))
    assert files
    outside = []
    for path in files:
        for node in ast.walk(ast.parse(path.read_text(), filename=str(path))):
            if isinstance(node, ast.Import):
                names = [alias.name for alias in node.names]
            elif isinstance(node, ast.ImportFrom) and node.level == 0:
                names = [node.module]
            else:
                continue
            outside += [f"{path.name}:{node.lineno}: {name}" for name in names
                        if name.split(".")[0] not in allowed]
    assert outside == []


def test_every_exception_the_library_raises_is_exported():
    # cli.CliError never leaves cli.main, which prints it
    modules = sorted(path.stem for path in SRC.glob("*.py")
                     if path.stem not in ("__init__", "cli"))
    assert modules
    raised = []
    for name in modules:
        module = importlib.import_module(f"blkp.{name}")
        raised += [obj for obj in vars(module).values()
                   if isinstance(obj, type) and issubclass(obj, BaseException)
                   and obj.__module__ == module.__name__]
    assert len(raised) >= 6
    missing = [cls.__name__ for cls in raised
               if getattr(blkp, cls.__name__, None) is not cls or cls.__name__ not in blkp.__all__]
    assert missing == []


def test_only_knapsack_knows_how_a_table_is_sized():
    # a table is sized and refused only where it is built; docstrings may
    # point at `table_form`, but no other module imports or reads it
    private = {"table_form", "MAX_DP_CELLS", "LIST_MAX_ITEMS", "_use_list"}
    files = sorted(path for path in SRC.glob("*.py") if path.name != "knapsack.py")
    assert files
    found = []
    for path in files:
        for node in ast.walk(ast.parse(path.read_text(), filename=str(path))):
            if isinstance(node, (ast.Import, ast.ImportFrom)):
                names = [alias.name.split(".")[-1] for alias in node.names]
            elif isinstance(node, ast.Name):
                names = [node.id]
            elif isinstance(node, ast.Attribute):
                names = [node.attr]
            else:
                continue
            found += [f"{path.name}:{node.lineno}: {name}" for name in names if name in private]
    assert found == []
