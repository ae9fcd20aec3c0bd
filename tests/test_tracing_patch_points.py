"""The benchmark's tracer patches library attributes by name; each must exist.

`perfbench/tracing.py` looks every patch point up in its owner's
`__dict__`, so a renamed or moved function breaks only a traced
benchmark run. This imports the module from its file, writing nothing.
"""

import importlib.util
import sys
from pathlib import Path

TRACING = Path(__file__).resolve().parent.parent / "perfbench" / "tracing.py"


def test_every_patch_point_is_an_attribute_of_its_owner(monkeypatch):
    monkeypatch.setattr(sys, "dont_write_bytecode", True)
    spec = importlib.util.spec_from_file_location("perfbench_tracing", TRACING)
    tracing = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(tracing)
    table = tracing._patch_table()
    assert table
    missing = [f"{getattr(owner, '__name__', owner)}.{attr}"
               for owner, attr, _, _ in table if attr not in owner.__dict__]
    assert not missing, f"patch points missing: {missing}"
