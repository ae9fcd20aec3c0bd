"""List the statements of src/blkp that production traffic leaves unrun.

    python3 tools/traffic_lines.py

runs the traffic below under a line trace of src/blkp, then prints each
statement inside a function body that nothing ran, one per line, as
`file:line [function] source`. The traffic:
- each perfbench workload, set up at seed 1, then run, checked and
  scored on its first 6 items (2 for train);
- every `blkp` subcommand through `blkp.cli.main`, in both `--format`s,
  on generated 8 x 8 and 10 x 30 instances, and `blkp solve` on one
  70 x 70 instance file, whose forward runs in chunks;
- the three demos.
Every check of the traffic must pass, or the report is not printed. The
traffic is valid, so the refusal paths are listed too. It runs in a
temporary directory with bytecode writing off, and leaves the checkout
as it was. The tool takes no options, and the report is read, not gated.
"""

import ast
import contextlib
import io
import os
import runpy
import sys
import tempfile
from pathlib import Path

ROOT = Path(__file__).resolve().parents[1]
PACKAGE = ROOT / "src" / "blkp"
ITEMS = {"train": 2}  # items per workload, 6 for any other


def record(traffic, root=PACKAGE):
    """{path: lines} of every file under root, and the lines of it that traffic() ran."""
    root = os.path.join(os.path.realpath(root), "")
    hits, inside = {}, {}

    def line(frame, event, _arg):
        if event == "line":
            hits[frame.f_code.co_filename].add(frame.f_lineno)
        return line

    def call(frame, _event, _arg):
        path = frame.f_code.co_filename
        if path not in inside:
            inside[path] = os.path.realpath(path).startswith(root)
            if inside[path]:
                hits[path] = set()
        return line if inside[path] else None

    previous = sys.gettrace()
    sys.settrace(call)
    try:
        traffic()
    finally:
        sys.settrace(previous)
    ran = {os.path.realpath(path): lines for path, lines in hits.items()}
    return {path: ran.get(str(path), set()) for path in sorted(Path(root).rglob("*.py"))}


def _statements(body, scope, in_function):
    """(statement, function, children) of each statement in body and nested in it.

    Only statements in a function body are listed: a class body or a
    module body runs on import. A def's body is its own function's.
    """
    for node in body:
        if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef, ast.ClassDef)):
            inner = f"{scope}.{node.name}" if scope else node.name
            is_function = not isinstance(node, ast.ClassDef)
            docstring = is_function and ast.get_docstring(node, clean=False) is not None
            yield from _statements(node.body[1:] if docstring else node.body, inner, is_function)
            children = []  # a body runs when it is called, not where it is defined
        else:
            children = [child for field in ("body", "orelse", "finalbody")
                        for child in getattr(node, field, [])]
            children += [child for handler in getattr(node, "handlers", [])
                         for child in handler.body]
            yield from _statements(children, scope, in_function)
        if in_function:
            yield node, scope, children


def unrun(path, ran):
    """(line, function) of each function-body statement in the file at path that did not run.

    A statement ran when a line of its own ran: a simple statement's
    lines, or a compound one's lines up to its body, decorators included.
    A compound statement with a child that ran has run too.
    """
    found = list(_statements(ast.parse(Path(path).read_text()).body, "", False))
    done = set()
    for node, _function, children in found:  # children come before their parent
        first = min([node.lineno] + [d.lineno for d in getattr(node, "decorator_list", [])])
        body = getattr(node, "body", None)
        last = body[0].lineno if body else node.end_lineno + 1
        if ran.intersection(range(first, max(last, first + 1))) or done.intersection(children):
            done.add(node)
    return sorted((node.lineno, function) for node, function, _c in found if node not in done)


def report(hits):
    """The report's lines: `file:line [function] source`, by file and line."""
    out = []
    for path, ran in hits.items():
        source = Path(path).read_text().splitlines()
        name = os.path.relpath(path, ROOT)
        out += [f"{name}:{line} [{function}] {source[line - 1].strip()}"
                for line, function in unrun(path, ran)]
    return out


def _failed(what, failures):
    raise SystemExit(f"traffic_lines.py: {what} failed: {failures}")


def _workloads():
    from workloads import WORKLOADS

    for name, workload in WORKLOADS.items():
        wl = workload()
        state = wl.setup(1)
        state.items = state.items[:ITEMS.get(name, 6)]
        outputs = [wl.run(state, item) for item in state.items]
        bad = [msg for item, out in zip(state.items, outputs)
               for msg in wl.check(state, item, out)]
        bad += state.reference_failures + wl.quality(state, outputs)["failures"]
        if bad:
            _failed(name, bad)


def _cli():
    from blkp.cli import main

    def blkp(*args):
        args = [str(a) for a in args]
        if main(args):
            _failed("blkp " + " ".join(args), "exit status 1")

    for n1, n2 in ((8, 8), (10, 30)):
        blkp("generate", "--n1", n1, "--n2", n2, "--count", 3, "--seed", n2, "--out", n2)
        blkp("generate", "--n1", n1, "--n2", n2, "--data-type", "C", "--out", n2)
        for fmt, mode in (("tsv", "optimistic"), ("json", "pessimistic")):
            args = ("--instances", n2, "--mode", mode, "--format", fmt)
            blkp("exact", *args, "--out", f"exact_{n2}.{fmt}")
            blkp("label", *args, "--out", f"labels_{n2}.{fmt}")
            blkp("train", "--instances", n2, "--labels", f"labels_{n2}.{fmt}", "--epochs", 2,
                 "--split", 0.5, "--history", f"history_{n2}.tsv", "--out", f"model_{n2}.json")
            blkp("solve", "--instance", n2, "--checkpoint", f"model_{n2}.json", "--mode", mode,
                 "--format", fmt)
            blkp("bench", *args, "--checkpoint", f"model_{n2}.json", "--out", f"bench_{n2}.{fmt}")
    blkp("generate", "--n1", 70, "--n2", 70, "--out", 70)
    blkp("solve", "--instance", next(Path("70").glob("*.json")), "--checkpoint", "model_8.json")


def _demos():
    for demo in sorted((ROOT / "demos").glob("*.py")):
        runpy.run_path(str(demo), run_name="__main__")


def traffic():
    """The production traffic, in a temporary directory; its output is dropped."""
    cwd = os.getcwd()
    with tempfile.TemporaryDirectory() as work, contextlib.redirect_stdout(io.StringIO()):
        os.chdir(work)
        try:
            _workloads()
            _cli()
            _demos()
        finally:
            os.chdir(cwd)


def main():
    if len(sys.argv) > 1:
        sys.exit("traffic_lines.py takes no options")
    sys.dont_write_bytecode = True
    sys.path[:0] = [str(ROOT / "src"), str(ROOT / "perfbench")]
    lines = report(record(traffic))
    print("\n".join(lines))
    print(f"{len(lines)} function-body statements of {os.path.relpath(PACKAGE, ROOT)} unrun")


if __name__ == "__main__":
    main()
