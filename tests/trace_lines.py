"""List the statements of ``src/tsbm`` that no tier-1 test runs.

Runs the tier-1 suite in this process under a ``sys.settrace`` line tracer
that follows only frames of ``src/tsbm`` files, then prints each
executable statement that never ran as ``file:line: source``.  Work done
in child processes (``subprocess`` runs, ``--jobs 2`` pools) is not seen.
Takes a few minutes, several times the suite's own time::

    PYTHONPATH=src python tests/trace_lines.py [extra pytest arguments]

This file is not a test module: pytest collects ``test_*.py`` only.
"""

import ast
import os
import sys
import threading

import pytest

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
SRC = os.path.join(ROOT, "src", "tsbm")


def _code_lines(code):
    """Every line that some instruction of ``code`` or its nested code
    objects belongs to."""
    lines = {line for _, _, line in code.co_lines() if line is not None}
    for const in code.co_consts:
        if hasattr(const, "co_lines"):
            lines |= _code_lines(const)
    return lines


def _statements(path):
    """``(first, last)`` line spans of the statements in ``path`` that
    compile to instructions; a compound statement spans its header only,
    and docstrings of functions and classes are left out."""
    with open(path) as fh:
        source = fh.read()
    tree = ast.parse(source)
    code = _code_lines(compile(source, path, "exec"))
    docstrings = {
        id(node.body[0]) for node in ast.walk(tree)
        if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef, ast.ClassDef))
        and isinstance(node.body[0], ast.Expr) and isinstance(node.body[0].value, ast.Constant)
    }
    spans = []
    for node in ast.walk(tree):
        if not isinstance(node, ast.stmt) or id(node) in docstrings:
            continue
        first = min([node.lineno] + [d.lineno for d in getattr(node, "decorator_list", [])])
        body = getattr(node, "body", None)
        last = body[0].lineno - 1 if body else node.end_lineno
        last = max(last, node.lineno)
        if code & set(range(first, last + 1)):
            spans.append((first, last))
    return sorted(spans)


def main(argv):
    hits, ours = {}, {}  # lines run per code file name; whether that file is under SRC

    def local(frame, event, arg):
        if event == "line":
            hits.setdefault(frame.f_code.co_filename, set()).add(frame.f_lineno)
        return local

    def on_call(frame, event, arg):
        name = frame.f_code.co_filename
        if name not in ours:
            ours[name] = os.path.abspath(name).startswith(SRC + os.sep)
        return local if ours[name] else None

    threading.settrace(on_call)
    sys.settrace(on_call)
    try:
        status = pytest.main(["-q", "-p", "no:cacheprovider", os.path.join(ROOT, "tests"),
                              *argv])
    finally:
        sys.settrace(None)
        threading.settrace(None)
    ran_in = {}
    for name, lines in hits.items():
        ran_in.setdefault(os.path.abspath(name), set()).update(lines)
    missed = 0
    for name in sorted(os.listdir(SRC)):
        if not name.endswith(".py"):
            continue
        path = os.path.join(SRC, name)
        ran = ran_in.get(path, set())
        with open(path) as fh:
            lines = fh.read().splitlines()
        for first, last in _statements(path):
            if not ran & set(range(first, last + 1)):
                missed += 1
                print(f"{os.path.relpath(path, ROOT)}:{first}: {lines[first - 1].strip()}")
    print(f"{missed} statements not run")
    return int(status)


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
