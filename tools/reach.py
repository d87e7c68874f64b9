#!/usr/bin/env python3
"""List the public functions, classes and methods of ``src/`` that nothing runs.

    python3 tools/reach.py

It records every Python function called (``sys.settrace`` and
``threading.settrace``, ``call`` events only) while it drives what the
library is for, all in this process:

* every ``BENCHMARK.json`` workload through ``benchmarks/e2e/run.py
  --seconds 0.5 --setups 1``, at ``--trace 0`` and at ``--trace 1``
  (``MALLOC_ARENA_MAX=1`` is preset, so ``run.py`` does not re-execute
  itself and drop the tracer);
* every script in ``examples/``;
* the doctests of ``docs/*.md``;
* the paper-figure modules (``pytest benchmarks --ignore=benchmarks/e2e
  --benchmark-disable``).

Forked children (the mp backend's shard processes) inherit the tracer; a fork
hook makes each one write what it ran to a spool file just before
``os._exit``.

It then walks ``src/repro`` with ``ast`` and prints every public (no leading
underscore) top-level function, class or method that was never called, with
its line count.  A class none of whose methods ran is one entry; the methods
of a class that ran are entries of their own.  Declarations — bodies of only
a docstring, ``...``, ``pass`` or ``raise NotImplementedError`` — have
nothing to run and are skipped, as are classes without a method that does.

``tools/reach_allowlist.txt`` names what is kept though nothing above runs
it: one ``name | test file | reason`` per line, the name a module
(``repro.sample.distributed``), a class or function
(``repro.graph.graph:Graph.adjacency``).  An entry covers everything inside
it.  The tool exits 1 when an unreached name is not covered, when an entry
names nothing in ``src/`` or a test file that does not exist, or when a
driver fails (its reach would be incomplete).
"""

from __future__ import annotations

import ast
import contextlib
import doctest
import importlib.util
import io
import json
import os
import runpy
import sys
import tempfile
import threading
import time
from dataclasses import dataclass, field
from pathlib import Path

ROOT = Path(__file__).resolve().parents[1]
PACKAGE = ROOT / "src" / "repro"
ALLOWLIST = ROOT / "tools" / "reach_allowlist.txt"
sys.path[:0] = [str(ROOT / "src"), str(ROOT / "tools")]

from which_workloads import workload_names  # noqa: E402


# --------------------------------------------------------------------------- #
# recording what runs
# --------------------------------------------------------------------------- #
class Recorder:
    """The ``(file, first line)`` of every code object called under ``src/repro``."""

    def __init__(self, spool: Path):
        self.spool = spool
        self.codes: set = set()

    def _trace(self, frame, event, arg):
        self.codes.add(frame.f_code)  # no local trace: only call events cost anything

    def start(self) -> None:
        os.register_at_fork(after_in_child=self._in_child)
        threading.settrace(self._trace)
        sys.settrace(self._trace)

    def stop(self) -> None:
        sys.settrace(None)
        threading.settrace(None)

    def _in_child(self) -> None:
        self.codes = set()
        real_exit = os._exit

        def flush_then_exit(status):
            (self.spool / f"{os.getpid()}.json").write_text(json.dumps(sorted(self.locations())))
            real_exit(status)

        os._exit = flush_then_exit

    def locations(self) -> set:
        prefix = str(PACKAGE)
        return {(c.co_filename, c.co_firstlineno) for c in list(self.codes)
                if c.co_filename.startswith(prefix)}

    def collect(self) -> set:
        """This process's locations plus every forked child's."""
        found = self.locations()
        for path in self.spool.glob("*.json"):
            found.update(tuple(entry) for entry in json.loads(path.read_text()))
        return found


@contextlib.contextmanager
def quiet():
    with contextlib.redirect_stdout(io.StringIO()) as out:
        yield out


def drive_workloads() -> list:
    spec = importlib.util.spec_from_file_location("e2e_run", ROOT / "benchmarks" / "e2e" / "run.py")
    run = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(run)
    failures = []
    for name in workload_names():
        for trace in ("0", "1"):
            argv = ["--workload", name, "--seconds", "0.5", "--setups", "1", "--trace", trace]
            with quiet() as out:
                run.main(argv)
            result = json.loads(out.getvalue().strip().splitlines()[-1])
            if not result["correct"]:
                failures.append(f"run.py {' '.join(argv)}: {result['failed']} failed ops")
    return failures


def drive_examples() -> list:
    failures = []
    for script in sorted((ROOT / "examples").glob("*.py")):
        argv = sys.argv
        sys.argv = [str(script)]
        try:
            with quiet():
                runpy.run_path(str(script), run_name="__main__")
        except BaseException as exc:  # noqa: BLE001 - SystemExit included: report, go on
            failures.append(f"{script.relative_to(ROOT)}: {exc!r}")
        finally:
            sys.argv = argv
    return failures


def drive_doctests() -> list:
    failures = []
    for doc in sorted((ROOT / "docs").glob("*.md")):
        with quiet() as out:
            result = doctest.testfile(str(doc), module_relative=False,
                                      optionflags=doctest.NORMALIZE_WHITESPACE)
        if result.failed:
            failures.append(f"{doc.relative_to(ROOT)}: {result.failed} failed\n{out.getvalue()}")
    return failures


def drive_figures() -> list:
    import pytest

    cwd = os.getcwd()
    os.chdir(ROOT)
    try:
        with quiet() as out:
            # A timed benchmark runs with the tracer switched off; a disabled
            # one is called once, traced.
            status = pytest.main(["-q", "-p", "no:cacheprovider", "benchmarks",
                                  "--ignore=benchmarks/e2e", "--benchmark-disable"])
    finally:
        os.chdir(cwd)
    return [] if status == 0 else [f"figure modules: pytest exit {int(status)}\n{out.getvalue()}"]


DRIVERS = (("workloads", drive_workloads), ("examples", drive_examples),
           ("doctests", drive_doctests), ("figure modules", drive_figures))


# --------------------------------------------------------------------------- #
# what could run
# --------------------------------------------------------------------------- #
@dataclass
class Unit:
    """A public function, class or method: ``module:qualname``."""

    name: str
    lines: int
    starts: list = field(default_factory=list)  # (file, first line) of each runnable def
    methods: list = field(default_factory=list)  # a class's units, public or not


def _first_line(node) -> int:
    return min([d.lineno for d in node.decorator_list] + [node.lineno])


def _is_declaration(node) -> bool:
    body = node.body
    if body and isinstance(body[0], ast.Expr) and isinstance(body[0].value, ast.Constant) \
            and isinstance(body[0].value.value, str):
        body = body[1:]

    def empty(stmt) -> bool:
        if isinstance(stmt, ast.Pass):
            return True
        if isinstance(stmt, ast.Expr) and isinstance(stmt.value, ast.Constant):
            return stmt.value.value is Ellipsis
        if isinstance(stmt, ast.Raise) and stmt.exc is not None:
            exc = stmt.exc.func if isinstance(stmt.exc, ast.Call) else stmt.exc
            return isinstance(exc, ast.Name) and exc.id == "NotImplementedError"
        return False

    return all(empty(stmt) for stmt in body)


def _class_unit(path: str, qualname: str, node: ast.ClassDef) -> Unit:
    unit = Unit(qualname, node.end_lineno - _first_line(node) + 1)
    by_name = {}
    for item in node.body:
        if isinstance(item, (ast.FunctionDef, ast.AsyncFunctionDef)):
            method = by_name.setdefault(item.name, Unit(f"{qualname}.{item.name}", 0))
            method.lines += item.end_lineno - _first_line(item) + 1
            if not _is_declaration(item):  # a property's getter and setter are one name
                method.starts.append((path, _first_line(item)))
        elif isinstance(item, ast.ClassDef) and not item.name.startswith("_"):
            unit.methods.append(_class_unit(path, f"{qualname}.{item.name}", item))
    unit.methods.extend(by_name.values())
    unit.starts = [start for method in unit.methods for start in method.starts]
    return unit


def public_units() -> dict:
    """``{module: [Unit]}`` over every module of the package."""
    modules = {}
    for py in sorted(PACKAGE.rglob("*.py")):
        parts = py.relative_to(PACKAGE.parent).with_suffix("").parts
        module = ".".join(parts[:-1] if parts[-1] == "__init__" else parts)
        units = modules[module] = []
        for node in ast.parse(py.read_text(), str(py)).body:
            if getattr(node, "name", "_").startswith("_"):
                continue
            if isinstance(node, ast.ClassDef):
                units.append(_class_unit(str(py), node.name, node))
            elif isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef)) \
                    and not _is_declaration(node):
                units.append(Unit(node.name, node.end_lineno - _first_line(node) + 1,
                                  [(str(py), _first_line(node))]))
    return modules


def unreached(modules: dict, called: set) -> list:
    """``(module:qualname, lines)`` of every public unit nothing called."""
    found = []

    def visit(module, unit, in_class):
        if not unit.starts or (in_class and unit.name.rsplit(".", 1)[-1].startswith("_")):
            return
        if not called.intersection(unit.starts):
            found.append((f"{module}:{unit.name}", unit.lines))
            return
        for method in unit.methods:
            visit(module, method, True)

    for module, units in modules.items():
        for unit in units:
            visit(module, unit, False)
    return found


# --------------------------------------------------------------------------- #
# the allow-list
# --------------------------------------------------------------------------- #
def read_allowlist(modules: dict) -> tuple:
    """``(names, [errors])`` from the allow-list file."""
    entries, errors = set(), []
    names = {f"{module}:{q}" for module, units in modules.items() for q in _qualnames(units)}
    for number, line in enumerate(ALLOWLIST.read_text().splitlines(), 1):
        if not line.strip() or line.startswith("#"):
            continue
        fields = [part.strip() for part in line.split("|")]
        where = f"{ALLOWLIST.relative_to(ROOT)}:{number}"
        if len(fields) != 3 or not all(fields):
            errors.append(f"{where}: expected 'name | test file | reason'")
            continue
        name, test, _ = fields
        if name not in modules and name not in names:
            errors.append(f"{where}: {name} names nothing in src/")
        if not (ROOT / test).is_file():
            errors.append(f"{where}: test file {test} does not exist")
        entries.add(name)
    return entries, errors


def _qualnames(units: list):
    for unit in units:
        yield unit.name
        yield from _qualnames(unit.methods)


def covering(name: str, entries: set):
    """The allow-list entry that covers ``module:qualname``, or ``None``."""
    module, _, qualname = name.partition(":")
    parts = qualname.split(".")
    prefixes = [f"{module}:{'.'.join(parts[:i])}" for i in range(1, len(parts) + 1)]
    return next((c for c in [module] + prefixes if c in entries), None)


def main() -> int:
    os.environ["MALLOC_ARENA_MAX"] = "1"
    failures = []
    with tempfile.TemporaryDirectory(prefix="reach-") as spool:
        recorder = Recorder(Path(spool))
        recorder.start()
        try:
            for label, drive in DRIVERS:
                began = time.perf_counter()
                failures += drive()
                print(f"reach: drove the {label} in {time.perf_counter() - began:.1f} s",
                      file=sys.stderr, flush=True)
        finally:
            recorder.stop()
        called = recorder.collect()

    modules = public_units()
    entries, errors = read_allowlist(modules)
    missing = unreached(modules, called)
    used = set()
    listed = unlisted = 0
    for name, lines in sorted(missing):
        entry = covering(name, entries)
        used.add(entry)
        mark = f"allowed by {entry}" if entry else "NOT LISTED"
        print(f"{lines:>5}  {name:<72} {mark}")
        if entry:
            listed += lines
        else:
            unlisted += lines
            errors.append(f"{name} ({lines} lines) is never called and not on the allow-list")
    for name in sorted(entries - used):
        print(f"note: allow-list entry {name} covers nothing unreached", file=sys.stderr)
    print(f"{len(missing)} public names never called: {listed + unlisted} lines, "
          f"{listed} on the allow-list, {unlisted} not")
    for message in failures:
        print(f"driver failed: {message}", file=sys.stderr)
    for message in errors:
        print(f"error: {message}", file=sys.stderr)
    return 1 if failures or errors else 0


if __name__ == "__main__":
    sys.exit(main())
