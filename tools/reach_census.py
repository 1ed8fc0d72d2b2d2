"""Reach census: the lines of src/shjlab that only unit tests reach.

Usage (from the repository root):

    python tools/reach_census.py

A line tracer (``sys.settrace`` and ``threading.settrace``), filtered to
src/shjlab, records the lines two phases run:

1. the system: every demo, every CLI pipeline on every scenario at
   n_steps=8, n_paths=300 (each must exit 0, or 2 where
   ``coeffs.inapplicable_pipelines`` says the pipeline does not apply),
   one of those runs again through the entry point ``cli.main`` with
   every flag set, the workload configs of
   perfbench/workloads.py, and tests/test_acceptance.py;
2. the unit tests: tests/ without the acceptance module and without
   tests/test_demos.py, whose subprocesses the tracer cannot see (phase 1
   runs the demos itself).

Hypothesis runs derandomized, so the census is the same on every run.
The report lists, per module, the lines reached only by the unit tests
and the lines reached by nothing.  The exit code is 1 when a line
reached by nothing is not a guard (a ``raise``, or the ``if`` or
``except`` clause whose body ends in one), or when a phase fails; else 0.
"""

from __future__ import annotations

import ast
import contextlib
import inspect
import os
import runpy
import sys
import tempfile
import threading
import time
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
PACKAGE = ROOT / "src" / "shjlab"
sys.path.insert(0, str(ROOT / "src"))
sys.path.insert(0, str(ROOT / "perfbench"))

# code objects whose first line is their own body, not a def line
INLINE = {"<lambda>", "<listcomp>", "<setcomp>", "<dictcomp>", "<genexpr>"}


class LineTracer:
    """Records (module file name, line) of every line run under src/shjlab."""

    def __init__(self):
        self.lines = set()
        self._ours = {}          # co_filename -> module file name or None

    def _module(self, filename):
        if filename not in self._ours:
            path = Path(os.path.abspath(filename))
            self._ours[filename] = (path.name if path.parent == PACKAGE
                                    else None)
        return self._ours[filename]

    def _call(self, frame, event, arg):
        name = self._module(frame.f_code.co_filename)
        if name is None:
            return None

        def line(frame, event, arg):
            if event == "line":
                self.lines.add((name, frame.f_lineno))
            return line
        return line

    @contextlib.contextmanager
    def tracing(self):
        threading.settrace(self._call)
        sys.settrace(self._call)
        try:
            yield
        finally:
            sys.settrace(None)
            threading.settrace(None)


def _code_objects(code):
    yield code
    for const in code.co_consts:
        if inspect.iscode(const):
            yield from _code_objects(const)


def executable_lines(path):
    """Lines of function bodies that carry bytecode.  Module and class
    bodies run at import and are left out, and so is each def line."""
    lines = set()
    for code in _code_objects(compile(path.read_text(), str(path), "exec")):
        if not code.co_flags & inspect.CO_OPTIMIZED:
            continue
        body = {line for *_, line in code.co_lines() if line is not None}
        if code.co_name not in INLINE:
            body.discard(code.co_firstlineno)
        lines |= body
    return lines


def guard_lines(path):
    """Lines of each raise statement, and the header of each if or except
    clause whose body ends in a raise."""
    lines = set()
    for node in ast.walk(ast.parse(path.read_text(), str(path))):
        if isinstance(node, ast.Raise):
            lines.update(range(node.lineno, node.end_lineno + 1))
        elif (isinstance(node, (ast.If, ast.ExceptHandler))
              and isinstance(node.body[-1], ast.Raise)):
            head = node.test if isinstance(node, ast.If) else node.type
            end = head.end_lineno if head is not None else node.lineno
            lines.update(range(node.lineno, end + 1))
    return lines


def _pytest(args):
    import pytest
    # hypothesis is imported before pytest starts, to load the profile, so
    # pytest warns that it cannot rewrite its asserts
    return pytest.main(["-q", "-p", "no:cacheprovider",
                        "-W", "ignore::pytest.PytestAssertRewriteWarning",
                        *args])


def run_system(work):
    """Phase 1; returns the names of the parts that failed."""
    from shjlab.cli import PIPELINES, ExperimentConfig, main, run
    from shjlab.coeffs import inapplicable_pipelines, scenario_names
    from workloads import WORKLOADS

    failed = []
    for demo in sorted((ROOT / "demos").glob("*.py")):
        cwd = os.getcwd()
        os.chdir(work)
        try:
            runpy.run_path(str(demo), run_name="__main__")
        finally:
            os.chdir(cwd)
    for pipeline in PIPELINES:
        for name in scenario_names():
            cfg = ExperimentConfig(scenario=name, n_steps=8, n_paths=300)
            code, _ = run(cfg, pipeline, os.path.join(work, pipeline, name),
                          workers=2)
            # every pipeline passes at this size where it applies, and is
            # refused where the scenario's table says it does not
            expect = 2 if pipeline in inapplicable_pipelines(name) else 0
            if code != expect:
                failed.append(f"pipeline {pipeline} on {name}: exit {code}, "
                              f"expected {expect}")
    config = os.path.join(work, "main.json")
    with open(config, "w") as fh:
        fh.write(ExperimentConfig(n_steps=8, n_paths=300).to_json())
    code = main(["--config", config, "--out", os.path.join(work, "main"),
                 "--pipeline", "simulate", "--scenario", "linear-drift",
                 "--seed", "5", "--workers", "1"])
    if code:
        failed.append(f"cli.main: exit {code}")
    for w in WORKLOADS.values():
        code, _ = run(ExperimentConfig(**w.config), w.pipeline,
                      os.path.join(work, "workload", w.name), workers=2)
        if code:
            failed.append(f"workload {w.name}: exit {code}")
    if _pytest([str(ROOT / "tests" / "test_acceptance.py")]):
        failed.append("tests/test_acceptance.py")
    return failed


def run_unit_tests():
    if _pytest([str(ROOT / "tests"),
                "--ignore", str(ROOT / "tests" / "test_acceptance.py"),
                "--ignore", str(ROOT / "tests" / "test_demos.py")]):
        return ["unit tests"]
    return []


def _ranges(lines):
    """'3-5, 9' for [3, 4, 5, 9], runs of consecutive lines merged."""
    out, start = [], None
    for a, b in zip(lines, lines[1:] + [None]):
        start = a if start is None else start
        if b != a + 1:
            out.append(str(a) if start == a else f"{start}-{a}")
            start = None
    return ", ".join(out)


def report(title, by_module):
    print(f"{title}: {sum(map(len, by_module.values()))} lines")
    for name, lines in sorted(by_module.items()):
        if lines:
            print(f"  {name}: {_ranges(sorted(lines))}")


def main():
    from hypothesis import settings
    settings.register_profile("reach-census", derandomize=True)
    settings.load_profile("reach-census")

    system, unit = LineTracer(), LineTracer()
    failed = []
    with tempfile.TemporaryDirectory() as work, \
            contextlib.redirect_stdout(sys.stderr):
        for tracer, phase in ((system, lambda: run_system(work)),
                              (unit, run_unit_tests)):
            start = time.perf_counter()
            with tracer.tracing():
                failed += phase()
            print(f"[reach census] phase took "
                  f"{time.perf_counter() - start:.1f} s", file=sys.stderr)

    total = 0
    unit_only, guarded, unguarded = {}, {}, {}
    for path in sorted(PACKAGE.glob("*.py")):
        lines = executable_lines(path)
        total += len(lines)
        ran = {ln for name, ln in system.lines if name == path.name}
        tested = {ln for name, ln in unit.lines if name == path.name}
        guards = guard_lines(path)
        never = lines - ran - tested
        unit_only[path.name] = (lines & tested) - ran
        guarded[path.name] = never & guards
        unguarded[path.name] = never - guards

    print(f"reach census of src/shjlab: {total} executable lines")
    report("reached only by unit tests", unit_only)
    report("reached by nothing, guards", guarded)
    report("reached by nothing, not guards", unguarded)
    for what in failed:
        print(f"failed: {what}")
    return 1 if failed or any(unguarded.values()) else 0


if __name__ == "__main__":
    sys.exit(main())
