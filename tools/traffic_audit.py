"""List the statements of ``edmshrink``'s functions that traffic never runs.

Usage: python tools/traffic_audit.py [SRC]

SRC is a checkout of this repository or its ``src`` directory, by default
the checkout this script is in. In one process, under the standard
library's ``trace.Trace(count=1)``, the script runs one round of each
workload that ``BENCHMARK.json`` names, at seed 1, as
``edmbench/workloads.py``'s ``prepare`` builds it, then every invocation
of ``cmp_sweep.SWEEP``. It then prints, for each function and method in
``src/edmshrink``, the statements that never ran, and counts them;
module-level and class-level code is skipped. A statement ran when any
line of it did; a compound statement is its header, the test of an
``if`` or the iterator of a ``for``, and ``try`` has none of its own.
Everything it writes goes under one temporary directory, which it
removes.
"""

from __future__ import annotations

import os

# one BLAS thread, as the benchmark runs, set before numpy is imported
for _var in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS"):
    os.environ[_var] = "1"

import ast  # noqa: E402
import contextlib  # noqa: E402
import io  # noqa: E402
import json  # noqa: E402
import sys  # noqa: E402
import tempfile  # noqa: E402
import trace  # noqa: E402
import traceback  # noqa: E402
import warnings  # noqa: E402
from pathlib import Path  # noqa: E402

import numpy as np  # noqa: E402

ROOT = Path(__file__).resolve().parent.parent
sys.path[:0] = [str(ROOT / "tools"), str(ROOT / "edmbench")]

import cmp_sweep  # noqa: E402


def _invoke(cli, argv: list[str]) -> int:
    """One CLI invocation, its stdout dropped; exit codes as the shell sees
    them, and an exception reported as exit 1."""
    try:
        with contextlib.redirect_stdout(io.StringIO()):
            return cli.main(argv)
    except SystemExit as exc:
        return exc.code if isinstance(exc.code, int) else 1
    except Exception:  # the audit goes on, and the exit code shows it
        traceback.print_exc(file=sys.stderr)
        return 1


def traffic(tmp: Path) -> list[tuple[str, int]]:
    """Run the workloads and the sweep; (name, exit code) of each."""
    import workloads
    from edmshrink import cli

    names = [w["name"] for w in
             json.loads((ROOT / "BENCHMARK.json").read_text())["workloads"]]
    codes = []
    for name in names:
        work = tmp / name
        work.mkdir()
        ops = workloads.WORKLOADS[name]().prepare(work, 1)
        for j, argv in enumerate(ops):
            workloads.op_dir(work, j).mkdir()
            codes.append((f"{name} op{j}", _invoke(cli, argv)))
    inputs, out = tmp / "inputs", tmp / "sweep"
    inputs.mkdir()
    out.mkdir()
    values = cmp_sweep.write_inputs(inputs)
    for name, argv in cmp_sweep.sweep_args(inputs, out, values):
        codes.append((name, _invoke(cli, argv)))
    return codes


_FUNCTIONS = (ast.FunctionDef, ast.AsyncFunctionDef)


def _header(stmt: ast.stmt) -> range | None:
    """The lines that run a statement itself: all of a simple one, the
    header of a compound one, and none for ``try``."""
    if isinstance(stmt, (ast.If, ast.While)):
        return range(stmt.lineno, stmt.test.end_lineno + 1)
    if isinstance(stmt, (ast.For, ast.AsyncFor)):
        return range(stmt.lineno, stmt.iter.end_lineno + 1)
    if isinstance(stmt, (ast.With, ast.AsyncWith)):
        return range(stmt.lineno, stmt.items[-1].context_expr.end_lineno + 1)
    if isinstance(stmt, ast.Match):
        return range(stmt.lineno, stmt.subject.end_lineno + 1)
    if isinstance(stmt, _FUNCTIONS + (ast.ClassDef,)):
        first = min([d.lineno for d in stmt.decorator_list] + [stmt.lineno])
        return range(first, stmt.lineno + 1)
    if isinstance(stmt, ast.Try):
        return None
    return range(stmt.lineno, stmt.end_lineno + 1)


def _statements(body: list[ast.stmt]):
    """The statements of a function body, nested blocks included, nested
    functions and classes as their ``def`` or ``class`` line only."""
    for stmt in body:
        yield stmt
        if isinstance(stmt, _FUNCTIONS + (ast.ClassDef,)):
            continue
        for field in ("body", "orelse", "finalbody"):
            yield from _statements(getattr(stmt, field, []))
        blocks = getattr(stmt, "handlers", []) + getattr(stmt, "cases", [])
        for block in blocks:
            yield from _statements(block.body)


def _functions(body: list[ast.stmt], prefix: str = ""):
    """(qualified name, node) of every function and method in ``body``,
    each before the functions nested in it."""
    for node in body:
        if isinstance(node, _FUNCTIONS):
            yield prefix + node.name, node
            nested = [s for s in _statements(node.body)
                      if isinstance(s, _FUNCTIONS + (ast.ClassDef,))]
            yield from _functions(nested, f"{prefix}{node.name}.")
        elif isinstance(node, ast.ClassDef):
            yield from _functions(node.body, f"{prefix}{node.name}.")


def audit(module: Path, ran: set[int]):
    """(function, statements, [(line, text) of each that never ran]) for
    every function of ``module``, where ``ran`` holds the lines that ran."""
    text = module.read_text(encoding="utf-8")
    lines = text.splitlines()
    for name, node in _functions(ast.parse(text).body):
        body = node.body
        if (isinstance(body[0], ast.Expr)
                and isinstance(body[0].value, ast.Constant)
                and isinstance(body[0].value.value, str)):
            body = body[1:]  # the docstring runs no code
        spans = [span for span in map(_header, _statements(body)) if span]
        missed = [(span[0], lines[span[0] - 1].strip()) for span in spans
                  if ran.isdisjoint(span)]
        yield name, len(spans), missed


def main(argv: list[str]) -> int:
    if len(argv) > 1:
        print(__doc__.strip().splitlines()[2], file=sys.stderr)
        return 2
    src = cmp_sweep.src_dir(argv[0] if argv else str(ROOT))
    sys.path.insert(0, str(src))
    # edmshrink is first imported under the tracer, so that the functions
    # its modules call at import count as run
    tracer = trace.Trace(count=1, trace=0, ignoredirs=[
        sys.prefix, sys.exec_prefix, str(Path(np.__file__).parent.parent)])
    with tempfile.TemporaryDirectory(prefix="traffic_audit_") as tmp, \
            warnings.catch_warnings():
        warnings.simplefilter("ignore")
        codes = tracer.runfunc(traffic, Path(tmp))
    package = Path(sys.modules["edmshrink"].__file__).resolve().parent
    if package != (src / "edmshrink").resolve():
        sys.exit(f"imported edmshrink from {package}, not from {src}")
    print("traffic: " + ", ".join(f"{n} exit {c}" for n, c in codes))
    ran: dict[str, set[int]] = {}
    for filename, line in tracer.results().counts:
        ran.setdefault(str(Path(filename).resolve()), set()).add(line)
    missed_all = total_all = functions = 0
    for module in sorted(package.glob("*.py")):
        print(module.relative_to(src))
        for name, total, missed in audit(module, ran.get(str(module), set())):
            total_all += total
            if not missed:
                continue
            missed_all += len(missed)
            functions += 1
            if len(missed) == total:
                print(f"  {name}: never called ({total} statements)")
                continue
            print(f"  {name}: {len(missed)} of {total} statements never ran")
            for line, text in missed:
                print(f"    {line}: {text}")
    print(f"{missed_all} of {total_all} function statements never ran, "
          f"in {functions} functions")
    return 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
