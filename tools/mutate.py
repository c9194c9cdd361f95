"""Check that the tests kill a committed list of source mutations.

Usage: python tools/mutate.py [TREE]

TREE is a checkout of this repository, by default the one this script is
in, or, if it is not a directory, a git revision of this repository,
whose ``src``, ``tests`` and ``pyproject.toml`` are exported with
``git archive`` by ``cmp_sweep.export``, which exports ``src`` for
``tools/cmp_sweep.py``. Everything is copied into one temporary
directory, which the script removes; the tree itself is only read.

Each mutant in ``MUTANTS`` is an exact edit of one file, ``old`` to
``new``, where ``old`` must occur exactly once, and the test ids that
must fail on it. The script first runs every listed id on the unmutated
copy, which must pass. Then, for each mutant, it applies the edit, runs
the mutant's ids with pytest, prints ``killed`` or ``survived``, and
restores the file. A run that times out counts as killed. The script
exits 1 if any mutant survives, and 2 if a mutant's ``old`` text is not
found once or the unmutated copy fails.
"""

from __future__ import annotations

import os
import shutil
import subprocess
import sys
import tempfile
from pathlib import Path
from typing import NamedTuple

ROOT = Path(__file__).resolve().parent.parent
sys.path.insert(0, str(ROOT / "tools"))

import cmp_sweep  # noqa: E402

PARTS = ("src", "tests", "pyproject.toml")
TIMEOUT_S = 300


class Mutant(NamedTuple):
    name: str
    file: str
    old: str
    new: str
    tests: tuple[str, ...]


CORE = "src/edmshrink/core.py"
PROJECTION = "src/edmshrink/projection.py"
FILEIO = "src/edmshrink/fileio.py"
G17 = "src/edmshrink/g17.py"
SIMULATE = "src/edmshrink/simulate.py"

MUTANTS = [
    # Embedding.from_points, the one reader of raw coordinates
    Mutant("from_points: one centering pass", CORE,
           "            c -= c.mean(axis=0)\n", "",
           ("tests/test_core.py::TestEdmFromCoords::"
            "test_from_points_centers_any_offset",)),
    Mutant("from_points: no errstate around the passes", CORE,
           'with np.errstate(over="ignore", invalid="ignore"):\n'
           "            c = p - p.mean(axis=0)",
           "if True:\n            c = p - p.mean(axis=0)",
           ("tests/test_core.py::TestEdmFromCoords::"
            "test_points_out_of_range_raise_without_warning",)),
    Mutant("edm_from_coords: an array not through from_points", CORE,
           "(p if isinstance(p, Embedding) else Embedding.from_points(p))"
           ".coords",
           "p.coords if isinstance(p, Embedding) else np.asarray(p, float)",
           ("tests/test_core.py::TestEdmFromCoords::"
            "test_from_points_centers_any_offset",)),
    # g17: fixed notation at k = 16 has no point, so its zeros stay
    Mutant("g17: no k = 16 exclusion", G17,
           "if kg == 16:  # 17 digits", "if False:  # 17 digits",
           ("tests/test_fileio.py::TestFormat17g",)),
    # g17: %g drops a point left bare by the strip of trailing zeros
    Mutant("g17: no bare-point strip", G17,
           'np.char.rstrip(np.char.rstrip(text[zero], b"0"), b".")',
           'np.char.rstrip(text[zero], b"0")',
           ("tests/test_fileio.py::TestFormat17g",)),
    # g17: the zeros are those of the digits, not of the exponent
    Mutant("g17: strip after the exponent is appended", G17,
           '    text[zero] = np.char.rstrip(np.char.rstrip(text[zero], b"0"),'
           ' b".")\n'
           "    for r0, r1 in sci:\n"
           "        text[r0:r1] = np.char.add(text[r0:r1],\n"
           "                                  _EXPONENTS.take(k[r0:r1] + 330))\n",
           "    for r0, r1 in sci:\n"
           "        text[r0:r1] = np.char.add(text[r0:r1],\n"
           "                                  _EXPONENTS.take(k[r0:r1] + 330))\n"
           '    text[zero] = np.char.rstrip(np.char.rstrip(text[zero], b"0"),'
           ' b".")\n',
           ("tests/test_fileio.py::TestFormat17g",)),
    # symmetrize: the half-sum where a + a.T overflows
    Mutant("symmetrize: no overflow branch", CORE,
           "np.add(half, half.T, out=s, where=np.isinf(s))", "pass",
           ("tests/test_core.py::TestSymmetrize",)),
    # _row_blocks: a block of a symmetric matrix spans one row too many
    Mutant("_row_blocks: off by one", FILEIO,
           "rows = min(rows, _BLOCK_ROWS)", "rows = min(rows, _BLOCK_ROWS + 1)",
           ("tests/test_fileio.py::TestWriterMatchesSavetxt::"
            "test_row_blocks_tile_the_rows_within_their_bounds",)),
    # _text: each entry takes the text of its own distinct value
    Mutant("_text: text taken by a shifted index", FILEIO,
           "table.take(index)", "table.take(index - 1)",
           ("tests/test_fileio.py::TestWriterMatchesSavetxt",)),
    # _replicate: the fit starts from the spectrum the baseline read
    Mutant("_replicate: the fit starts cold", SIMULATE,
           "cfg.solver, start)[:2]", "cfg.solver, None)[:2]",
           ("tests/test_simulate.py::TestRunExperiment::"
            "test_noiseless_unpenalized_fit_needs_no_evaluation",
            "tests/test_simulate.py::TestRunExperiment::"
            "test_matches_the_separate_methods")),
    # kruskal_stress: a norm whose sum of squares overflows
    Mutant("kruskal_stress: numpy's norm of the reference", CORE,
           "denom = _frobenius(truth.entries)",
           "denom = float(np.linalg.norm(truth.entries))",
           ("tests/test_core.py::TestMetrics::"
            "test_stress_where_the_sum_of_squares_overflows",)),
    # _lead_positive: the sign that makes each leading entry positive
    Mutant("_lead_positive: sign rule reversed", CORE,
           "np.where(lead < 0, -vecs, vecs)", "np.where(lead > 0, -vecs, vecs)",
           ("tests/test_core.py::TestEighContract",)),
    # _project_from: one stop rule, at the first point that meets it
    Mutant("_project_from: a line point meeting the rule is evaluated",
           PROJECTION,
           "        if gnorm <= floor or cycles >= cfg.max_cycles:\n"
           "            break\n",
           "        if (gnorm <= floor and pt is last\n"
           "                or cycles >= cfg.max_cycles):\n"
           "            break\n"
           "        if gnorm <= floor:\n"
           "            pt = last = _evaluate(a, eta, pt.z)\n"
           "            cycles += 1\n"
           "            continue\n",
           ("tests/test_projection.py::TestConstantStart::"
            "test_start_meeting_the_rule_is_decomposed_once",
            "tests/test_projection.py::TestConstantStart::"
            "test_line_point_meeting_the_rule_closes_the_fit")),
    Mutant("_project_from: no convergence closes on the line point",
           PROJECTION,
           "    if not converged:\n        pt = last\n",
           "    if not converged and pt.vals is None:\n        pt = last\n",
           ("tests/test_projection.py::TestLineStep::"
            "test_not_converged_at_a_line_point",)),
    Mutant("_project_from: failure reason not read from cycles", PROJECTION,
           '"no accepted step" if cycles < cfg.max_cycles',
           '"no accepted step" if False',
           ("tests/test_projection.py::TestProjectEdmCone::"
            "test_no_accepted_step_says_so",)),
    # _dual_point: the row means of X + Diag z in c
    Mutant("_dual_point: no row-means term", PROJECTION,
           "c = a.mean(axis=1) + z / z.size", "c = z / z.size",
           ("tests/test_projection.py::TestDualPointFormula",)),
    # _weyl_rank: each eigenvalue may move by err
    Mutant("_weyl_rank: no Weyl margin", CORE,
           "above = spectrum - err > tol * (top + err)",
           "above = spectrum > tol * top",
           ("tests/test_core.py::TestFactoredCertificate",)),
]


def export(tree: str, folder: Path) -> Path:
    """A copy of ``PARTS`` of ``tree`` in ``folder``: of the checkout if
    ``tree`` is a directory, else of the commit it names."""
    path = Path(tree)
    if path.is_dir():
        for part in PARTS:
            source = path / part
            if source.is_dir():
                shutil.copytree(source, folder / part, ignore=shutil.ignore_patterns(
                    "__pycache__", ".hypothesis", ".pytest_cache"))
            else:
                shutil.copy2(source, folder / part)
    else:
        cmp_sweep.export(tree, folder, PARTS)
    return folder


def run_tests(copy: Path, ids) -> str:
    """``passed``, ``failed``, ``timeout`` or ``error <exit code>`` and
    pytest's last line of output, of pytest on ``ids`` in ``copy``."""
    env = dict(os.environ, PYTHONPATH=str(copy / "src"),
               PYTHONDONTWRITEBYTECODE="1", OMP_NUM_THREADS="1",
               OPENBLAS_NUM_THREADS="1", MKL_NUM_THREADS="1")
    try:
        proc = subprocess.run(
            [sys.executable, "-m", "pytest", "-q", "-x", "-p",
             "no:cacheprovider", *ids],
            cwd=copy, env=env, capture_output=True, timeout=TIMEOUT_S)
    except subprocess.TimeoutExpired:
        return "timeout"
    if proc.returncode in (0, 1):
        return "passed" if proc.returncode == 0 else "failed"
    lines = (proc.stdout + proc.stderr).decode(errors="replace").splitlines()
    return f"error {proc.returncode}: {lines[-1] if lines else ''}"


def main(argv: list[str]) -> int:
    if len(argv) > 1:
        print(__doc__.strip().splitlines()[2], file=sys.stderr)
        return 2
    with tempfile.TemporaryDirectory(prefix="mutate_") as tmp:
        copy = export(argv[0] if argv else str(ROOT), Path(tmp))
        for m in MUTANTS:
            found = (copy / m.file).read_text(encoding="utf-8").count(m.old)
            if found != 1:
                print(f"{m.name}: old text found {found} times in {m.file}",
                      file=sys.stderr)
                return 2
        ids = sorted({t for m in MUTANTS for t in m.tests})
        outcome = run_tests(copy, ids)
        if outcome != "passed":
            print(f"unmutated tree: {outcome}", file=sys.stderr)
            return 2
        survived = 0
        for m in MUTANTS:
            target = copy / m.file
            text = target.read_text(encoding="utf-8")
            target.write_text(text.replace(m.old, m.new), encoding="utf-8")
            try:
                outcome = run_tests(copy, m.tests)
            finally:
                target.write_text(text, encoding="utf-8")
            if outcome.startswith("error"):
                print(f"{m.name}: pytest {outcome}", file=sys.stderr)
                return 2
            verdict = "survived" if outcome == "passed" else "killed"
            survived += verdict == "survived"
            print(f"{verdict:8}  {m.name}"
                  + (" (timeout)" if outcome == "timeout" else ""))
    print(f"{len(MUTANTS)} mutants, {survived} survived")
    return 1 if survived else 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
