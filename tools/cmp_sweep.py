"""Compare the CLI outputs of two source trees byte for byte.

Usage: python tools/cmp_sweep.py PARENT_SRC CHANGE_SRC

Each argument is a checkout of this repository or its ``src`` directory.
The script writes a fixed set of inputs, runs the same list of
``edmshrink`` invocations against each tree in a fresh interpreter, and
compares every output file, the exit code and stdout of each. It prints
each tree's total and code-only line counts of ``src/edmshrink``, the
latter without docstrings, comments and blank lines, and exits 1 on any
difference. Everything it writes goes under one temporary directory,
which it removes; the trees are only read, with bytecode writing off.
"""

from __future__ import annotations

import ast
import io
import math
import os
import subprocess
import sys
import tempfile
import tokenize
from pathlib import Path

import numpy as np

# (name, argv) with the placeholders {in} for the input directory and
# {out} for the output directory of the run
SWEEP = [
    ("estimate-grid-n200",
     ["estimate", "--input", "{in}/n200.csv", "--lambda-grid",
      "{grid}", "--out", "{out}/est"]),
    ("estimate-sigma-n37-3e17",
     ["estimate", "--input", "{in}/n37_3e17.csv", "--sigma", "3e16",
      "--rank", "2", "--out", "{out}/sig"]),
    ("mds-n200",
     ["mds", "--input", "{in}/n200.csv", "--rank", "3", "--out", "{out}/mds"]),
    ("convert-integer",
     ["convert", "--input", "{in}/similarity.csv", "--out", "{out}/conv.csv"]),
    ("estimate-converted",
     ["estimate", "--input", "{out}/conv.csv", "--lambda", "40",
      "--out", "{out}/conv"]),
    ("simulate-gaussian-json",
     ["simulate", "--helix", "40", "--noise", "gaussian", "--sigma2", "0.25",
      "--sigma", "0.5", "--reps", "3", "--seed", "7",
      "--out", "{out}/sim.json"]),
    ("simulate-gamma-csv",
     ["simulate", "--helix", "30", "--noise", "gamma", "--lambda", "2.5",
      "--reps", "3", "--seed", "3", "--out-format", "csv",
      "--out", "{out}/sim.csv"]),
    ("dim3", ["dim3", "--input", "{in}/three.csv", "--out", "{out}/dim3.json"]),
    ("dim3-stdout", ["dim3", "--input", "{in}/three.csv"]),
]


def _write_csv(path: Path, a: np.ndarray) -> None:
    with open(path, "w", encoding="utf-8") as fh:
        for row in a:
            fh.write(",".join(format(v, ".17g") for v in row) + "\n")


def _helix_edm(n: int) -> np.ndarray:
    t = np.linspace(0.0, 6.0 * np.pi, n)
    p = np.column_stack((0.3 * np.cos(t), 0.3 * np.sin(t),
                         0.3 * t / (2.0 * np.pi)))
    return ((p[:, None, :] - p[None, :, :]) ** 2).sum(axis=-1)


def _noisy(d: np.ndarray, sigma: float, seed: int) -> np.ndarray:
    n = d.shape[0]
    rng = np.random.default_rng([seed, n])
    noise = np.zeros((n, n))
    iu = np.triu_indices(n, k=1)
    noise[iu] = rng.normal(0.0, sigma, size=iu[0].size)
    return d + noise + noise.T


def write_inputs(folder: Path) -> dict:
    """The sweep's inputs, and the values its argv refers to."""
    _write_csv(folder / "n200.csv", _noisy(_helix_edm(200), 0.5, 0))
    _write_csv(folder / "n37_3e17.csv", 3e17 * _noisy(_helix_edm(37), 0.5, 1))
    rng = np.random.default_rng(5)
    s = rng.integers(-20, 60, size=(120, 120))
    _write_csv(folder / "similarity.csv", (s + s.T).astype(float))
    _write_csv(folder / "three.csv",
               np.array([[0.0, 1.5, 2.25], [1.5, 0.0, 0.7], [2.25, 0.7, 0.0]]))
    lam = 4.0 * 0.5 * (math.sqrt(200) + 1.0)
    return {"grid": ",".join(repr(f * lam) for f in (0.5, 1.0, 2.0))}


def src_dir(tree: str) -> Path:
    path = Path(tree).resolve()
    if (path / "src" / "edmshrink").is_dir():
        path = path / "src"
    if not (path / "edmshrink").is_dir():
        sys.exit(f"{tree}: no edmshrink package there or under src/")
    return path


def line_counts(src: Path) -> tuple[int, int]:
    """Total lines of the package's modules, and those that hold code:
    lines with a token that is not a comment, a docstring or layout."""
    total = code = 0
    for module in sorted((src / "edmshrink").glob("*.py")):
        text = module.read_text(encoding="utf-8")
        total += len(text.splitlines())
        docs = set()
        for node in ast.walk(ast.parse(text)):
            body = getattr(node, "body", None)
            if (isinstance(body, list) and body
                    and isinstance(body[0], ast.Expr)
                    and isinstance(body[0].value, ast.Constant)
                    and isinstance(body[0].value.value, str)):
                docs.update(range(body[0].lineno, body[0].end_lineno + 1))
        lines = set()
        layout = {tokenize.COMMENT, tokenize.NL, tokenize.NEWLINE,
                  tokenize.INDENT, tokenize.DEDENT, tokenize.ENCODING,
                  tokenize.ENDMARKER}
        for tok in tokenize.generate_tokens(io.StringIO(text).readline):
            if tok.type not in layout:
                lines.update(range(tok.start[0], tok.end[0] + 1))
        code += len(lines - docs)
    return total, code


def run_sweep(src: Path, inputs: Path, out: Path, values: dict) -> dict:
    """{name: (exit code, stdout)} of every invocation, outputs in ``out``."""
    env = dict(os.environ, PYTHONPATH=str(src), PYTHONDONTWRITEBYTECODE="1",
               OMP_NUM_THREADS="1", OPENBLAS_NUM_THREADS="1",
               MKL_NUM_THREADS="1")
    results = {}
    for name, argv in SWEEP:
        args = [a.format(**values, **{"in": inputs, "out": out}) for a in argv]
        proc = subprocess.run(
            [sys.executable, "-W", "ignore", "-m", "edmshrink.cli", *args],
            cwd=out, env=env, capture_output=True)
        results[name] = (proc.returncode, proc.stdout)
        if proc.returncode:
            print(f"  {name}: exit {proc.returncode}: "
                  f"{proc.stderr.decode(errors='replace').strip()}")
    return results


def main(argv: list[str]) -> int:
    if len(argv) != 2:
        print(__doc__.strip().splitlines()[2], file=sys.stderr)
        return 2
    trees = [src_dir(t) for t in argv]
    for label, src in zip(("parent", "change"), trees):
        total, code = line_counts(src)
        print(f"{label}: {src}: {total} lines, {code} code-only")
    with tempfile.TemporaryDirectory(prefix="cmp_sweep_") as tmp:
        inputs = Path(tmp) / "inputs"
        inputs.mkdir()
        values = write_inputs(inputs)
        runs = []
        for label, src in zip(("parent", "change"), trees):
            out = Path(tmp) / label
            out.mkdir()
            runs.append((out, run_sweep(src, inputs, out, values)))
        (old_out, old), (new_out, new) = runs
        diffs = [f"{name}: exit code or stdout" for name in old
                 if old[name] != new[name]]
        old_files = sorted(p.name for p in old_out.iterdir())
        new_files = sorted(p.name for p in new_out.iterdir())
        if old_files != new_files:
            diffs.append(f"file sets: {sorted(set(old_files) ^ set(new_files))}")
        same = 0
        for name in sorted(set(old_files) & set(new_files)):
            if (old_out / name).read_bytes() == (new_out / name).read_bytes():
                same += 1
            else:
                diffs.append(f"{name}: bytes")
    print(f"{len(SWEEP)} invocations, {same} identical output files")
    for line in diffs:
        print(f"DIFFERS {line}")
    return 1 if diffs else 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
