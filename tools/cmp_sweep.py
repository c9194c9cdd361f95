"""Compare the CLI outputs of two source trees byte for byte.

Usage: python tools/cmp_sweep.py PARENT CHANGE

Each argument is a checkout of this repository or its ``src`` directory,
or, if it is not a directory, a git revision of the repository this
script is in, whose ``src`` is exported with ``git archive``; so
``python tools/cmp_sweep.py HEAD .`` compares the working tree with its
last commit.
The script writes a fixed set of inputs, runs the same list of
``edmshrink`` invocations against each tree in a fresh interpreter, and
compares every output file, the exit code and stdout of each. It prints
each tree's total and code-only line counts of ``src/edmshrink``, the
latter without docstrings, comments and blank lines, and exits 1 on any
difference. A CSV file that differs is explained by the largest change of
a parsed value over the largest parent magnitude, and a JSON file by the
keys whose values differ, list indices written as ``[]``, each key that
holds numbers with that same ratio over its values. Everything it
writes, exported revisions too, goes under one temporary directory,
which it removes; the trees are only read, with bytecode writing off.
"""

from __future__ import annotations

import ast
import io
import json
import math
import os
import subprocess
import sys
import tarfile
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
    # every Newton step of these fits solves on the positive side of the
    # spectrum, the smaller one where the embedding dimension (36) nears n
    ("estimate-grid-n40-dim36",
     ["estimate", "--input", "{in}/n40_dim39.csv", "--lambda-grid", "0,1,5",
      "--out", "{out}/pos"]),
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
    ("simulate-input-csv",
     ["simulate", "--input", "{in}/points.csv", "--sigma2", "0.01",
      "--sigma", "0.1", "--reps", "2", "--seed", "11",
      "--out", "{out}/sim_csv.json"]),
    ("simulate-input-xyz",
     ["simulate", "--input", "{in}/points.xyz", "--format", "xyz",
      "--sigma2", "0.01", "--lambda", "0.5", "--reps", "2", "--seed", "12",
      "--out", "{out}/sim_xyz.json"]),
    ("simulate-input-bare-xyz",
     ["simulate", "--input", "{in}/bare.xyz", "--format", "xyz",
      "--noise", "gamma", "--sigma", "0.2", "--reps", "2", "--seed", "13",
      "--out-format", "csv", "--out", "{out}/sim_bare.csv"]),
    ("simulate-input-pdb",
     ["simulate", "--input", "{in}/models.pdb", "--format", "pdb",
      "--sigma2", "0.04", "--sigma", "0.2", "--rank", "2", "--reps", "2",
      "--seed", "14", "--out", "{out}/sim_pdb.json"]),
    ("dim3", ["dim3", "--input", "{in}/three.csv", "--out", "{out}/dim3.json"]),
    ("dim3-stdout", ["dim3", "--input", "{in}/three.csv"]),
    ("dim3-dim1",
     ["dim3", "--input", "{in}/three_dim1.csv", "--out", "{out}/dim3_1.json"]),
    ("dim3-dim0",
     ["dim3", "--input", "{in}/three_dim0.csv", "--out", "{out}/dim3_0.json"]),
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


def write_coords(folder: Path) -> None:
    """One irregular 3-D structure of 14 points as points.csv, as a
    chemical xyz file (count line, comment line, element symbols), as a
    bare xyz table, and as a pdb file whose ATOM records of model 1 it
    is, beside a HETATM record and a second model of other points."""
    rng = np.random.default_rng(17)
    p = np.round(rng.uniform(-8.0, 8.0, size=(14, 3)), 3)
    _write_csv(folder / "points.csv", p)
    rows = [" ".join(format(v, ".17g") for v in row) for row in p]
    (folder / "points.xyz").write_text(
        f"{len(p)}\nsweep structure\n"
        + "".join(f"C {row}\n" for row in rows), encoding="utf-8")
    (folder / "bare.xyz").write_text(
        "".join(f"{row}\n" for row in rows), encoding="utf-8")
    atom = "{:<6}{:5d}  CA  ALA A{:4d}    {:8.3f}{:8.3f}{:8.3f}  1.00  0.00\n"
    lines = ["MODEL        1\n"]
    lines += [atom.format("ATOM", i + 1, i + 1, *xyz)
              for i, xyz in enumerate(p)]
    lines.append(atom.format("HETATM", 15, 15, 0.5, 0.5, 0.5))
    lines += ["ENDMDL\n", "MODEL        2\n"]
    lines += [atom.format("ATOM", i + 1, i + 1, *(xyz + 1.0))
              for i, xyz in enumerate(p)]
    lines += ["ENDMDL\n", "END\n"]
    (folder / "models.pdb").write_text("".join(lines), encoding="utf-8")


def write_inputs(folder: Path) -> dict:
    """The sweep's inputs, and the values its argv refers to."""
    _write_csv(folder / "n200.csv", _noisy(_helix_edm(200), 0.5, 0))
    _write_csv(folder / "n37_3e17.csv", 3e17 * _noisy(_helix_edm(37), 0.5, 1))
    p = np.random.default_rng(3).normal(size=(40, 39))
    _write_csv(folder / "n40_dim39.csv",
               _noisy(((p[:, None] - p[None]) ** 2).sum(axis=-1), 1.0, 3))
    rng = np.random.default_rng(5)
    s = rng.integers(-20, 60, size=(120, 120))
    _write_csv(folder / "similarity.csv", (s + s.T).astype(float))
    _write_csv(folder / "three.csv",
               np.array([[0.0, 1.5, 2.25], [1.5, 0.0, 0.7], [2.25, 0.7, 0.0]]))
    _write_csv(folder / "three_dim1.csv",
               np.array([[0.0, 1.0, 1.0], [1.0, 0.0, 10.0], [1.0, 10.0, 0.0]]))
    _write_csv(folder / "three_dim0.csv", np.eye(3) - 1.0)
    write_coords(folder)
    lam = 4.0 * 0.5 * (math.sqrt(200) + 1.0)
    return {"grid": ",".join(repr(f * lam) for f in (0.5, 1.0, 2.0))}


def src_dir(tree: str) -> Path:
    path = Path(tree).resolve()
    if (path / "src" / "edmshrink").is_dir():
        path = path / "src"
    if not (path / "edmshrink").is_dir():
        sys.exit(f"{tree}: no edmshrink package there or under src/")
    return path


def tree_src(tree: str, folder: Path) -> tuple[Path, str]:
    """The ``src`` of ``tree`` and a name for it: ``src_dir`` of a
    directory, else the ``src`` of the commit it names, exported into
    ``folder``."""
    if Path(tree).is_dir():
        src = src_dir(tree)
        return src, str(src)
    repo = Path(__file__).resolve().parent.parent
    commit = subprocess.run(
        ["git", "-C", str(repo), "rev-parse", "--verify", "--quiet",
         f"{tree}^{{commit}}"], capture_output=True, text=True).stdout.strip()
    if not commit:
        sys.exit(f"{tree}: neither a directory nor a commit of {repo}")
    archive = subprocess.run(
        ["git", "-C", str(repo), "archive", commit, "src"],
        capture_output=True, check=True).stdout
    with tarfile.open(fileobj=io.BytesIO(archive)) as tar:
        tar.extractall(folder, filter="data")
    return src_dir(str(folder)), f"{tree} ({commit[:12]})"


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


def sweep_args(inputs: Path, out: Path, values: dict):
    """(name, argv) of each invocation, its placeholders filled in."""
    for name, argv in SWEEP:
        yield name, [a.format(**values, **{"in": inputs, "out": out})
                     for a in argv]


def run_sweep(src: Path, inputs: Path, out: Path, values: dict) -> dict:
    """{name: (exit code, stdout)} of every invocation, outputs in ``out``."""
    env = dict(os.environ, PYTHONPATH=str(src), PYTHONDONTWRITEBYTECODE="1",
               OMP_NUM_THREADS="1", OPENBLAS_NUM_THREADS="1",
               MKL_NUM_THREADS="1")
    results = {}
    for name, args in sweep_args(inputs, out, values):
        proc = subprocess.run(
            [sys.executable, "-W", "ignore", "-m", "edmshrink.cli", *args],
            cwd=out, env=env, capture_output=True)
        results[name] = (proc.returncode, proc.stdout)
        if proc.returncode:
            print(f"  {name}: exit {proc.returncode}: "
                  f"{proc.stderr.decode(errors='replace').strip()}")
    return results


def _number(cell: str) -> float | None:
    try:
        return float(cell)
    except ValueError:
        return None


def csv_difference(old: Path, new: Path) -> str:
    """The largest |change - parent| over the largest |parent| of the
    cells that parse as numbers in both files, and how many other cells
    differ as text; or that the files' shapes differ."""
    a, b = ([line.split(",") for line in p.read_text("utf-8").splitlines()]
            for p in (old, new))
    if [len(row) for row in a] != [len(row) for row in b]:
        return (f"shapes differ: {len(a)} lines against {len(b)}, "
                f"or rows of other widths")
    delta = scale = 0.0
    text = 0
    cells = ((c for row in rows for c in row) for rows in (a, b))
    for x, y in zip(*cells):
        u, v = _number(x), _number(y)
        if u is None or v is None:
            text += x != y
        else:
            delta, scale = max(delta, abs(v - u)), max(scale, abs(u))
    ratio = delta / scale if scale else delta
    return (f"largest |change - parent| / max |parent| {ratio:.3g}"
            + (f", {text} text cells differ" if text else ""))


def json_changes(a, b, path: str = "", out: dict | None = None) -> dict:
    """{key: (largest |change - parent|, largest |parent|)} over the
    numbers of each key, as a dotted path, of two parsed JSON documents,
    or {key: None} where they differ otherwise; a list's items share its
    key with ``[]`` added."""
    out = {} if out is None else out
    if isinstance(a, dict) and isinstance(b, dict):
        for k in list(a) + [k for k in b if k not in a]:
            sub = f"{path}.{k}" if path else k
            if k in a and k in b:
                json_changes(a[k], b[k], sub, out)
            else:
                out[sub] = None
    elif isinstance(a, list) and isinstance(b, list) and len(a) == len(b):
        for x, y in zip(a, b):
            json_changes(x, y, path + "[]", out)
    elif _numeric(a) and _numeric(b):
        if out.setdefault(path, (0, 0)) is not None:
            delta, scale = out[path]
            out[path] = max(delta, abs(b - a)), max(scale, abs(a))
    elif a != b:
        out[path or "the document"] = None
    return out


def _numeric(value) -> bool:
    return isinstance(value, (int, float)) and not isinstance(value, bool)


def json_difference(old: Path, new: Path) -> str:
    """The keys whose values differ, each number key with its largest
    |change - parent| over its largest |parent|."""
    changes = json_changes(*(json.loads(p.read_text("utf-8"))
                             for p in (old, new)))
    keys = [key if change is None else
            f"{key} {change[0] / change[1] if change[1] else change[0]:.3g}"
            for key, change in changes.items()
            if change is None or change[0]]
    if not keys:
        return "no parsed value differs"
    more = f" and {len(keys) - 8} more" if len(keys) > 8 else ""
    return f"keys {', '.join(keys[:8])}{more}"


def explain(old: Path, new: Path) -> str:
    """What differs between two output files that differ in bytes."""
    try:
        if old.suffix == ".csv":
            return "; " + csv_difference(old, new)
        if old.suffix == ".json":
            return "; " + json_difference(old, new)
    except (UnicodeDecodeError, ValueError) as exc:
        return f"; unreadable: {exc}"
    return ""


def main(argv: list[str]) -> int:
    if len(argv) != 2:
        print(__doc__.strip().splitlines()[2], file=sys.stderr)
        return 2
    with tempfile.TemporaryDirectory(prefix="cmp_sweep_") as tmp:
        trees = []
        for label, tree in zip(("parent", "change"), argv):
            src, name = tree_src(tree, Path(tmp) / f"{label}_tree")
            total, code = line_counts(src)
            print(f"{label}: {name}: {total} lines, {code} code-only")
            trees.append(src)
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
                diffs.append(f"{name}: bytes"
                             + explain(old_out / name, new_out / name))
    print(f"{len(SWEEP)} invocations, {same} identical output files")
    for line in diffs:
        print(f"DIFFERS {line}")
    return 1 if diffs else 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
