"""End-to-end benchmark of the edmshrink CLI.

    python3 edmbench/run.py --workload sim-helix100 --seed 1 --seconds 30 --trace 0

Runs from the root of a checkout. One process calls
``edmshrink.cli.main(argv)`` in a closed loop, one invocation at a time,
in rounds of identical invocations: two rounds, then more while at least
half of the next is expected to fit in ``--seconds``. With ``--trace 1``
rounds come in blocks of four, untraced, traced, traced, untraced, and
at least one block runs. The outputs are then checked against numpy
computations (``checks.py``), and every round's outputs must match the
last round's byte for byte. The last line of stdout is one JSON object
with the keys correct, attempted, failed and metrics: the end-to-end
metrics with ``--trace 0``, the per-layer metrics with ``--trace 1``.
See README.md.
"""

import os

# A second BLAS or OpenMP thread makes no fit faster on this kind of host
# and doubles the CPU time (README.md, Threads). The setting must precede
# the first import of numpy.
for _var in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS"):
    os.environ[_var] = "1"

import argparse  # noqa: E402
import hashlib  # noqa: E402
import json  # noqa: E402
import resource  # noqa: E402
import shutil  # noqa: E402
import statistics  # noqa: E402
import subprocess  # noqa: E402
import sys  # noqa: E402
import time  # noqa: E402
import traceback  # noqa: E402
from dataclasses import dataclass  # noqa: E402
from pathlib import Path  # noqa: E402

import tracing  # noqa: E402
from workloads import WORKLOADS, check_outputs, op_dir  # noqa: E402

ROOT = Path(__file__).resolve().parent.parent
SRC = ROOT / "src"
WORK = ROOT / "edmbench" / "work"
# Fresh imports behind setup_s: each takes about 0.2 s, and their times
# within one run range over about a third of their median.
SETUP_IMPORTS = 32
# Every workload runs at least two rounds, so that two invocations with
# the same arguments are always compared byte for byte.
MIN_ROUNDS = 2
# A traced run repeats blocks of four rounds: untraced, traced, traced,
# untraced, so that a linear drift in host speed falls on both alike.
TRACE_BLOCK = 4

END_TO_END = {
    "setup_s": "s",
    "op_p50_s": "s",
    "fits_per_s": "1/s",
    "eig_per_fit": "count",
    "stress": "ratio",
    "peak_rss_mb": "MB",
}
PER_LAYER = {
    "linalg.eigh.calls_per_fit": "count",
    "linalg.eigvalsh.calls_per_fit": "count",
    "linalg.eigh.ms_per_call": "ms",
    "linalg.eigvalsh.ms_per_call": "ms",
    "linalg.eig_share": "ratio",
    "projection.cycles_per_fit": "count",
    "projection.project_c1.calls_per_fit": "count",
    "projection.project_c1.ms_per_call": "ms",
    "projection.project_edm_cone.s_per_fit": "s",
    "projection.project_edm_cone.self_s_per_fit": "s",
    "core.certify_edm.calls_per_fit": "count",
    "core.certify_edm.s_per_fit": "s",
    "core.center_gram.s_per_fit": "s",
    "shrinkage.distance_shrinkage.s_per_fit": "s",
    "shrinkage.classical_mds.s_per_fit": "s",
    "shrinkage.truncate_rank.s_per_op": "s",
    "noise.add_noise.s_per_fit": "s",
    "simulate.run_experiment.self_s_per_op": "s",
    "simulate.report_json.s_per_op": "s",
    "simulate.report_json.bytes": "bytes",
    "fileio.load_dissimilarity.s_per_op": "s",
    "fileio.load_dissimilarity.mb_per_s": "MB/s",
    "fileio.save_square_matrix.s_per_op": "s",
    "fileio.save_square_matrix.mb_per_s": "MB/s",
    "fileio.save_embedding.s_per_op": "s",
    "cli.main.self_s_per_op": "s",
    "trace.overhead": "ratio",
}


@dataclass
class OpRun:
    round: int
    j: int
    seconds: float
    code: int
    digest: str
    traced: bool


def fresh_import_seconds() -> float:
    """Time for a fresh interpreter to import edmshrink.cli, as the child
    measures it (interpreter start-up excluded)."""
    code = ("import time; t = time.perf_counter(); import edmshrink.cli; "
            "print(time.perf_counter() - t)")
    env = dict(os.environ, PYTHONPATH=str(SRC))
    done = subprocess.run([sys.executable, "-c", code], cwd=ROOT, env=env,
                          capture_output=True, text=True, timeout=120, check=True)
    return float(done.stdout.strip().splitlines()[-1])


def digest(directory: Path) -> str:
    h = hashlib.sha256()
    for path in sorted(directory.iterdir()):
        h.update(path.name.encode() + b"\0")
        with open(path, "rb") as fh:
            h.update(hashlib.file_digest(fh, "sha256").digest())
    return h.hexdigest()


def invoke(cli, argv: list[str]) -> int:
    """One CLI invocation; an exception is a failed invocation, reported."""
    try:
        return cli.main(argv)
    except SystemExit as exc:
        return exc.code if isinstance(exc.code, int) else 1
    except Exception:
        traceback.print_exc(file=sys.stderr)
        return 1


def run_rounds(cli, ops, work, seconds, min_rounds, block, instrument):
    """Closed loop over rounds of ``ops``. After ``min_rounds``, rounds
    run in blocks of ``block``, and a block starts only while at least
    half of it is expected to fit within ``seconds``. ``instrument(round)``
    returns the patches to hold during that round and the tracer of a
    traced round (None otherwise). Each invocation's output directory is
    emptied before it runs, so that its digest covers only what that
    invocation wrote.

    Returns the invocations and the peak resident memory in MB after
    ``min_rounds``: the peak creeps up with the number of invocations,
    which depends on the host's speed.
    """
    runs: list[OpRun] = []
    start = time.perf_counter()
    rounds = 0
    while True:
        patches, tracer = instrument(rounds)
        with patches:
            for j, argv in enumerate(ops):
                out = op_dir(work, j)
                shutil.rmtree(out, ignore_errors=True)
                out.mkdir()
                if tracer is not None:
                    tracer.op = f"{rounds}.{j}"
                t0 = time.perf_counter()
                code = invoke(cli, argv)
                elapsed = time.perf_counter() - t0
                runs.append(OpRun(rounds, j, elapsed, code, "", tracer is not None))
        for run in runs[-len(ops):]:
            run.digest = digest(op_dir(work, run.j))
        rounds += 1
        if rounds == min_rounds:
            peak_rss_mb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0
        spent = time.perf_counter() - start
        if (rounds >= min_rounds and rounds % block == 0
                and spent + spent / rounds * block / 2 > seconds):
            return runs, peak_rss_mb


def per_layer(tracer, wl, runs, outcomes) -> dict[str, float]:
    traced = [r for r in runs if r.traced]
    plain = [r for r in runs if not r.traced]
    ops = len(traced)
    fits = ops * wl.fits_per_op
    totals = tracer.totals()

    def t(name):
        return totals.get(name, tracing.LayerTotals())

    def per(value, count):
        return value / count if count else 0.0

    op_seconds = sum(r.seconds for r in traced)
    # Traced and untraced rounds hold the same invocations, as many of each.
    overhead = (statistics.median(r.seconds for r in traced)
                / statistics.median(r.seconds for r in plain))
    eigh, eigvalsh = t("linalg.eigh"), t("linalg.eigvalsh")
    c1 = t("projection.project_c1")
    load, save = t("fileio.load_dissimilarity"), t("fileio.save_square_matrix")
    round_ops = len(outcomes)
    return {
        "linalg.eigh.calls_per_fit": per(eigh.calls, fits),
        "linalg.eigvalsh.calls_per_fit": per(eigvalsh.calls, fits),
        "linalg.eigh.ms_per_call": 1e3 * per(eigh.seconds, eigh.calls),
        "linalg.eigvalsh.ms_per_call": 1e3 * per(eigvalsh.seconds, eigvalsh.calls),
        "linalg.eig_share": per(eigh.seconds + eigvalsh.seconds, op_seconds),
        "projection.cycles_per_fit": per(sum(o.cycles for o in outcomes),
                                         round_ops * wl.fits_per_op),
        "projection.project_c1.calls_per_fit": per(c1.calls, fits),
        "projection.project_c1.ms_per_call": 1e3 * per(c1.seconds, c1.calls),
        "projection.project_edm_cone.s_per_fit":
            per(t("projection.project_edm_cone").seconds, fits),
        "projection.project_edm_cone.self_s_per_fit":
            per(t("projection.project_edm_cone").self_seconds, fits),
        "core.certify_edm.calls_per_fit": per(t("core.certify_edm").calls, fits),
        "core.certify_edm.s_per_fit": per(t("core.certify_edm").seconds, fits),
        "core.center_gram.s_per_fit": per(t("core.center_gram").seconds, fits),
        "shrinkage.distance_shrinkage.s_per_fit":
            per(t("shrinkage.distance_shrinkage").seconds, fits),
        "shrinkage.classical_mds.s_per_fit":
            per(t("shrinkage.classical_mds").seconds, fits),
        "shrinkage.truncate_rank.s_per_op":
            per(t("shrinkage.truncate_rank").seconds, ops),
        "noise.add_noise.s_per_fit": per(t("noise.add_noise").seconds, fits),
        "simulate.run_experiment.self_s_per_op":
            per(t("simulate.run_experiment").self_seconds, ops),
        "simulate.report_json.s_per_op": per(t("simulate.report_json").seconds, ops),
        "simulate.report_json.bytes": per(t("simulate.report_json").nbytes, ops),
        "fileio.load_dissimilarity.s_per_op": per(load.seconds, ops),
        "fileio.load_dissimilarity.mb_per_s": per(load.nbytes / 1e6, load.seconds),
        "fileio.save_square_matrix.s_per_op": per(save.seconds, ops),
        "fileio.save_square_matrix.mb_per_s": per(save.nbytes / 1e6, save.seconds),
        "fileio.save_embedding.s_per_op": per(t("fileio.save_embedding").seconds, ops),
        "cli.main.self_s_per_op": per(t("cli.main").self_seconds, ops),
        "trace.overhead": overhead,
    }


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)

    if not (SRC / "edmshrink" / "cli.py").is_file():
        print(f"error: no edmshrink sources under {SRC}", file=sys.stderr)
        return 2
    sys.path.insert(0, str(SRC))
    from edmshrink import cli

    if args.workload not in WORKLOADS:
        parser.error(f"unknown workload {args.workload!r}; "
                     f"choose from {', '.join(WORKLOADS)}")
    wl = WORKLOADS[args.workload]()
    work = WORK / wl.name
    shutil.rmtree(work, ignore_errors=True)
    work.mkdir(parents=True)

    # Half of the fresh imports before the timed phase and half after it,
    # so that their median is less at the mercy of one moment's host speed.
    # A traced run reports no setup_s and takes none.
    setup_imports = 0 if args.trace else SETUP_IMPORTS
    imports = [fresh_import_seconds() for _ in range(setup_imports // 2)]
    ops = wl.prepare(work, args.seed)
    counter = tracing.EigCounter()
    tracer = tracing.Tracer()

    def instrument(rnd):
        if args.trace and rnd % TRACE_BLOCK in (1, 2):
            return tracer.install(), tracer
        return counter.install(), None

    if args.trace:
        min_rounds = block = TRACE_BLOCK
    else:
        min_rounds, block = MIN_ROUNDS, 1
    runs, peak_rss_mb = run_rounds(cli, ops, work, args.seconds, min_rounds,
                                   block, instrument)
    imports += [fresh_import_seconds() for _ in range(setup_imports - len(imports))]

    outcomes = [check_outputs(wl, j, op_dir(work, j)) for j in range(len(ops))]
    final = {r.j: r.digest for r in runs}
    wrong_outputs = False
    failed, good = 0, []
    for r in runs:
        problems = list(outcomes[r.j].problems)
        if r.digest != final[r.j]:
            problems.append("a repeated invocation wrote different bytes")
        wrong_outputs = wrong_outputs or bool(problems)
        if r.code != 0:
            problems.append(f"exit code {r.code}")
        for problem in problems:
            print(f"FAILED round {r.round} op {r.j}: {problem}", file=sys.stderr)
        if problems:
            failed += 1
        else:
            good.append(r)

    if args.trace:
        tracer.write(work / "spans.jsonl")
        values = per_layer(tracer, wl, runs, outcomes)
        units = PER_LAYER
    else:
        stresses = [s for o in outcomes for s in o.stresses]
        values = {
            "setup_s": statistics.median(imports),
            "op_p50_s": statistics.median(r.seconds for r in good) if good else 0.0,
            "fits_per_s": len(good) * wl.fits_per_op / sum(r.seconds for r in runs),
            "eig_per_fit": counter.calls / (len(runs) * wl.fits_per_op),
            "stress": statistics.fmean(stresses) if stresses else 0.0,
            "peak_rss_mb": peak_rss_mb,
        }
        units = END_TO_END
    rounds = runs[-1].round + 1
    print(f"{wl.name} seed {args.seed}: {rounds} rounds, {len(runs)} "
          f"invocations attempted, {failed} failed")
    for name, unit in units.items():
        print(f"  {name:44s} {values[name]:14.6g} {unit}")
    result = {
        "correct": not wrong_outputs and bool(good),
        "attempted": len(runs),
        "failed": failed,
        "metrics": {name: {"value": values[name], "unit": unit}
                    for name, unit in units.items()},
    }
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
