"""Command line interface.

Subcommands:

  estimate   noisy squared-dissimilarity matrix in, fitted EDM / kernel /
             embedding out (optionally over a grid of penalties)
  simulate   coordinates in, replicated noise study out (stress report)
  mds        classical-scaling baseline only
  dim3       closed-form three-point projection analysis
  convert    similarity matrix to squared dissimilarities

Exit codes: 0 success, 2 input error or out of memory, 3 non-convergence
in estimate mode.
All matrix inputs and outputs use the squared-distance convention.
"""

from __future__ import annotations

import argparse
import os
import sys
from dataclasses import asdict

from . import fileio
from .core import SymHollowMatrix, similarity_to_dissimilarity
from .noise import NoiseModel
from .projection import NotConvergedError, SolverConfig, analyze_dim3
from .shrinkage import (classical_mds, recommended_lambda, shrinkage_path,
                        truncate_rank)
from .simulate import (SimConfig, helix_coords, report_csv, report_json,
                       run_experiment)

EXIT_OK = 0
EXIT_INPUT = 2
EXIT_NOT_CONVERGED = 3
# the errors that exit 2, each with no output file left
_INPUT_ERRORS = (ValueError, OSError, ZeroDivisionError, MemoryError)


def _add_solver_args(p: argparse.ArgumentParser) -> None:
    p.add_argument("--tol", type=float, default=SolverConfig.tol,
                   help="bound on the norm of the dual gradient of the EDM "
                        "projection, relative to ||input||_F "
                        "(default %(default)s)")
    p.add_argument("--max-cycles", type=int, default=SolverConfig.max_cycles,
                   help="limit on the dual evaluations of the EDM "
                        "projection, one eigendecomposition each "
                        "(default %(default)s)")


def _add_penalty_args(p: argparse.ArgumentParser, required: bool = True) -> None:
    group = p.add_mutually_exclusive_group(required=required)
    group.add_argument("--lambda", dest="lam", type=float,
                       help="trace penalty, applied as-is")
    group.add_argument("--sigma", type=float,
                       help="noise std dev; penalty becomes 4*sigma*(sqrt(n)+1)")


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="edmshrink",
        description="Distance-shrinkage estimation of Euclidean distance "
                    "matrices (all matrices hold squared distances).")
    sub = parser.add_subparsers(dest="command", required=True)

    est = sub.add_parser("estimate", help="fit the shrinkage estimator")
    est.add_argument("--input", required=True, help="square dissimilarity CSV")
    est.add_argument("--rank", type=int, default=3,
                     help="embedding rank for the coordinate output (default 3)")
    est.add_argument("--out", required=True,
                     help="output prefix; writes <out>.dhat.csv, <out>.khat.csv, "
                          "<out>.embedding.csv and <out>.diag.json, or with "
                          "--lambda-grid one such set per value under "
                          "<out>_lam<value>")
    est.add_argument("--lambda-grid",
                     help="comma-separated distinct penalties, fitted in "
                          "ascending order along one path, each started from "
                          "the last fit, so that it agrees with the --lambda "
                          "fit of its value to within the solver tolerance "
                          "(the smallest exactly); writes each value's set, "
                          "suffixed _lam<value> in Python's shortest "
                          "round-trip form, once fitted. A fit that does not "
                          "converge (exit 3) ends the grid and keeps the sets "
                          "before it; exit 2 leaves none")
    _add_penalty_args(est, required=False)
    _add_solver_args(est)

    sim = sub.add_parser("simulate", help="replicated noise experiment")
    sim.add_argument("--input", help="coordinate file of the true structure")
    sim.add_argument("--format", choices=("csv", "xyz", "pdb"), default="csv",
                     help="coordinate file format (default csv)")
    sim.add_argument("--helix", type=int, metavar="N",
                     help="use the bundled helix geometry with N points "
                          "instead of --input")
    sim.add_argument("--helix-turns", type=float,
                     help="helix turns (default: that of helix_coords, 3)")
    sim.add_argument("--helix-radius", type=float,
                     help="helix radius (default: that of helix_coords, 0.3)")
    sim.add_argument("--helix-pitch", type=float,
                     help="height per turn (default: that of helix_coords, 0.3)")
    sim.add_argument("--noise", choices=("gaussian", "gamma"), default="gaussian")
    sim.add_argument("--sigma2", type=float,
                     help="gaussian noise variance (required for gaussian)")
    sim.add_argument("--reps", type=int, default=100)
    sim.add_argument("--seed", type=int, default=0)
    sim.add_argument("--rank", type=int, default=3)
    sim.add_argument("--out", help="report path (stdout when omitted)")
    sim.add_argument("--out-format", choices=("csv", "json"), default="json")
    _add_penalty_args(sim)
    _add_solver_args(sim)

    mds = sub.add_parser("mds", help="classical-scaling baseline only")
    mds.add_argument("--input", required=True, help="square dissimilarity CSV")
    mds.add_argument("--rank", type=int, default=3)
    mds.add_argument("--out", required=True,
                     help="output prefix; writes <out>.dhat_r.csv and "
                          "<out>.embedding.csv")

    dim3 = sub.add_parser("dim3", help="three-point closed-form analysis")
    dim3.add_argument("--input", required=True, help="3x3 dissimilarity CSV")
    dim3.add_argument("--out", help="JSON path (stdout when omitted)")

    conv = sub.add_parser("convert", help="similarity -> dissimilarity")
    conv.add_argument("--input", required=True, help="square similarity CSV")
    conv.add_argument("--out", required=True, help="dissimilarity CSV path")

    return parser


def _solver_config(args) -> SolverConfig:
    return SolverConfig(tol=args.tol, max_cycles=args.max_cycles)


def _rank(r: int, n: int) -> int:
    """The embedding rank for n objects: r, capped at n - 1."""
    if r < 1:
        raise ValueError(f"--rank must be at least 1, got {r}")
    return min(r, n - 1)


def _write_text(text: str, out) -> None:
    """Write ``text`` to the path ``out``, or to stdout when it is not given."""
    if out:
        with open(out, "w", encoding="utf-8") as fh:
            fh.write(text)
    else:
        sys.stdout.write(text)


def _write_fit(fit, rank: int, prefix: str) -> list[str]:
    """Write the output set of ``fit`` under ``prefix``; its paths."""
    # all that can reject the set comes first, so that it writes no file
    coords = truncate_rank(fit, rank).embedding.coords
    diag = fileio.dumps_json({
        "lambda": fit.lam,
        "eta": fit.eta,
        "embed_dim": fit.d_hat.embed_dim,
        "cert_tol": fit.d_hat.cert_tol,
        **asdict(fit.diagnostics),
    })
    paths = [f"{prefix}.{name}" for name in
             ("dhat.csv", "khat.csv", "embedding.csv", "diag.json")]
    fileio.save_square_matrix(fit.d_hat.entries, paths[0])
    fileio.save_square_matrix(
        fit.k_hat.entries, paths[1],
        header="# minimum-trace kernel (Gram matrix of centered coordinates)")
    fileio.save_embedding(coords, paths[2])
    _write_text(diag, paths[3])
    return paths


def _cmd_estimate(args) -> int:
    given = [opt for opt, val in (("--lambda", args.lam), ("--sigma", args.sigma),
                                  ("--lambda-grid", args.lambda_grid))
             if val is not None]
    if len(given) != 1:
        raise ValueError("give exactly one of --lambda, --sigma or "
                         "--lambda-grid")
    x = fileio.load_dissimilarity(args.input)
    rank = _rank(args.rank, x.n)
    cfg = _solver_config(args)
    if args.lambda_grid is not None:
        penalties = [float(tok) for tok in args.lambda_grid.split(",")]
        if len(set(penalties)) != len(penalties):
            raise ValueError("--lambda-grid repeats a penalty")
    elif args.lam is not None:
        penalties = [args.lam]
    else:
        penalties = [recommended_lambda(x.n, args.sigma)]
    # shrinkage_path checks every penalty before the first fit, so a
    # rejected grid writes no files; a set rejected later removes those
    # of the fits before it, and a fit that does not converge keeps them
    written = []
    try:
        for fit in shrinkage_path(x, penalties, cfg):
            written += _write_fit(fit, rank, args.out if args.lambda_grid
                                  is None else f"{args.out}_lam{fit.lam!r}")
            del fit  # the next fit runs without this one's arrays
    except _INPUT_ERRORS:
        for path in written:
            os.remove(path)
        raise
    return EXIT_OK


def _cmd_simulate(args) -> int:
    if (args.input is None) == (args.helix is None):
        raise ValueError("give exactly one of --input or --helix")
    if args.helix is not None:
        geometry = {key: val for key, val in (("turns", args.helix_turns),
                                              ("radius", args.helix_radius),
                                              ("pitch", args.helix_pitch))
                    if val is not None}
        coords = helix_coords(args.helix, **geometry)
    else:
        coords = fileio.load_coords(args.input, args.format)
    cfg = SimConfig(reps=args.reps, seed=args.seed,
                    noise=NoiseModel(kind=args.noise, sigma2=args.sigma2),
                    rank_r=_rank(args.rank, len(coords)), lam=args.lam,
                    sigma=args.sigma, solver=_solver_config(args))
    report = run_experiment(coords, cfg)
    _write_text(report_json(report) if args.out_format == "json"
                else report_csv(report), args.out)
    return EXIT_OK


def _cmd_mds(args) -> int:
    x = fileio.load_dissimilarity(args.input)
    fit = classical_mds(x, _rank(args.rank, x.n))
    fileio.save_square_matrix(fit.d_hat_r.entries, f"{args.out}.dhat_r.csv")
    fileio.save_embedding(fit.embedding.coords, f"{args.out}.embedding.csv")
    return EXIT_OK


def _cmd_dim3(args) -> int:
    x = fileio.load_dissimilarity(args.input)
    try:
        result = analyze_dim3(x)
    except ValueError as exc:
        raise ValueError(f"{args.input}: {exc}") from None
    _write_text(fileio.dumps_json(asdict(result)), args.out)
    return EXIT_OK


def _cmd_convert(args) -> int:
    s = fileio.load_square_matrix(args.input, hollow=False)
    x = similarity_to_dissimilarity(s)
    fileio.save_square_matrix(
        x.entries, args.out,
        header="# squared-distance convention (dissimilarities "
               "s_ii + s_jj - 2 s_ij)")
    return EXIT_OK


_COMMANDS = {
    "estimate": _cmd_estimate,
    "simulate": _cmd_simulate,
    "mds": _cmd_mds,
    "dim3": _cmd_dim3,
    "convert": _cmd_convert,
}


def main(argv=None) -> int:
    parser = build_parser()
    args = parser.parse_args(argv)
    try:
        return _COMMANDS[args.command](args)
    except NotConvergedError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_NOT_CONVERGED
    except _INPUT_ERRORS as exc:
        # a MemoryError raised by Python itself has no message
        print(f"error: {str(exc) or type(exc).__name__}", file=sys.stderr)
        return EXIT_INPUT


if __name__ == "__main__":
    sys.exit(main())
