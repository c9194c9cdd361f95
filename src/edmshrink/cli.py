"""Command line interface.

Subcommands:

  estimate   noisy squared-dissimilarity matrix in, fitted EDM / kernel /
             embedding out (optionally over a grid of penalties)
  simulate   coordinates in, replicated noise study out (stress report)
  mds        classical-scaling baseline only
  dim3       closed-form three-point projection analysis
  convert    similarity matrix to squared dissimilarities

Exit codes: 0 success, 2 input error, 3 non-convergence in estimate mode.
All matrix inputs and outputs use the squared-distance convention.
"""

from __future__ import annotations

import argparse
import sys

from . import fileio
from .core import SymHollowMatrix, similarity_to_dissimilarity
from .noise import NoiseModel
from .projection import DykstraConfig, NotConvergedError, analyze_dim3
from .shrinkage import classical_mds, distance_shrinkage, truncate_rank
from .simulate import SimConfig, helix_coords, report_write, run_experiment

EXIT_OK = 0
EXIT_INPUT = 2
EXIT_NOT_CONVERGED = 3


def _add_dykstra_args(p: argparse.ArgumentParser) -> None:
    p.add_argument("--tol", type=float, default=1e-9,
                   help="relative convergence tolerance (default 1e-9)")
    p.add_argument("--max-cycles", type=int, default=5000,
                   help="Dykstra cycle limit (default 5000)")
    p.add_argument("--feas-tol", type=float, default=1e-7,
                   help="feasibility residual tolerance (default 1e-7)")


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
                          "<out>.embedding.csv and <out>.diag.json")
    est.add_argument("--lambda-grid",
                     help="comma-separated distinct penalties; loops the fit "
                          "and writes one output set per value, suffixed "
                          "_lam<value> in Python's shortest round-trip form")
    _add_penalty_args(est, required=False)
    _add_dykstra_args(est)

    sim = sub.add_parser("simulate", help="replicated noise experiment")
    sim.add_argument("--input", help="coordinate file of the true structure")
    sim.add_argument("--format", choices=("csv", "xyz", "pdb"), default="csv",
                     help="coordinate file format (default csv)")
    sim.add_argument("--helix", type=int, metavar="N",
                     help="use the bundled helix geometry with N points "
                          "instead of --input")
    sim.add_argument("--helix-turns", type=float, default=3.0)
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
    _add_dykstra_args(sim)

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


def _dykstra_config(args) -> DykstraConfig:
    return DykstraConfig(tol=args.tol, max_cycles=args.max_cycles,
                         feas_tol=args.feas_tol)


def _write_fit(fit, rank: int, prefix: str) -> None:
    fileio.save_square_matrix(fit.d_hat.entries, f"{prefix}.dhat.csv")
    fileio.save_square_matrix(
        fit.k_hat.entries, f"{prefix}.khat.csv",
        header="# minimum-trace kernel (Gram matrix of centered coordinates)")
    rank = min(rank, fit.d_hat.n - 1)
    trunc = truncate_rank(fit, rank)
    fileio.save_embedding(trunc.embedding.coords, f"{prefix}.embedding.csv")
    d = fit.diagnostics
    payload = {
        "lambda": fit.lam,
        "eta": fit.eta,
        "embed_dim": fit.d_hat.embed_dim,
        "cert_tol": fit.d_hat.cert_tol,
        "cycles": d.cycles,
        "delta_last": d.delta_last,
        "c1_residual": d.c1_residual,
        "c2_residual": d.c2_residual,
        "converged": d.converged,
    }
    with open(f"{prefix}.diag.json", "w", encoding="utf-8") as fh:
        fh.write(fileio.dumps_json(payload))


def _cmd_estimate(args) -> int:
    given = [opt for opt, val in (("--lambda", args.lam), ("--sigma", args.sigma),
                                  ("--lambda-grid", args.lambda_grid))
             if val is not None]
    if len(given) != 1:
        raise ValueError("give exactly one of --lambda, --sigma or "
                         "--lambda-grid")
    x = fileio.load_dissimilarity(args.input)
    cfg = _dykstra_config(args)
    if args.lambda_grid is not None:
        penalties = [float(tok) for tok in args.lambda_grid.split(",")]
        if len(set(penalties)) != len(penalties):
            raise ValueError("--lambda-grid repeats a penalty")
    elif args.lam is not None:
        penalties = [args.lam]
    else:
        from .shrinkage import recommended_lambda
        penalties = [recommended_lambda(x.n, args.sigma)]
    multiple = len(penalties) > 1
    for lam in penalties:
        prefix = f"{args.out}_lam{lam!r}" if multiple else args.out
        fit = distance_shrinkage(x, lam, cfg)
        _write_fit(fit, args.rank, prefix)
    return EXIT_OK


def _cmd_simulate(args) -> int:
    if (args.input is None) == (args.helix is None):
        raise ValueError("give exactly one of --input or --helix")
    if args.helix is not None:
        geometry = {key: val for key, val in (("radius", args.helix_radius),
                                              ("pitch", args.helix_pitch))
                    if val is not None}
        coords = helix_coords(args.helix, turns=args.helix_turns, **geometry)
    else:
        coords = fileio.load_coords(args.input, args.format)
    if args.noise == "gaussian":
        if args.sigma2 is None:
            raise ValueError("gaussian noise requires --sigma2")
        noise = NoiseModel(kind="gaussian", sigma2=args.sigma2)
    else:
        noise = NoiseModel(kind="gamma")
    cfg = SimConfig(reps=args.reps, seed=args.seed, noise=noise,
                    rank_r=args.rank, lam=args.lam, sigma=args.sigma,
                    dykstra=_dykstra_config(args))
    report = run_experiment(coords, cfg)
    if args.out:
        report_write(report, args.out, args.out_format)
    else:
        from .simulate import report_csv, report_json
        text = report_json(report) if args.out_format == "json" else report_csv(report)
        sys.stdout.write(text)
    return EXIT_OK


def _cmd_mds(args) -> int:
    x = fileio.load_dissimilarity(args.input)
    fit = classical_mds(x, min(args.rank, x.n - 1))
    fileio.save_square_matrix(fit.d_hat_r.entries, f"{args.out}.dhat_r.csv")
    fileio.save_embedding(fit.embedding.coords, f"{args.out}.embedding.csv")
    return EXIT_OK


def _cmd_dim3(args) -> int:
    x = fileio.load_dissimilarity(args.input)
    if x.n != 3:
        raise ValueError(f"dim3 needs a 3x3 matrix, got {x.n}x{x.n}")
    a = analyze_dim3(x)
    payload = {
        "delta_x": a.delta_x,
        "alpha1": a.alpha1,
        "alpha2": a.alpha2,
        "dim": a.dim,
        "eta_to_dim1": a.eta_to_dim1,
        "eta_to_dim0": a.eta_to_dim0,
    }
    text = fileio.dumps_json(payload)
    if args.out:
        with open(args.out, "w", encoding="utf-8") as fh:
            fh.write(text)
    else:
        sys.stdout.write(text)
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
    except (ValueError, OSError, ZeroDivisionError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_INPUT


if __name__ == "__main__":
    sys.exit(main())
