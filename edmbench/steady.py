"""Steadiness check: repeat the benchmark and report each metric's spread.

    python3 edmbench/steady.py --seeds 10            # ten seeds, every workload
    python3 edmbench/steady.py --seeds 10 --sets 2   # two sets, compare medians
    python3 edmbench/steady.py --seeds 1             # every workload once

Runs ``run.py`` for BENCHMARK.json's ``run_seconds``, once per (seed,
set, workload), each in its own process, from the root of the checkout.
Runs alternate: the workloads take turns within a seed, their order
reverses from one seed to the next, and so does the order of the sets,
so that drift in the host's speed falls on every workload and set alike.
For each end-to-end metric of each workload it prints, per set, the
median, the quartiles and the spread (q3 - q1) / median, and with two
sets the change of the second median against the first in the metric's
worse direction, next to the bound in BENCHMARK.json. All figures are
also written as JSON under edmbench/results/.
"""

from __future__ import annotations

import argparse
import json
import statistics
import subprocess
import sys
import time
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent


def run_once(workload: str, seed: int, seconds: int) -> dict:
    cmd = [sys.executable, str(ROOT / "edmbench" / "run.py"), "--workload",
           workload, "--seed", str(seed), "--seconds", str(seconds),
           "--trace", "0"]
    t0 = time.perf_counter()
    done = subprocess.run(cmd, cwd=ROOT, capture_output=True, text=True,
                          timeout=900)
    wall = time.perf_counter() - t0
    if done.returncode != 0:
        sys.stderr.write(done.stdout + done.stderr)
        raise SystemExit(f"{workload} seed {seed} exited {done.returncode}")
    *log, last = done.stdout.strip().splitlines()
    result = json.loads(last)
    result["wall_s"] = wall
    result["log"] = log
    return result


def describe(values: list[float]) -> dict:
    med = statistics.median(values)
    if len(values) < 2:
        return {"median": med, "q1": med, "q3": med, "spread": 0.0}
    q1, _, q3 = statistics.quantiles(values, n=4)
    return {"median": med, "q1": q1, "q3": q3,
            "spread": (q3 - q1) / med if med else float("inf")}


def main(argv=None) -> int:
    spec = json.loads((ROOT / "BENCHMARK.json").read_text(encoding="utf-8"))
    names = [w["name"] for w in spec["workloads"]]
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--seeds", type=int, default=10)
    parser.add_argument("--first-seed", type=int, default=1)
    parser.add_argument("--sets", type=int, choices=(1, 2), default=1)
    parser.add_argument("--workloads", default=",".join(names),
                        help="comma-separated subset of the workloads")
    args = parser.parse_args(argv)
    workloads = args.workloads.split(",")
    metrics = spec["end_to_end"]

    results = {(w, s): [] for w in workloads for s in range(args.sets)}
    for i in range(args.seeds):
        seed = args.first_seed + i
        sets = range(args.sets) if i % 2 == 0 else reversed(range(args.sets))
        for s in sets:
            order = workloads if (i + s) % 2 == 0 else workloads[::-1]
            for w in order:
                r = run_once(w, seed, spec["run_seconds"])
                results[w, s].append(r)
                print(f"set {s} seed {seed} {w}: {r['attempted']} attempted, "
                      f"{r['failed']} failed, correct {r['correct']}, "
                      f"{r['wall_s']:.1f} s", flush=True)

    summary = {}
    print()
    for w in workloads:
        for m in metrics:
            name, better = m["name"], m["better"]
            rows = [describe([r["metrics"][name]["value"] for r in results[w, s]])
                    for s in range(args.sets)]
            line = f"{w:14s} {name:44s}"
            for row in rows:
                line += (f" med {row['median']:<11.5g} q1 {row['q1']:<11.5g} "
                         f"q3 {row['q3']:<11.5g} spread {row['spread']:.4f}")
            entry = {"unit": m["unit"], "sets": rows}
            bound = m["bound"]
            line += f" bound {bound}"
            if max(row["spread"] for row in rows) > bound / 3:
                line += " SPREAD>BOUND/3"
            if len(rows) == 2:
                a, b = rows[0]["median"], rows[1]["median"]
                worse = (b - a) / a if better == "lower" else (a - b) / a
                entry["second_worse_by"] = worse
                line += f" second worse by {worse:+.4f}"
                if worse > bound:
                    line += " SHIFT>BOUND"
            summary.setdefault(w, {})[name] = entry
            print(line)
        for s in range(args.sets):
            runs = results[w, s]
            share = (sum(r["failed"] for r in runs)
                     / sum(r["attempted"] for r in runs))
            walls = [r["wall_s"] for r in runs]
            print(f"{w:14s} set {s}: failed share {share:.6f}, all correct "
                  f"{all(r['correct'] for r in runs)}, run wall max "
                  f"{max(walls):.1f} s")

    out_dir = ROOT / "edmbench" / "results"
    out_dir.mkdir(exist_ok=True)
    stamp = time.strftime("%Y%m%dT%H%M%SZ", time.gmtime())
    out = out_dir / f"steady-{stamp}.json"
    out.write_text(json.dumps({
        "seeds": [args.first_seed + i for i in range(args.seeds)],
        "sets": args.sets, "seconds": spec["run_seconds"],
        "summary": summary,
        "runs": {f"{w}/{s}": v for (w, s), v in results.items()},
    }, indent=1) + "\n", encoding="utf-8")
    print(f"\nwrote {out.relative_to(ROOT)}")
    return 0


if __name__ == "__main__":
    sys.exit(main())
