"""Run the benchmark over many seeds and write a `BENCH_<n>.json` summary.

    python3 perfbench/baseline.py --out perfbench/BENCH_1.json [--seeds 1-10]

Run it from the root of a checkout.  For each workload it makes one
untraced run per seed and one traced run (the first seed), each with
`run_seconds` from BENCHMARK.json, and records for every end-to-end metric
the ten values, their median and quartiles, and the spread (interquartile
range over median) next to the metric's bound, and the same for the
figures as measured, before the division by the host's slowdown.  The
per-run records stay in `perfbench/results/`.
"""

from __future__ import annotations

import argparse
import json
import statistics
import subprocess
import sys
from pathlib import Path

HERE = Path(__file__).resolve().parent


def seed_list(text):
    lo, _, hi = text.partition("-")
    return list(range(int(lo), int(hi or lo) + 1))


def run(workload, seed, seconds, trace):
    proc = subprocess.run(
        [sys.executable, str(HERE / "run.py"), "--workload", workload,
         "--seed", str(seed), "--seconds", str(seconds),
         "--trace", str(trace)],
        capture_output=True, text=True, timeout=300)
    if proc.returncode != 0:
        raise RuntimeError(f"{workload} seed {seed} trace {trace}:"
                           f" {proc.stdout[-2000:]} {proc.stderr[-2000:]}")
    record = HERE / "results" / f"{workload}-seed{seed}-trace{trace}.json"
    return json.loads(record.read_text())


def summarize(values, bound):
    q1, med, q3 = statistics.quantiles(values, n=4)
    return {"median": statistics.median(values), "q1": q1, "q3": q3,
            "spread": (q3 - q1) / statistics.median(values),
            "bound": bound, "values": values}


def main(argv=None):
    ap = argparse.ArgumentParser(prog="perfbench/baseline.py")
    ap.add_argument("--out", required=True)
    ap.add_argument("--seeds", type=seed_list, default=seed_list("1-10"))
    args = ap.parse_args(argv)
    spec = json.loads((HERE.parent / "BENCHMARK.json").read_text())
    seconds = spec["run_seconds"]

    summary = {"run_seconds": seconds, "seeds": args.seeds, "workloads": {}}
    for workload in [w["name"] for w in spec["workloads"]]:
        runs = []
        for seed in args.seeds:
            runs.append(run(workload, seed, seconds, 0))
            print(workload, seed, {k: round(v["value"], 4) for k, v
                                   in runs[-1]["metrics"].items()},
                  flush=True)
        traced = run(workload, args.seeds[0], seconds, 1)
        first = runs[0]
        summary.update({k: first[k] for k in
                        ("python", "nproc", "git_commit", "source_sha256")})
        end_to_end = {}
        measured = {}
        for m in spec["end_to_end"]:
            values = [r["metrics"][m["name"]]["value"] for r in runs]
            end_to_end[m["name"]] = {"unit": m["unit"],
                                     **summarize(values, m["bound"])}
            if m["name"] in first["measured"]:
                measured[m["name"]] = summarize(
                    [r["measured"][m["name"]] for r in runs], m["bound"])
        summary["workloads"][workload] = {
            "correct": all(r["correct"] for r in runs + [traced]),
            "attempted": [r["attempted"] for r in runs],
            "failed": [r["failed"] for r in runs],
            "failed_share": first["metrics"]["failed_share"]["value"],
            "steps_per_pass": {r["seed"]: r["steps_per_pass"] for r in runs},
            # The traced run checks the first seed's inputs again, in
            # another process.
            "steps_repeat": (traced["metrics"]["conversion.steps"]["value"]
                             == first["steps_per_pass"]),
            "samples": first["samples"],
            "decl_ms_tail_percentile": first["decl_ms_tail_percentile"],
            "end_to_end": end_to_end,
            # The same figures before the division by the host's slowdown.
            "measured": measured,
            "slowdown_p50": [r["reference"]["slowdown_p50"] for r in runs],
            "traced": {
                "seed": traced["seed"],
                "passes": traced["passes"],
                "per_layer": {k: v["value"]
                              for k, v in traced["metrics"].items()
                              if k != "setup_s"},
                "family_self_share": traced["family_self_share"],
                "sites": traced["sites"],
            },
        }
        for name, s in end_to_end.items():
            print(f"  {name:14s} median {s['median']:.5g} spread"
                  f" {s['spread']:.3f} (bound {s['bound']})", flush=True)
    Path(args.out).write_text(json.dumps(summary, indent=1) + "\n")
    return 0


if __name__ == "__main__":
    sys.exit(main())
