"""Benchmark of the cctt checker: time to verdict on three workloads.

    python3 perfbench/run.py --workload {corpus,reduce,scale} --seed N \
        --seconds S --trace {0,1}

Run it from the root of a checkout.  It byte-compiles `src/cctt`, then runs
the workload in a fresh single-threaded process (`worker.py`) that times
its own `import cctt.cli` and that of ten more fresh processes, calls
`cctt.cli.check_file` in a closed loop and checks every verdict against an
answer known before the checker ran.  It prints each metric by name with
its unit, writes the full record to `perfbench/results/`, and ends with one
JSON line: `correct`, `attempted` and `failed` count declarations; the
metrics are the end-to-end ones with `--trace 0` and the per-layer ones
(from a traced run) with `--trace 1`.  See `perfbench/NOTES.md`.
"""

from __future__ import annotations

import argparse
import compileall
import hashlib
import json
import os
import signal
import statistics
import subprocess
import sys
import time
from pathlib import Path

HERE = Path(__file__).resolve().parent
SPEC = HERE.parent / "BENCHMARK.json"
# Each child is killed after this long, so that a run ends within 180 s.
CHILD_TIMEOUT_S = 150


def fail(message):
    print(f"perfbench: {message}", file=sys.stderr)
    return 2


def child(root, args):
    """Run worker.py in a fresh process; its last stdout line, parsed."""
    # A fixed hash seed: the order of sets of names, and with it the work
    # and the layout of the heap, is the same in every run.
    env = dict(os.environ, PYTHONPATH=str(root / "src"),
               PYTHONDONTWRITEBYTECODE="1", PYTHONHASHSEED="0")
    # In a session of its own, so that on a timeout the worker's own
    # children (the reference probe and set-up processes) go with it.
    proc = subprocess.Popen([sys.executable, str(HERE / "worker.py"), *args],
                            cwd=root, env=env, stdout=subprocess.PIPE,
                            stderr=subprocess.PIPE, text=True,
                            start_new_session=True)
    try:
        stdout, stderr = proc.communicate(timeout=CHILD_TIMEOUT_S)
    except subprocess.TimeoutExpired:
        os.killpg(proc.pid, signal.SIGKILL)
        proc.communicate()
        wait_for_group(proc.pid)
        raise
    lines = stdout.strip().splitlines()
    if proc.returncode != 0 or not lines:
        raise RuntimeError(f"worker {' '.join(args)} exited with"
                           f" {proc.returncode}: {stderr.strip()}")
    return json.loads(lines[-1])


def wait_for_group(pgid, limit_s=10):
    """Wait until no process of group `pgid` is left."""
    deadline = time.monotonic() + limit_s
    while time.monotonic() < deadline:
        try:
            os.killpg(pgid, 0)
        except ProcessLookupError:
            return
        time.sleep(0.01)


def source_digest(root):
    digest = hashlib.sha256()
    for path in sorted((root / "src" / "cctt").glob("*.py")):
        digest.update(path.name.encode() + b"\0" + path.read_bytes())
    return digest.hexdigest()[:16]


def git_commit(root):
    """The checkout's commit, or None where it is not a git work tree."""
    env = dict(os.environ, GIT_CEILING_DIRECTORIES=str(root.parent))
    try:
        proc = subprocess.run(["git", "rev-parse", "HEAD"], cwd=root,
                              env=env, capture_output=True, text=True,
                              timeout=10)
    except (OSError, subprocess.TimeoutExpired):
        return None
    return proc.stdout.strip() if proc.returncode == 0 else None


def main(argv=None):
    if not SPEC.is_file():
        return fail(f"{SPEC} is missing")
    spec = json.loads(SPEC.read_text())
    ap = argparse.ArgumentParser(prog="perfbench/run.py")
    ap.add_argument("--workload", required=True,
                    choices=[w["name"] for w in spec["workloads"]])
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, required=True)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = ap.parse_args(argv)

    root = Path.cwd()
    if not (root / "src" / "cctt" / "cli.py").is_file():
        return fail(f"no checker sources at {root / 'src' / 'cctt'};"
                    " run from the root of a cctt checkout")
    if args.workload == "corpus" and not (root / "corpus").is_dir():
        return fail(f"no corpus at {root / 'corpus'}")
    # The build: bytecode for every module, so that the timed import reads
    # compiled files, as an installed `cctt` does.
    if not compileall.compile_dir(root / "src" / "cctt", quiet=1):
        return fail("src/cctt does not compile")

    try:
        run = child(root, [args.workload, str(args.seed), str(args.seconds),
                           str(args.trace)])
    except (RuntimeError, subprocess.TimeoutExpired, ValueError) as err:
        return fail(str(err))

    values = dict(run["metrics"])
    values.setdefault("setup_s", statistics.median(run["setup_s_samples"]))
    units = {m["name"]: m["unit"] for m in spec["end_to_end"]
             + spec["per_layer"]}
    # Reported, but not a bounded metric: it is 0 on two workloads.
    units["failed_share"] = "ratio"
    metrics = {}
    for m in spec["per_layer" if args.trace else "end_to_end"]:
        if m["name"] not in values:
            return fail(f"the worker did not measure {m['name']}")
        metrics[m["name"]] = {"value": values[m["name"]], "unit": m["unit"]}
    correct = not run["problems"]

    record = {
        "workload": args.workload,
        "seed": args.seed,
        "seconds": args.seconds,
        "trace": args.trace,
        "python": run["python"],
        "nproc": os.cpu_count(),
        "cpus_available": run["pid_cpus"],
        "git_commit": git_commit(root),
        "source_sha256": source_digest(root),
        "correct": correct,
        "problems": run["problems"],
        **{k: v for k, v in run.items()
           if k not in ("metrics", "problems", "python", "pid_cpus")},
        "metrics": {k: {"value": v, "unit": units.get(k, "")}
                    for k, v in values.items()},
    }
    out_dir = HERE / "results"
    out_dir.mkdir(exist_ok=True)
    out = out_dir / f"{args.workload}-seed{args.seed}-trace{args.trace}.json"
    out.write_text(json.dumps(record, indent=2) + "\n")

    for problem in run["problems"]:
        print(f"problem: {problem}")
    for name, m in record["metrics"].items():
        print(f"{name} {m['value']:.6g} {m.get('unit', '')}".rstrip())
    if not args.trace:
        n = run["samples"]
        print(f"over the best of {n['per_item']} passes for each of"
              f" {n['declarations']} declarations and {n['files']} files;"
              f" decl_ms_tail is"
              f" p{run['decl_ms_tail_percentile']:.4g}")
    print(f"results: {out.relative_to(root)}")
    print(json.dumps({"correct": correct, "attempted": run["attempted"],
                      "failed": run["failed"], "metrics": metrics}))
    return 0 if correct else 1


if __name__ == "__main__":
    sys.exit(main())
