"""One benchmark workload, run in a fresh single-threaded process.

    python3 perfbench/worker.py --probe
    python3 perfbench/worker.py WORKLOAD SEED SECONDS TRACE

`run.py` starts this with `PYTHONPATH` set to the checkout's `src`.  The
first thing it does is time `import cctt.cli`: that import is the set-up
every `cctt check` invocation pays.  With `--probe` it prints that time and
exits; otherwise it generates the workload's inputs from the seed, checks
them with `cctt.cli.check_file` in a closed loop (one caller, which waits
for each file's verdicts before sending the next) and prints one JSON
object.  With TRACE 1 it alternates untraced and traced passes over the
same inputs and reports per-layer figures instead of end-to-end ones.
"""

import sys
import time

_import_start = time.perf_counter()
import cctt.cli  # noqa: E402  (timed: the set-up of every `cctt check`)
SETUP_S = time.perf_counter() - _import_start

import json  # noqa: E402
import os  # noqa: E402
import resource  # noqa: E402
import statistics  # noqa: E402
import subprocess  # noqa: E402
from dataclasses import dataclass  # noqa: E402
from pathlib import Path  # noqa: E402

import layers  # noqa: E402
import reference  # noqa: E402
import workloads  # noqa: E402

# `cctt check`'s default step budget per file.
MAX_STEPS = 1_000_000
# decl_ms_tail is the declaration time with TAIL_BEYOND declarations of a
# pass above it: the highest percentile with that many samples beyond it.
TAIL_BEYOND = 10
# Every run checks a second pass against the first.
MIN_PASSES = 2
# Fresh processes that time the import, besides this one, spread evenly over
# the run: the host's speed drifts over tens of seconds, and probes taken
# all at once would all see the same moment.
SETUP_PROBES = 10
# Between files, the reference probes run once for every this much time
# gone by since they last ran.
REFERENCE_EVERY_S = 0.05


class TimedReport(cctt.cli.Report):
    """A `Report` that keeps each verdict with the time it was reached, and
    prints nothing."""

    def __init__(self):
        super().__init__()
        self.stamps = []
        self.details = []

    def record(self, status, path, decl, detail=None):
        self.stamps.append(time.perf_counter())
        self.lines.append((status, decl))
        self.details.append(detail)
        if status == "FAIL":
            self.failed += 1


@dataclass
class Outcome:
    verdicts: tuple  # ((status, declaration), ...)
    crash: str  # exception class name, or None
    steps: int
    start: float  # perf_counter time at which the check began
    file_s: float
    decl_s: list  # time from the previous verdict, or the file's start
    first_detail: str  # detail of the first verdict that was not PASS

    def key(self):
        """What must repeat exactly when the same input is checked again.

        Where the check crashed, the steps taken before the crash depend on
        how deep the stack was when it ran out, which tracing changes.
        """
        return self.verdicts, self.crash, None if self.crash else self.steps


class Runner:
    """Checks inputs one file at a time, reading each file's step count
    from the `CheckState` objects `check_file` creates."""

    def __init__(self):
        self._states = []
        real = cctt.cli.CheckState

        def make_state(*args, **kwargs):
            state = real(*args, **kwargs)
            self._states.append(state)
            return state

        cctt.cli.CheckState = make_state

    def check(self, inp, tracer=None):
        self._states.clear()
        report = TimedReport()
        if tracer is not None:
            tracer.reset_stack()
        start = time.perf_counter()
        try:
            cctt.cli.check_file(inp.path, inp.text, MAX_STEPS, report)
            crash = None
        except Exception as err:  # a crash is counted, and the loop goes on
            crash = type(err).__name__
        end = time.perf_counter()
        marks = [start] + report.stamps
        decl_s = [b - a for a, b in zip(marks, marks[1:])]
        detail = next((f"{s} {d}: {x}" for (s, d), x
                       in zip(report.lines, report.details) if s != "PASS"),
                      None)
        return Outcome(tuple(report.lines), crash,
                       sum(s.steps for s in self._states), start,
                       end - start,
                       decl_s, detail)


def probe_setup():
    """Time `import cctt.cli` in a fresh process, as in this one."""
    proc = subprocess.run([sys.executable, __file__, "--probe"],
                          capture_output=True, text=True, timeout=60,
                          check=True)
    return json.loads(proc.stdout)["setup_s"]


def score(inp, out):
    """(failed, wrong) declarations of one checked file.

    Every declaration of a file whose check raised counts as failed.  In a
    file that finished, a declaration fails when its verdict is not `PASS`
    under the expected name; such a verdict is also wrong, since the
    expected answer was known before the checker ran.
    """
    if out.crash is not None:
        return len(inp.expected), 0
    want = [("PASS", name) for name in inp.expected]
    got = list(out.verdicts)
    wrong = sum(g != w for g, w in zip(got, want)) + abs(len(got) - len(want))
    return wrong, wrong


def self_check(name, seed, root):
    """Problems with the determinism of the generator, as strings."""
    gen = workloads.GENERATORS[name]
    first, again, other = gen(seed, root), gen(seed, root), gen(seed + 1, root)
    problems = []
    if first != again:
        problems.append("the same seed gave different inputs")
    if [(i.path, i.text) for i in first] == [(i.path, i.text) for i in other]:
        problems.append("another seed gave the same inputs")

    def size_class(inputs):
        return (len(inputs), sum(len(i.expected) for i in inputs),
                sorted(i.family for i in inputs))

    if size_class(first) != size_class(other):
        problems.append("another seed changed the size class of the inputs")
    a = sum(len(i.text) for i in first)
    b = sum(len(i.text) for i in other)
    if abs(a - b) > 0.1 * a:
        problems.append(f"another seed changed the input size: {a} vs {b}")
    return first, problems


def failed_in(inputs, outcomes):
    return sum(score(inp, out)[0] for inp, out in zip(inputs, outcomes))


def measure(runner, inputs, seconds, problems):
    """Closed loop of untraced passes for `seconds`; end-to-end figures.

    Other tenants of a shared host slow this one down by up to about 1.8x,
    in spells that switch within a fraction of a second and sometimes last
    a whole run.  So the reference probes (`reference.py`) run between
    files all through the run, and each time taken is divided by how much
    slower than nominal the host ran around it.  Each segment of a file is
    then timed by the median over the passes of the run: each declaration
    (from the previous verdict to its own), and the rest of the file after
    its last verdict.  A file's time is the sum of its segments' times, and
    the metrics are taken over those: they are the times of the host at
    its nominal speed.  The record keeps the same figures without the
    division, as `measured`.
    """
    prober = reference.Prober()
    try:
        return _measure(runner, inputs, seconds, problems, prober)
    finally:
        prober.close()


def _measure(runner, inputs, seconds, problems, prober):
    reference_verdicts = None
    last_probe = time.perf_counter() - REFERENCE_EVERY_S
    passes = 0
    checks = []  # (file index, start time, segment times), every pass
    failed = crashed = steps = 0
    setups = [(time.perf_counter(), SETUP_S)]
    start = time.perf_counter()
    while passes < MIN_PASSES or time.perf_counter() - start < seconds:
        due = (len(setups) - 1) * seconds / SETUP_PROBES
        if len(setups) <= SETUP_PROBES and time.perf_counter() - start >= due:
            setups.append((time.perf_counter(), probe_setup()))
        outcomes = []
        for inp in inputs:
            for _ in range(int((time.perf_counter() - last_probe)
                               // REFERENCE_EVERY_S)):
                prober.sample()
                last_probe = time.perf_counter()
            outcomes.append(runner.check(inp))
        keys = [out.key() for out in outcomes]
        if reference_verdicts is None:
            reference_verdicts = keys
            for inp, out in zip(inputs, outcomes):
                if score(inp, out)[1]:
                    problems.append(f"{inp.path}: {out.first_detail}")
        elif keys != reference_verdicts:
            problems.append("a second pass over the same inputs gave other"
                            " verdicts or step counts")
            break
        failed += failed_in(inputs, outcomes)
        crashed += sum(out.crash is not None for out in outcomes)
        for i, out in enumerate(outcomes):
            checks.append((i, out.start,
                           out.decl_s + [out.file_s - sum(out.decl_s)]))
            steps += out.steps
        passes += 1
    wall = time.perf_counter() - start
    while len(setups) <= SETUP_PROBES:
        setups.append((time.perf_counter(), probe_setup()))
    prober.sample()  # the last checks have probes after them too

    def figures(factors, setup_factors):
        """The end-to-end figures, each time divided by its factor."""
        samples = [[] for _ in inputs]  # per file, per pass, per segment
        for (i, _, segments), factor in zip(checks, factors):
            samples[i].append([t / factor for t in segments])
        typical = [[statistics.median(s) for s in zip(*per_pass)]
                   for per_pass in samples]
        file_s = [sum(t) for t in typical]
        decl_s = sorted(t for seg in typical for t in seg[:-1])
        n = len(decl_s)
        return {
            "decls_per_s": n / sum(file_s),
            "decl_ms_p50": 1000 * statistics.median(decl_s),
            "decl_ms_tail": 1000 * decl_s[n - TAIL_BEYOND - 1],
            "file_ms_p50": 1000 * statistics.median(file_s),
            "setup_s": statistics.median(t / f for (_, t), f
                                         in zip(setups, setup_factors)),
        }

    slowdowns = [prober.slowdown(at) for _, at, _ in checks]
    setup_slowdowns = [prober.slowdown(at) for at, _ in setups]
    metrics = figures(slowdowns, setup_slowdowns)
    per_pass = sum(len(inp.expected) for inp in inputs)
    n = sum(len(segments) - 1 for _, _, segments in checks[:len(inputs)])
    metrics["peak_rss_mb"] = peak_rss_mb()
    metrics["failed_share"] = failed / (per_pass * passes)
    return {
        "passes": passes,
        "wall_s": wall,
        "attempted": per_pass * passes,
        "failed": failed,
        "crashed_files": crashed,
        "setup_s_samples": [t for _, t in setups],
        "setup_slowdowns": setup_slowdowns,
        "metrics": metrics,
        "measured": figures([1.0] * len(checks), [1.0] * len(setups)),
        "reference": {
            "probes": len(prober.at),
            "median_s": prober.medians(),
            "nominal_s": reference.NOMINAL_S,
            "window_s": reference.WINDOW_S,
            "slowdown_min": min(slowdowns),
            "slowdown_p50": statistics.median(slowdowns),
            "slowdown_max": max(slowdowns),
        },
        # Each percentile is over one time per declaration (or file), each
        # the median of `passes` samples.
        "samples": {"declarations": n, "files": len(inputs),
                    "per_item": passes},
        "decl_ms_tail_percentile": 100 * (n - TAIL_BEYOND) / n,
        "steps_per_pass": steps // passes,
    }


def measure_traced(runner, inputs, seconds, problems):
    """Alternate untraced and traced passes for `seconds`; per-layer
    figures, per pass, and each input family's self time per layer."""
    tracer = layers.Tracer()
    by_family = {}
    passes = 0
    untraced_s = traced_s = 0.0
    steps = failed = 0
    start = time.perf_counter()
    while passes < MIN_PASSES or time.perf_counter() - start < seconds:
        plain = [runner.check(inp) for inp in inputs]
        tracer.install()
        try:
            traced = []
            for inp in inputs:
                before = tracer.layer_self_s()
                traced.append(runner.check(inp, tracer))
                after = tracer.layer_self_s()
                fam = by_family.setdefault(inp.family,
                                           dict.fromkeys(layers.TARGETS, 0.0))
                for layer in fam:
                    fam[layer] += after[layer] - before[layer]
        finally:
            tracer.uninstall()
        if [o.key() for o in plain] != [o.key() for o in traced]:
            problems.append("the traced pass gave other verdicts or step"
                            " counts than the untraced pass")
        for inp, out in zip(inputs, plain):
            if score(inp, out)[1]:
                problems.append(f"{inp.path}: {out.first_detail}")
        untraced_s += sum(o.file_s for o in plain)
        traced_s += sum(o.file_s for o in traced)
        steps += sum(o.steps for o in plain)
        failed += failed_in(inputs, plain)
        passes += 1
    return {
        "passes": passes,
        "wall_s": time.perf_counter() - start,
        "attempted": passes * sum(len(inp.expected) for inp in inputs),
        "failed": failed,
        "setup_s_samples": [SETUP_S],
        "metrics": layer_metrics(tracer, passes, steps, untraced_s,
                                 traced_s),
        "sites": tracer.sites,
        "family_self_share": {
            family: {layer: s / sum(fam.values()) for layer, s in fam.items()}
            for family, fam in sorted(by_family.items())},
    }


def layer_metrics(tracer, passes, steps, untraced_s, traced_s):
    m = {}
    for name in tracer.names:
        m[f"{name}.calls"] = tracer.calls[name] / passes
        m[f"{name}.self_s"] = tracer.self_s[name] / passes
    parse_s = (tracer.self_s["parser.surface_module"]
               + tracer.self_s["parser.tokenize"])
    m["parser.tokens"] = tracer.tokens / passes
    m["parser.tokens_per_s"] = tracer.tokens / parse_s if parse_s else 0.0
    m["conversion.steps"] = steps / passes
    m["conversion.steps_per_s"] = steps / untraced_s
    whnf_calls = tracer.calls["conversion.whnf"]
    m["conversion.whnf.noop_share"] = (tracer.whnf_noop / whnf_calls
                                       if whnf_calls else 0.0)
    eq_calls = tracer.calls["syntax.structural_equal"]
    m["syntax.structural_equal.hit_share"] = (tracer.structural_hits
                                              / eq_calls if eq_calls else 0.0)
    for layer, own in tracer.layer_self_s().items():
        m[f"{layer}.self_share"] = own / traced_s
    m["trace.overhead_ratio"] = traced_s / untraced_s
    m["trace.traced_s"] = traced_s / passes
    m["trace.untraced_s"] = untraced_s / passes
    return m


def peak_rss_mb():
    # ru_maxrss is in KiB on Linux.
    return resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024


def main(argv):
    if argv == ["--probe"]:
        print(json.dumps({"setup_s": SETUP_S}))
        return 0
    name, seed, seconds, trace = argv[0], int(argv[1]), float(argv[2]), argv[3]
    root = Path.cwd()
    origin = Path(cctt.cli.__file__).resolve()
    if not origin.is_relative_to(root / "src"):
        print(f"cctt was imported from {origin}, not from {root / 'src'}",
              file=sys.stderr)
        return 2
    inputs, problems = self_check(name, seed, root)
    reference.pin_to_current_cpu()
    runner = Runner()
    if trace == "1":
        result = measure_traced(runner, inputs, seconds, problems)
    else:
        result = measure(runner, inputs, seconds, problems)
    result.update({
        "problems": sorted(set(problems)),
        "python": sys.version.split()[0],
        "decls_per_pass": sum(len(i.expected) for i in inputs),
        "input_bytes": sum(len(i.text) for i in inputs),
        "pid_cpus": len(os.sched_getaffinity(0)),
    })
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
