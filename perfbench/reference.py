"""Fixed pieces of Python work that measure how fast the host runs now.

    python3 perfbench/reference.py          # median probe times, in seconds

The benchmark runs on a shared host whose speed changes with what other
tenants do: by up to about 1.8x, sometimes for a whole run.  The worker
therefore asks a probe process, between files all through a run, to time
two fixed pieces of work that share no code with the checker, so that no
change to the checker changes their times:

- `interp`, a small normalizer for untyped lambda terms in the checker's
  style (frozen dataclasses, de Bruijn indices, recursive substitution),
  which keeps its data in the caches and is bound by the interpreter;
- `memory`, a walk over a large linked structure in a shuffled order,
  which is bound by memory latency.

In slow spells the first slowed down more than the checker and the second
less, and the geometric mean of the two followed it.  The probe process
holds the large structure, so that it does not count in the worker's peak
memory.  See perfbench/NOTES.md, "Noise".
"""

from __future__ import annotations

import bisect
import math
import os
import random
import statistics
import subprocess
import sys
import time
from dataclasses import dataclass

# About the median probe times on an unloaded host (Intel Xeon, 2 vCPUs,
# Python 3.11); `slowdown` is 1 at these times.
NOMINAL_S = {"interp": 0.0025, "memory": 0.0025}
# The host's speed at a moment is judged from the probes this close to it.
WINDOW_S = 10.0


@dataclass(frozen=True)
class Var:
    ix: int


@dataclass(frozen=True)
class Lam:
    body: object


@dataclass(frozen=True)
class App:
    fn: object
    arg: object


def shift(t, d, cutoff=0):
    if isinstance(t, Var):
        return Var(t.ix + d) if t.ix >= cutoff else t
    if isinstance(t, Lam):
        return Lam(shift(t.body, d, cutoff + 1))
    return App(shift(t.fn, d, cutoff), shift(t.arg, d, cutoff))


def subst(t, j, s):
    """`t` with index `j` replaced by `s`, and the indices above it
    lowered by one."""
    if isinstance(t, Var):
        if t.ix == j:
            return shift(s, j)
        return Var(t.ix - 1) if t.ix > j else t
    if isinstance(t, Lam):
        return Lam(subst(t.body, j + 1, s))
    return App(subst(t.fn, j, s), subst(t.arg, j, s))


def normalize(t):
    if isinstance(t, Lam):
        return Lam(normalize(t.body))
    if isinstance(t, App):
        fn = normalize(t.fn)
        if isinstance(fn, Lam):
            return normalize(subst(fn.body, 0, t.arg))
        return App(fn, normalize(t.arg))
    return t


def church(n):
    body = Var(0)
    for _ in range(n):
        body = App(Var(1), body)
    return Lam(Lam(body))


# \m. \n. \f. m (n f)
MUL = Lam(Lam(Lam(App(Var(2), App(Var(1), Var(0))))))
TERM = App(App(MUL, App(App(MUL, church(4)), church(5))), church(6))
EXPECTED = church(120)


def interp():
    if normalize(TERM) != EXPECTED:
        raise AssertionError("the reference normalizer gave a wrong answer")


class Node:
    __slots__ = ("value", "pair", "next")

    def __init__(self, value):
        self.value = value
        self.pair = (value, value + 1)
        self.next = None


# About 45 MB: well past the caches, as the checker's heap is past L2.
NODES = 300_000
WALK = 6_000


def chain():
    """The first of `NODES` nodes linked in a fixed shuffled order."""
    nodes = [Node(i) for i in range(NODES)]
    order = list(range(NODES))
    random.Random(0).shuffle(order)
    for a, b in zip(order, order[1:]):
        nodes[a].next = nodes[b]
    nodes[order[-1]].next = nodes[order[0]]
    return nodes[order[0]]


def walk(start):
    node, total, seen = start, 0, []
    for _ in range(WALK):
        total += node.value + node.pair[1]
        seen.append((node.value, total))
        node = node.next
    return node


def serve():
    """Answer each line on stdin with the times of one `interp` and one
    `memory` probe; end at end of input."""
    node = chain()
    print("ready", flush=True)
    for _ in sys.stdin:
        start = time.perf_counter()
        interp()
        middle = time.perf_counter()
        node = walk(node)
        end = time.perf_counter()
        print(f"{middle - start!r} {end - middle!r}", flush=True)


class Prober:
    """A probe process on the CPU of the caller, and the probe times it
    gave, each with the `perf_counter` time at which it was asked."""

    def __init__(self):
        self.at = []
        self.times = []  # per probe, one time per entry of NOMINAL_S
        self.proc = subprocess.Popen(
            [sys.executable, __file__, "--serve"], stdin=subprocess.PIPE,
            stdout=subprocess.PIPE, text=True, bufsize=1)
        # Wait while it builds its structure, which would slow this
        # process down.
        if self.proc.stdout.readline() != "ready\n":
            raise RuntimeError("the reference probe process did not start")

    def sample(self):
        at = time.perf_counter()
        self.proc.stdin.write("\n")
        line = self.proc.stdout.readline()
        if not line:
            raise RuntimeError("the reference probe process ended")
        self.at.append(at)
        self.times.append(tuple(map(float, line.split())))

    def slowdown(self, at):
        """How much slower than nominal the host ran around time `at`: the
        geometric mean, over the two probes, of their median time within
        `WINDOW_S` of `at` over its nominal time."""
        lo = bisect.bisect_left(self.at, at - WINDOW_S)
        hi = bisect.bisect_right(self.at, at + WINDOW_S)
        if lo == hi:  # none that close: the nearest on either side
            lo, hi = max(lo - 1, 0), hi + 1
        near = self.times[lo:hi]
        return math.sqrt(math.prod(statistics.median(t[k] for t in near)
                                   / nominal
                                   for k, nominal
                                   in enumerate(NOMINAL_S.values())))

    def medians(self):
        return {name: statistics.median(t[k] for t in self.times)
                for k, name in enumerate(NOMINAL_S)}

    def close(self):
        self.proc.stdin.close()
        self.proc.wait(timeout=30)
        self.proc.stdout.close()


def pin_to_current_cpu():
    """Keep this process, and those it starts, on the CPU it runs on, so
    that the probes and the checker meet the same load."""
    try:
        with open("/proc/self/stat") as f:
            cpu = int(f.read().rsplit(")", 1)[1].split()[36])
        os.sched_setaffinity(0, {cpu})
    except (OSError, ValueError, IndexError, AttributeError):
        pass


if __name__ == "__main__":
    if sys.argv[1:] == ["--serve"]:
        serve()
    else:
        prober = Prober()
        try:
            for _ in range(300):
                prober.sample()
        finally:
            prober.close()
        print({k: round(v, 6) for k, v in prober.medians().items()})
