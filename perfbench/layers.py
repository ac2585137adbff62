"""Per-layer tracing from outside the checker.

`Tracer.install()` wraps each function listed in `TARGETS` and rebinds, by
object identity, every global of every loaded `cctt.*` module that holds
it, and the class attribute for methods.  A name brought in with
`from .conversion import whnf`, or by a function-local import (which reads
the module global at call time), therefore reaches the wrapper, and a
refactor that changes which modules import a function keeps it traced, as
long as it stays defined in the module `TARGETS` names.  `uninstall()`
puts the originals back.

Each wrapper counts calls and accumulates self time: the span of the call
minus the spans of the traced calls made inside it.  Spans are kept as
running sums in memory; nothing is written while the checker runs.
"""

from __future__ import annotations

import functools
import sys
import time

# Layer (module of `cctt`) -> functions traced in it, by qualified name.
TARGETS = {
    "parser": ("tokenize", "surface_module", "Elaborator.decl"),
    "checker": ("check", "infer", "CheckState.add_definition",
                "CheckState.add_signature", "check_clock_elim"),
    "conversion": ("whnf", "conv", "comp_eval", "elim_reduce"),
    "ticks": ("subst_apply", "identity_subst", "residual_mask"),
    "syntax": ("rename_term", "weaken", "structural_equal"),
    "interval": ("face_dnf", "face_entails", "iv_normalize"),
    "cli": ("check_file", "referenced_names"),
}


def _lookup(layer, qualname):
    owner = sys.modules[f"cctt.{layer}"]
    *path, attr = qualname.split(".")
    for part in path:
        owner = getattr(owner, part)
    return owner, attr, owner.__dict__[attr]


class Tracer:
    def __init__(self):
        self.names = [f"{layer}.{fn}" for layer, fns in TARGETS.items()
                      for fn in fns]
        self.calls = {name: 0 for name in self.names}
        self.self_s = {name: 0.0 for name in self.names}
        # Results that show wasted or avoided work, counted where it
        # happens: whnf calls that return their input unchanged, and
        # structural_equal calls that answer True.
        self.tokens = 0
        self.whnf_noop = 0
        self.structural_hits = 0
        self._counters = {
            "parser.tokenize": self._count_tokens,
            "conversion.whnf": self._count_whnf_noop,
            "syntax.structural_equal": self._count_structural_hit,
        }
        self.sites = {}  # function name -> number of rebound references
        self._stack = []
        self._undo = []

    def layer_self_s(self):
        """Self time so far, summed per layer."""
        out = dict.fromkeys(TARGETS, 0.0)
        for name, seconds in self.self_s.items():
            out[name.split(".", 1)[0]] += seconds
        return out

    def reset_stack(self):
        """Forget open spans, e.g. after a checker crash unwound past them."""
        self._stack.clear()

    def _wrap(self, name, fn, count=None):
        stack, clock = self._stack, time.perf_counter
        calls, self_s = self.calls, self.self_s

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            child = [0.0]
            stack.append(child)
            start = clock()
            try:
                result = fn(*args, **kwargs)
                if count is not None:
                    count(args, result)
                return result
            finally:
                span = clock() - start
                stack.pop()
                calls[name] += 1
                self_s[name] += span - child[0]
                if stack:
                    stack[-1][0] += span

        return traced

    def _count_tokens(self, args, result):
        self.tokens += len(result)

    def _count_whnf_noop(self, args, result):
        self.whnf_noop += result is args[2]

    def _count_structural_hit(self, args, result):
        self.structural_hits += result is True

    def install(self):
        if self._undo:
            raise RuntimeError("tracer already installed")
        modules = [m for n, m in sorted(sys.modules.items())
                   if n == "cctt" or n.startswith("cctt.")]
        for layer, fns in TARGETS.items():
            for qualname in fns:
                name = f"{layer}.{qualname}"
                owner, attr, fn = _lookup(layer, qualname)
                wrapper = self._wrap(name, fn, self._counters.get(name))
                sites = 0
                if isinstance(owner, type):
                    self._undo.append((owner, attr, fn))
                    setattr(owner, attr, wrapper)
                    sites += 1
                for module in modules:
                    for key, value in list(vars(module).items()):
                        if value is fn:
                            self._undo.append((module, key, fn))
                            setattr(module, key, wrapper)
                            sites += 1
                if not sites:
                    raise RuntimeError(f"{name} is referenced nowhere")
                self.sites[name] = sites

    def uninstall(self):
        while self._undo:
            owner, attr, fn = self._undo.pop()
            setattr(owner, attr, fn)
        self._stack.clear()
