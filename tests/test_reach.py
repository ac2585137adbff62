"""Every function defined in `src/cctt` is entered when the checker runs on
its inputs, or is listed below with the reason it is not.

A subprocess starts a profile hook (`sys.setprofile`) before `cctt` is
imported, runs `cctt check --corpus corpus --trace-conv` and then
`cli.check_file` on the seed-1 inputs of the benchmark's workloads
(`perfbench/workloads.py`, read and not run), and reports the code objects
it entered in `src/cctt`.  The corpus is checked with a step budget of
100000: every file but `neg/fuel-exhausted.cctt` takes under 200 steps,
and that one still runs out, in a tenth of the time.

A function that no input reaches either gets a corpus file that reaches
it, with what it computes checked, or is deleted with what only it calls.
So the list only shrinks: a listed function that is entered fails too.
"""

import json
import os
import subprocess
import sys
import types
from inspect import CO_NEWLOCALS
from functools import lru_cache
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
PACKAGE = ROOT / "src" / "cctt"

# The scale workload's Church product of 800 successors runs out of Python
# frames in conversion, so the batch would end at it.
LEFT_OUT = ("scale/kernel800.cctt",)

PROBE = """
import contextlib, importlib.util, io, json, sys
from pathlib import Path
package, workloads, left_out = sys.argv[1], sys.argv[2], sys.argv[3:]
entered = set()
add = entered.add
sys.setprofile(lambda frame, event, arg: add(frame.f_code))
import cctt.__main__, cctt.cli
spec = importlib.util.spec_from_file_location("workloads", workloads)
gen = importlib.util.module_from_spec(spec)
sys.modules["workloads"] = gen   # its dataclass looks the module up
spec.loader.exec_module(gen)
with contextlib.redirect_stdout(io.StringIO()):
    cctt.__main__.main(["check", "--corpus", "corpus", "--trace-conv",
                        "--max-steps", "100000"])
    report = cctt.cli.Report()
    for make in gen.GENERATORS.values():
        for item in make(1, "."):
            if item.path not in left_out:
                cctt.cli.check_file(item.path, item.text, 1_000_000, report)
sys.setprofile(None)
print(json.dumps(sorted({
    Path(code.co_filename).stem + ":" + code.co_qualname
    for code in entered if code.co_filename.startswith(package)})))
"""

# Functions no input enters, each with the reason it stays.
UNREACHED = {
    **dict.fromkeys((
        "conversion:comp_eval", "conversion:hit_comp_decompose",
        "conversion:hfill", "conversion:is_neutral",
        "conversion:subst_ival1", "conversion:_mentions_ival0",
        "conversion:_ctrans_args", "conversion:_elim_hcomp",
        "conversion:_fill_bwd", "conversion:_fill_fwd", "conversion:_filler",
        "conversion:_trans_con", "conversion:_trans_hcomp",
        "conversion:_trans_step", "conversion:_conv_comp",
        "conversion:_system_covers", "interval:face_split",
        "interval:face_of_equation", "checker:_check_hcomp",
        "checker:_check_trans",
    ), "the Kan cluster: no input composes, transports or compares "
       "systems (ROADMAP item 14)"),
    **dict.fromkeys((
        "conversion:_nlam", "conversion:_weaken_case",
        "conversion:_weaken_elim", "syntax:Substitution.under",
    ), "a recursive argument of function arity: no input's data type has "
       "one (ROADMAP item 14)"),
    "conversion:_project": "Σ projections: Σ has no surface syntax "
                           "(ROADMAP item 14)",
    "syntax:_fresh_clock": "a forcing tick payload meeting a simple tick "
                           "application: no forcing beta rule meets one",
    "syntax:weaken_tick": "a tick payload moved past binders: no "
                          "substitution or closure comparison reads one "
                          "under a binder",
    "syntax:_side_iv": "closure_equal meets no interval expression",
    "interval:join": "`\\/` on interval expressions (`IJoin`, `FOr`): no "
                     "input writes one",
    "parser:Elaborator.face_end": "a face equation not written "
                                  "`(i = 0)` plainly: none is",
    "cli:referenced_names": "runs when a declaration follows a failed one "
                            "in its file: none does",
    **dict.fromkeys((
        "interval:face_dnf", "interval:iv_normalize", "ticks:identity_subst",
    ), "traced by the benchmark only (test_sources.TRACED_ONLY)"),
    **dict.fromkeys((
        "parser:print_module", "parser:_print_bnd", "parser:_print_ctor",
        "parser:_print_data", "parser:_expect_line", "parser:_unshift1",
        "parser:_Printer.__init__", "parser:_Printer._case",
        "parser:_Printer._comp", "parser:_Printer.atom",
        "parser:_Printer.fresh", "parser:_Printer.iv",
        "parser:_Printer.iv.<locals>.literal", "parser:_Printer.lookup",
        "parser:_Printer.push", "parser:_Printer.term",
        "parser:_Printer.tick",
    ), "the printer: only the print/parse round trip calls it"),
    "parser:parse_module": "the tests' entry point to the parser",
    **dict.fromkeys((
        "syntax:Context.__iter__", "syntax:Context.__len__",
        "syntax:Telescope.__iter__", "syntax:Telescope.__len__",
    ), "container protocol for the tests: the package reads the fields"),
    **dict.fromkeys((
        "syntax:_keyword_repr.<locals>.__repr__", "syntax:Tirr.__repr__",
        "interval:Face.__repr__",
    ), "a repr no message of these inputs prints"),
    "syntax:_equality.<locals>.__hash__": "no record is hashed on these "
                                          "inputs",
    "syntax:_immutable": "raises when a record is written to",
}


def _defined():
    """Each function defined in the package, as "module:qualname":
    every code object that makes a new scope, but comprehensions and
    lambdas."""
    found = set()
    for path in sorted(PACKAGE.glob("*.py")):
        stack = [compile(path.read_text(encoding="utf-8"), str(path),
                         "exec")]
        while stack:
            code = stack.pop()
            stack += (c for c in code.co_consts
                      if isinstance(c, types.CodeType))
            if code.co_flags & CO_NEWLOCALS \
                    and not code.co_name.startswith("<"):
                found.add(f"{path.stem}:{code.co_qualname}")
    return found


@lru_cache(maxsize=None)
def _entered():
    proc = subprocess.run(
        [sys.executable, "-c", PROBE, str(PACKAGE),
         str(ROOT / "perfbench" / "workloads.py"), *LEFT_OUT],
        cwd=ROOT, env=dict(os.environ, PYTHONPATH=str(ROOT / "src"),
                           PYTHONHASHSEED="0"),
        capture_output=True, text=True, check=True, timeout=120)
    return frozenset(json.loads(proc.stdout))


def test_every_function_is_entered_or_listed():
    missed = _defined() - _entered() - set(UNREACHED)
    assert not missed, sorted(missed)


def test_no_listed_function_is_entered_or_gone():
    listed = set(UNREACHED)
    assert not listed & _entered(), sorted(listed & _entered())
    assert listed <= _defined(), sorted(listed - _defined())
