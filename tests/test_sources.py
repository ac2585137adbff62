"""The package sources compile without warnings, import only at module
level and only names they use, read every parameter they take but those
listed with a reason, `import cctt.cli` loads none of `argparse`,
`dataclasses`, `inspect` and `typing`, every function the benchmark's
tracer wraps exists (the parser's on the path a check takes), every
count of binders given to a weakening or a lift is a tuple of counts, and
the checker instantiates no term eagerly, and conversion's comparisons
and eliminator rule materialise none."""

import ast
import contextlib
import importlib
import importlib.util
import io
import json
import os
import subprocess
import sys
import warnings
from pathlib import Path

import cctt.cli
from oracles import reference_tokenize

SOURCES = sorted(Path(cctt.cli.__file__).resolve().parent.glob("*.py"))
ROOT = Path(__file__).resolve().parent.parent
LAYERS = ROOT / "perfbench" / "layers.py"
CORPUS = ROOT / "corpus"


def test_sources_compile_without_warnings():
    assert SOURCES
    for path in SOURCES:
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            compile(path.read_text(encoding="utf-8"), str(path), "exec")


def test_no_function_local_imports():
    found = set()
    for path in SOURCES:
        tree = ast.parse(path.read_text(encoding="utf-8"), str(path))
        for fn in ast.walk(tree):
            if isinstance(fn, (ast.FunctionDef, ast.AsyncFunctionDef)):
                for node in ast.walk(fn):
                    if isinstance(node, (ast.Import, ast.ImportFrom)):
                        found.add((path.name, fn.name))
    assert not found, sorted(found)


def test_cli_imports_no_argparse_dataclasses_inspect_or_typing():
    # `-S`: a site-packages path file may import `typing` before the test.
    # The command line, which needs `argparse`, is `cctt.__main__`.
    probe = ("import sys, cctt.cli; print(sorted({'argparse', 'dataclasses',"
             " 'inspect', 'typing'} & set(sys.modules)))")
    proc = subprocess.run([sys.executable, "-S", "-c", probe],
                          env=dict(os.environ, PYTHONPATH=str(ROOT / "src")),
                          capture_output=True, text=True, check=True)
    assert proc.stdout.strip() == "[]"


def _unused_imports(sources):
    """The names each module in sources imports but never reads, as
    "module:name"; a `__future__` import names a feature, not a value."""
    unused = []
    for module, text in sources:
        tree = ast.parse(text, module)
        imported = set()
        for node in ast.walk(tree):
            if isinstance(node, ast.Import):
                imported |= {alias.asname or alias.name.partition(".")[0]
                             for alias in node.names}
            elif isinstance(node, ast.ImportFrom) \
                    and node.module != "__future__":
                imported |= {alias.asname or alias.name
                             for alias in node.names}
        read = {node.id for node in ast.walk(tree)
                if isinstance(node, ast.Name)}
        unused += (f"{module}:{name}" for name in imported - read)
    return sorted(unused)


def test_no_unused_imports():
    unused = _unused_imports(_package())
    assert not unused, unused


def test_unused_imports_are_found():
    # Imports never read by the name they bind (local, regex), and one
    # only an attribute of the same name reads (stale), are unused; a
    # `__future__` import and a dotted import read by its first part are
    # not.
    sources = [("a.py", """
from __future__ import annotations
import os.path
import re as regex
from .b import (
    kept, stale, shadowed as local,
)

def f(x):
    return kept(x).stale + os.sep
""")]
    assert _unused_imports(sources) == ["a.py:local", "a.py:regex",
                                        "a.py:stale"]


# The functions, and the method, that take counts of binders: a 4-tuple,
# one count per sort.
_COUNTED = {"weaken", "weaken_tick", "weaken_iv", "under"}


def _called(call):
    """The name a call calls: a function's, or an attribute's."""
    fn = call.func
    return fn.attr if isinstance(fn, ast.Attribute) else \
        getattr(fn, "id", None)


def _counts_spelled_otherwise(sources):
    """The calls in sources, as "module:line", that give a function of
    `_COUNTED` a count built from a list display, a dict or a sort name
    rather than a tuple of counts."""
    found = []
    for module, text in sources:
        for node in ast.walk(ast.parse(text, module)):
            if not isinstance(node, ast.Call):
                continue
            name = _called(node)
            if name not in _COUNTED:
                continue
            counts = [*(node.args if name == "under" else node.args[1:]),
                      *(k.value for k in node.keywords)]
            if any(isinstance(x, (ast.List, ast.ListComp, ast.Dict,
                                  ast.DictComp))
                   or isinstance(x, ast.Name)
                   and x.id in ("TERM", "CLOCK", "TICK", "IVAL")
                   for count in counts for x in ast.walk(count)):
                found.append(f"{module}:{node.lineno}")
    return found


def test_counts_of_binders_are_tuples():
    found = _counts_spelled_otherwise(_package())
    assert not found, found


def test_counts_spelled_otherwise_are_found():
    sources = [("a.py", """
weaken(t, I1, I1)
weaken(t, [IVAL])
weaken_iv(phi, [TERM] * n + [IVAL], cut={IVAL: 1})
weaken_tick(u, (0, 0, 1, 0), cut=dict(zip(SORTS, [0, 1, 0, 0])))
env.under(C1)
env.under(CLOCK, TICK)
""")]
    assert _counts_spelled_otherwise(sources) == [
        "a.py:3", "a.py:4", "a.py:5", "a.py:7"]


# The helpers that instantiate a variable of a term by walking it.
_EAGER = {"subst1", "subst_ival1", "subst_clock1", "subst_tick1",
          "subst_force1"}


def _eager_instantiations(sources):
    """The calls in sources, as "module:line", that instantiate a term
    eagerly: a helper of `_EAGER`, or `subst_apply` applying a substitution
    built in place by `subst`."""
    found = []
    for module, text in sources:
        for node in ast.walk(ast.parse(text, module)):
            if not isinstance(node, ast.Call):
                continue
            name = _called(node)
            if name in _EAGER or name == "subst_apply" and any(
                    isinstance(x, ast.Call) and _called(x) == "subst"
                    for x in node.args[:1]):
                found.append(f"{module}:{node.lineno}")
    return found


def test_checker_instantiates_nothing_eagerly():
    # The checker's codomains, motives, telescopes and endpoints stay
    # pending, as closures.
    found = _eager_instantiations(
        [(module, text) for module, text in _package()
         if module == "checker.py"])
    assert not found, found


def test_eager_instantiations_are_found():
    sources = [("a.py", """
subst1(ctx.counts, fty.cod, arg)
conversion.subst_ival1(scope, body, IZERO)
subst_clock1(scope, t, k); subst_tick1(scope, t, u)
subst_force1(scope, body, k, u)
subst_apply(subst(ctx.counts, terms=outer), ty)
ticks.subst_apply(syntax.subst(scope, ivals=(r,)), t)
subst_apply(env, body)
Closure(ty, subst(scope, ivals=(IZERO,), fresh=I1))
""")]
    assert _eager_instantiations(sources) == [
        "a.py:2", "a.py:3", "a.py:4", "a.py:4", "a.py:5", "a.py:6", "a.py:7"]


# The functions of `conversion` that compare or reduce under environments,
# and the calls that would materialise a term there.
_PENDING = {"_conv_clause", "_conv_con", "elim_reduce", "_elim_con"}
_MATERIALISING = {"weaken", "subst_apply", "_materialise", "force"}


def _materialisations(sources):
    """The calls in sources, as "module:function:line", that a function of
    `_PENDING` makes to a function of `_MATERIALISING`."""
    found = []
    for module, text in sources:
        for fn in ast.walk(ast.parse(text, module)):
            if isinstance(fn, ast.FunctionDef) and fn.name in _PENDING:
                found += sorted(
                    (node.lineno, f"{module}:{fn.name}:{node.lineno}")
                    for node in ast.walk(fn) if isinstance(node, ast.Call)
                    and _called(node) in _MATERIALISING)
    return [call for _, call in found]


def test_conversion_materialises_nothing_under_environments():
    # Eta at a binder type compares both sides applied to the bound
    # variable, pending; constructors are compared, and eliminators
    # reduced, under their environments.
    found = _materialisations(
        [(module, text) for module, text in _package()
         if module == "conversion.py"])
    assert not found, found


def test_materialisations_are_found():
    # The calls these functions made before they worked under
    # environments.
    sources = [("a.py", """
def _conv_clause(state, ctx, ty, t, u):
    t, u = force(t), force(u)
    return App(weaken(t, T1), Var(0))

def elim_reduce(state, ctx, elim, env=None):
    if n and env is not None:
        elim, env = subst_apply(env, elim), None
    return _elim_hcomp(ctx.counts, _materialise(elim, env), head)

def _elim_con(state, ctx, elim, env, con, cenv):
    return conversion.force(x)

def conv_tm(state, ctx, t, u):
    return _materialise(t, te)
""")]
    assert _materialisations(sources) == [
        "a.py:_conv_clause:3", "a.py:_conv_clause:3", "a.py:_conv_clause:4",
        "a.py:elim_reduce:8", "a.py:elim_reduce:9", "a.py:_elim_con:12"]


def _unused_parameters(sources):
    """The parameters of each function (or lambda) in sources that its
    body never reads, as "module:function:parameter".  A read anywhere in
    the body counts, in a nested function too; a method's `self` or `cls`
    is passed whether it is read or not."""
    unused = []
    for module, text in sources:
        for fn in ast.walk(ast.parse(text, module)):
            if not isinstance(fn, (ast.FunctionDef, ast.AsyncFunctionDef,
                                   ast.Lambda)):
                continue
            args = fn.args
            params = {a.arg for a in (*args.posonlyargs, *args.args,
                                      *args.kwonlyargs, args.vararg,
                                      args.kwarg) if a is not None}
            body = fn.body if isinstance(fn.body, list) else [fn.body]
            read = {node.id for stmt in body for node in ast.walk(stmt)
                    if isinstance(node, ast.Name)}
            name = getattr(fn, "name", "<lambda>")
            unused += (f"{module}:{name}:{param}"
                       for param in params - read - {"self", "cls"})
    return sorted(unused)


# Parameters no code reads, each with the reason it stays.
UNREAD_PARAMETERS = {
    "syntax.py:_immutable:value": "`__setattr__` is called with the value"
                                  " to set, `__delattr__` without",
}


def test_no_unused_parameters():
    unused = [entry for entry in _unused_parameters(_package())
              if entry not in UNREAD_PARAMETERS]
    assert not unused, unused


def test_unused_parameters_are_found():
    # Parameters read nowhere (state, flag, rest, z) are unused; self, and
    # parameters read in a nested function, its defaults or a lambda, are
    # not.
    sources = [("a.py", """
def f(state, ctx, flag=False, *rest, **options):
    def g(x=ctx):
        return options["x"] + x
    return g()

class C:
    def m(self, k):
        return (lambda y, z: k + y)(1, 2)
""")]
    assert _unused_parameters(sources) == [
        "a.py:<lambda>:z", "a.py:f:flag", "a.py:f:rest", "a.py:f:state"]


def _layers():
    """The benchmark's tracer module, `perfbench/layers.py`."""
    spec = importlib.util.spec_from_file_location("perfbench_layers", LAYERS)
    layers = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(layers)
    return layers


def _targets():
    """The benchmark tracer's `TARGETS`: layer -> traced qualified names."""
    return _layers().TARGETS


def test_traced_functions_exist():
    # A renamed function would otherwise only fail a traced benchmark run.
    targets = _targets()
    assert targets
    for layer, qualnames in targets.items():
        module = importlib.import_module(f"cctt.{layer}")
        for qualname in qualnames:
            owner = module
            *path, attr = qualname.split(".")
            for part in path:
                owner = getattr(owner, part)
            assert callable(vars(owner).get(attr)), f"cctt.{layer}.{qualname}"


def _traced_check(path):
    """The benchmark's tracer, installed while `cli.check_file` checks the
    corpus file at path, and the report."""
    tracer = _layers().Tracer()
    report = cctt.cli.Report()
    tracer.install()
    try:
        with contextlib.redirect_stdout(io.StringIO()):
            cctt.cli.check_file(str(path), path.read_text(encoding="utf-8"),
                                1_000_000, report)
    finally:
        tracer.uninstall()
    return tracer, report


def test_traced_parser_functions_are_on_the_checking_path():
    # The benchmark times the front end by these two names, so each must
    # run as `cli.check_file` checks a file, not stand beside it.
    tracer, report = _traced_check(CORPUS / "05-hits" / "spheres.cctt")
    assert tracer.calls["parser.surface_module"] == 1
    assert len(report.lines) > 1
    assert tracer.calls["parser.Elaborator.decl"] == len(report.lines)


def test_traced_token_count_is_the_modules_tokens():
    # The benchmark's `parser.tokens` is the length of what `tokenize`
    # returns: one call per module, one item per token and end of input.
    path = CORPUS / "05-hits" / "spheres.cctt"
    tracer, _ = _traced_check(path)
    assert tracer.calls["parser.tokenize"] == 1
    text = path.read_text(encoding="utf-8")
    assert tracer.tokens == len(reference_tokenize(text))


# Checks the 300-deep `succ` literal of the `scale` workload's
# `paren300.cctt` at the default recursion limit, with the benchmark's
# tracer installed and without, and prints each run's verdict lines and
# steps.
TRACED_DEPTH_PROBE = """
import contextlib, importlib.util, io, json, sys
import cctt.cli
sys.path.insert(0, sys.argv[2])
from test_corpus import deep_literal_file
spec = importlib.util.spec_from_file_location("layers", sys.argv[1])
layers = importlib.util.module_from_spec(spec)
spec.loader.exec_module(layers)
states = []
class Recording(cctt.cli.CheckState):
    def __init__(self, *args, **kwargs):
        super().__init__(*args, **kwargs)
        states.append(self)
cctt.cli.CheckState = Recording
runs = []
for traced in (True, False):
    tracer = layers.Tracer()
    if traced:
        tracer.install()
    report = cctt.cli.Report()
    try:
        with contextlib.redirect_stdout(io.StringIO()):
            cctt.cli.check_file("deep.cctt", deep_literal_file(), 10**6,
                                report)
    finally:
        if traced:
            tracer.uninstall()
    runs.append([report.lines, states.pop().steps])
print(json.dumps([sys.getrecursionlimit(), runs]))
"""


def test_deep_literal_checks_alike_traced_and_untraced():
    # The benchmark's traced pass compares its verdicts and steps with the
    # untraced pass's, so both must finish, at the default recursion limit.
    proc = subprocess.run(
        [sys.executable, "-c", TRACED_DEPTH_PROBE, str(LAYERS),
         str(ROOT / "tests")],
        env=dict(os.environ, PYTHONPATH=str(ROOT / "src")),
        capture_output=True, text=True, check=True)
    limit, (traced, untraced) = json.loads(proc.stdout)
    assert limit == 1000
    assert traced == untraced
    assert [status for status, _, _ in traced[0]] == ["PASS", "PASS"]


def test_traced_substitution_functions_are_on_the_checking_path():
    # The benchmark times renaming and substitution by these names: each
    # must be an entry the checker takes, not an alias beside the walker.
    tracer, report = _traced_check(CORPUS / "03-ticks" / "stream.cctt")
    assert report.lines and report.failed == 0
    for name in ("syntax.rename_term", "syntax.weaken", "ticks.subst_apply"):
        assert tracer.calls[name] > 0, name


# Top-level definitions no other package code names, each with the reason
# it stays.
UNREFERENCED = {
    "parse_module": "the tests' entry point to the parser",
    "print_module": "the printer of the print/parse round trip",
    "CheckState.step": "one step of the reference machine in"
                       " tests/oracles.py; the kernel's machine counts its"
                       " steps inline",
}

# Top-level definitions kept only because the benchmark traces them: no
# package code may use them, and each must still be traced.
TRACED_ONLY = {
    "identity_subst": "traced as ticks.identity_subst; the checker builds "
                      "substitutions with syntax.subst",
    "face_dnf": "traced as interval.face_dnf; a face is its own clause set",
    "iv_normalize": "traced as interval.iv_normalize; an interval "
                    "expression is its own normal form",
}


def _package():
    """The package sources as (module file name, text) pairs."""
    return [(path.name, path.read_text(encoding="utf-8")) for path in SOURCES]


def _definitions(sources):
    """Each definition's module; for each name the definitions of code in
    sources naming it (as an AST Name or Attribute; None for code outside
    any definition); and for each name the definitions reading it as a
    method (see `_method_reads`).  A definition is a top-level function or
    class, or a method of a top-level class, held by its qualified name;
    code inside a method is owned by the method."""
    defined = {}
    named = {}
    methods = {}
    trees = [(module, ast.parse(text, module)) for module, text in sources]
    stored = {node.attr for _, tree in trees for node in ast.walk(tree)
              if isinstance(node, ast.Attribute)
              and isinstance(node.ctx, ast.Store)}

    def note(tree, owner):
        for node in ast.walk(tree):
            if isinstance(node, ast.Name):
                named.setdefault(node.id, set()).add(owner)
            elif isinstance(node, ast.Attribute):
                named.setdefault(node.attr, set()).add(owner)
        for attr in _method_reads(tree, stored):
            methods.setdefault(attr, set()).add(owner)

    for module, tree in trees:
        for top in tree.body:
            if isinstance(top, ast.FunctionDef):
                defined[top.name] = module
                note(top, (module, top.name))
            elif isinstance(top, ast.ClassDef):
                defined[top.name] = module
                for item in top.body:
                    if isinstance(item, ast.FunctionDef):
                        qualname = f"{top.name}.{item.name}"
                        defined[qualname] = module
                        note(item, (module, qualname))
                    else:
                        note(item, (module, top.name))
                for node in (*top.bases, *top.decorator_list):
                    note(node, (module, top.name))
            else:
                note(top, None)
    return defined, named, methods


def _method_reads(tree, stored):
    """The attribute names tree reads as it would read a method: every
    attribute it loads, except that a name some package code also stores
    as an attribute (an instance's field, which may share the name) counts
    only where it is called."""
    calls = {id(node.func) for node in ast.walk(tree)
             if isinstance(node, ast.Call)}
    return {node.attr for node in ast.walk(tree)
            if isinstance(node, ast.Attribute)
            and isinstance(node.ctx, ast.Load)
            and (node.attr not in stored or id(node) in calls)}


def _is_dunder(name):
    return name.startswith("__") and name.endswith("__")


def _dead(sources):
    """The definitions in sources that no code outside their own
    definition uses, as "module:qualname".  A top-level function or class
    must be named there (a class's own methods are inside it), and a
    method other than a dunder must be read as one there (of any object: a
    method shares its name with every other method of that name)."""
    defined, named, methods = _definitions(sources)
    dead = []
    for qualname, module in defined.items():
        cls, _, name = qualname.rpartition(".")
        users = (methods if cls else named).get(name, set())
        own = {(module, qualname)} | {
            (module, inner) for inner in defined
            if inner.startswith(qualname + ".")}
        if not _is_dunder(name) and not users - own:
            dead.append(f"{module}:{qualname}")
    return sorted(dead)


def test_no_dead_definitions():
    # Every definition is used outside itself, or listed above.
    dead = [entry for entry in _dead(_package())
            if entry.partition(":")[2] not in UNREFERENCED
            and entry.partition(":")[2] not in TRACED_ONLY]
    assert not dead, dead


def test_dead_definitions_are_found():
    # A class its own methods alone name, a method that only calls
    # itself, and a function only its own body names are dead; a dunder,
    # a method called from elsewhere and a class named outside it are not.
    sources = [("a.py", """
class Lonely:
    def make(self):
        return Lonely()
    def __init__(self):
        pass

class Used:
    def step(self, n):
        return self.step(n - 1)
    def run(self):
        return 0

def loop(n):
    return loop(n)

def main():
    return Used().run()
"""), ("b.py", "from a import main\nmain()\n")]
    assert _dead(sources) == ["a.py:Lonely", "a.py:Lonely.make",
                              "a.py:Used.step", "a.py:loop"]


def test_traced_only_definitions_are_traced_and_unused():
    defined, named, _ = _definitions(_package())
    traced = {qualname.split(".")[0] for qualnames in _targets().values()
              for qualname in qualnames}
    for name in TRACED_ONLY:
        assert name in defined, name
        assert name in traced, f"{name} is no longer traced"
        users = named.get(name, set()) - {(defined[name], name)}
        assert not users, f"{name} is used by {sorted(users, key=str)}"
