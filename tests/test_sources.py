"""The package sources compile without warnings and import only at module
level, and every function the benchmark's tracer wraps exists (the
parser's on the path a check takes)."""

import ast
import contextlib
import importlib
import importlib.util
import io
import warnings
from pathlib import Path

import cctt.cli

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


def _definitions():
    """Each top-level definition's module, and for each name the top-level
    definitions of package code naming it (as an AST Name or Attribute;
    None for code outside any definition)."""
    defined = {}
    named = {}
    for path in SOURCES:
        tree = ast.parse(path.read_text(encoding="utf-8"), str(path))
        for top in tree.body:
            owner = None
            if isinstance(top, (ast.FunctionDef, ast.ClassDef)):
                owner = (path.name, top.name)
                defined[top.name] = path.name
            for node in ast.walk(top):
                if isinstance(node, ast.Name):
                    named.setdefault(node.id, set()).add(owner)
                elif isinstance(node, ast.Attribute):
                    named.setdefault(node.attr, set()).add(owner)
    return defined, named


def test_no_dead_definitions():
    # A top-level function or class must be named by package code outside
    # its own definition, or be listed above.
    defined, named = _definitions()
    dead = sorted(
        f"{module}:{name}" for name, module in defined.items()
        if not named.get(name, set()) - {(module, name)}
        and name not in UNREFERENCED and name not in TRACED_ONLY
    )
    assert not dead, dead


def test_traced_only_definitions_are_traced_and_unused():
    defined, named = _definitions()
    traced = {qualname.split(".")[0] for qualnames in _targets().values()
              for qualname in qualnames}
    for name in TRACED_ONLY:
        assert name in defined, name
        assert name in traced, f"{name} is no longer traced"
        users = named.get(name, set()) - {(defined[name], name)}
        assert not users, f"{name} is used by {sorted(users, key=str)}"
