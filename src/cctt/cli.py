"""Batch checking: `check_file` checks one file's declarations in order
in the empty context and reports one `PASS|FAIL|SKIP file:decl` line per
declaration.  The command line is `cctt.__main__`.
"""

from __future__ import annotations

import re

from .checker import CheckState, check, check_is_type
from .conversion import conv, whnf
from .errors import CcttError, ParseError, UnboundVariable
from .parser import (
    ConvCheck, DataDefinition, Definition, surface_module,
)
from .syntax import ClockElim, Con, Context, Hit, TopRef


# A file that must not parse says so in a pragma at the start of a line;
# the same text inside a comment does not count.
EXPECT_PARSE_ERROR = re.compile(r"^[ \t]*--expect-fail\(ParseError\)",
                                re.MULTILINE)


def referenced_names(*objs):
    """The top-level names the objects mention, found by walking their
    record fields and tuples on an explicit stack, so that nesting depth
    costs no Python frames."""
    out = set()
    stack = list(objs)
    while stack:
        obj = stack.pop()
        match obj:
            case TopRef(name) | Hit(name=name) | Con(name=name) \
                    | ClockElim(name=name):
                out.add(name)
        names = getattr(type(obj), "_fields", None)
        if names is not None:
            stack += (getattr(obj, name) for name in names)
        elif isinstance(obj, tuple):
            stack += obj
    return out


class Report:
    def __init__(self):
        self.lines = []
        self.failed = 0

    def record(self, status, path, decl, detail=None):
        line = f"{status} {path}:{decl}"
        if detail:
            line += f"  [{detail}]"
        print(line)
        self.lines.append((status, path, decl))
        if status == "FAIL":
            self.failed += 1


def _run_decl(state, path, decl, trace):
    """Check one elaborated declaration: add a definition or a data type
    to state (None), or check a pragma's conversion and return whether it
    came out as expected."""
    match decl:
        case Definition(name=name, ty=ty, body=body):
            state.add_definition(name, ty, body)
            return None
        case DataDefinition(sig=sig):
            state.add_signature(sig)
            return None
        case ConvCheck(name=name, ty=ty, lhs=lhs, rhs=rhs,
                       want_equal=want):
            ctx = Context()
            check_is_type(state, ctx, ty)
            check(state, ctx, lhs, ty)
            check(state, ctx, rhs, ty)
            got = conv(state, ctx, ty, lhs, rhs)
            if trace:
                print(f"TRACE {path}:{name}:"
                      f" {whnf(state, ctx, lhs)!r}"
                      f" ~ {whnf(state, ctx, rhs)!r}")
            return got == want
    raise TypeError(f"not a declaration: {decl!r}")


def check_file(path, text, max_steps, report, trace=False):
    if EXPECT_PARSE_ERROR.search(text):
        try:
            surface_module(text)
        except ParseError:
            report.record("PASS", path, "module")
            return
        report.record("FAIL", path, "module",
                      "expected a parse error, but the file parsed")
        return
    try:
        decls = surface_module(text)
    except ParseError as err:
        report.record("FAIL", path, "module", str(err))
        return
    state = CheckState(max_steps=max_steps)
    failed = set()
    for name, expect, decl in decls:
        # A declaration that did not elaborate stands for its error.
        err = decl if isinstance(decl, CcttError) else None
        skip = False
        conv_ok = None
        if err is None:
            try:
                # A data type's boundaries name the data type itself.
                if failed and (referenced_names(decl) - {name}) & failed:
                    skip = True
                else:
                    conv_ok = _run_decl(state, path, decl, trace)
            except CcttError as e:
                err = e
        if isinstance(err, UnboundVariable) \
                and err.payload.get("name") in failed:
            skip = True
        if skip:
            report.record("SKIP", path, name)
            failed.add(name)
            continue
        if conv_ok is not None:
            # Conversion expectations carry their own verdict.
            if conv_ok:
                report.record("PASS", path, name)
            else:
                report.record("FAIL", path, name,
                              "conversion check came out the other way")
            continue
        if expect is not None and expect[0] == "fail":
            if err is None:
                report.record("FAIL", path, name,
                              f"expected {expect[1]}, but it checked")
                failed.add(name)
            elif err.error_class == expect[1]:
                report.record("PASS", path, name)
                failed.add(name)
            else:
                report.record("FAIL", path, name,
                              f"expected {expect[1]}, got"
                              f" {err.error_class}: {err.message}")
                failed.add(name)
            continue
        if err is None:
            report.record("PASS", path, name)
            # A failed declaration of the same name before no longer
            # stands for this one.
            failed.discard(name)
        else:
            report.record("FAIL", path, name,
                          f"{err.error_class}: {err.message}")
            failed.add(name)
