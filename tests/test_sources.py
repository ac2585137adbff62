"""The package sources compile without warnings."""

import warnings
from pathlib import Path

import cctt.cli

SOURCES = sorted(Path(cctt.cli.__file__).resolve().parent.glob("*.py"))


def test_sources_compile_without_warnings():
    assert SOURCES
    for path in SOURCES:
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            compile(path.read_text(encoding="utf-8"), str(path), "exec")
