"""What ``benchmarks/census.py`` means by *function* and by *entered*.

Runs no traffic: a synthetic package, one child interpreter under the same
``usercustomize`` hook the real census installs.
"""

import sys
from pathlib import Path

import pytest

BENCHMARKS = Path(__file__).resolve().parents[1] / "benchmarks"

MODULE = '''\
import functools
def outer():
    def nested(): pass
    return nested
@functools.lru_cache
def decorated(): pass
class C:
    def method(self): pass
def generator():
    yield 1
'''
# ``held`` keeps the generator alive: CPython 3.11 enters an unstarted
# generator's frame once, to throw GeneratorExit, when it is discarded
DRIVER = (
    "import pkg.mod as m; m.outer(); m.decorated(); m.C().method();"
    " held = m.generator()"
)


@pytest.fixture
def census(monkeypatch):
    monkeypatch.syspath_prepend(str(BENCHMARKS))
    import census

    return census


def test_function_and_entered_on_a_synthetic_package(census, tmp_path):
    package = tmp_path / "pkg"
    package.mkdir()
    (package / "__init__.py").write_text("")
    (package / "mod.py").write_text(MODULE)

    # every def counts, nested ones included; a decorated def is keyed by
    # its first decorator's line, which is its code object's first line
    assert census.defined_functions(package) == {
        ("mod.py", 2): "outer",
        ("mod.py", 3): "outer.<locals>.nested",
        ("mod.py", 5): "decorated",
        ("mod.py", 8): "C.method",
        ("mod.py", 9): "generator",
    }

    entered = census.entered_by(
        [[sys.executable, "-c", DRIVER]], package, tmp_path, tmp_path
    )
    # a generator function that is called but never advanced raises no
    # ``call`` event: it is never-called, like the nested def nobody ran
    assert census.never_called(package, entered) == [
        "mod.py::generator",
        "mod.py::outer.<locals>.nested",
    ]


def test_check_needs_the_keep_file_to_be_exact(census, tmp_path):
    keep = tmp_path / "keep.txt"
    keep.write_text(
        "# header\n"
        "a.py::kept  # safety: error path\n"
        "a.py::stale  # the language\n"
        "a.py::bare\n"
    )
    kept = census.read_keep_file(keep)
    assert kept["a.py::kept"] == "safety: error path"
    assert census.check(["a.py::kept", "a.py::bare", "a.py::new"], kept) == [
        "never called and not listed: a.py::new",
        "listed but now called or gone: a.py::stale",
        "listed without a reason: a.py::bare",
    ]
