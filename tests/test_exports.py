"""Public surface: every name a module exports or the benchmark imports
exists, and no module, test or demo imports a name it never uses."""

import ast
import importlib
import inspect
import pkgutil
from pathlib import Path

import pytest

import seva
import seva.adapt
import seva.runner

MODULES = sorted(info.name for info in pkgutil.iter_modules(seva.__path__))
ROOT = Path(__file__).resolve().parent.parent
SCRIPTS = sorted((ROOT / "tests").glob("*.py")) + sorted((ROOT / "demos").glob("*.py"))
BENCH = sorted((ROOT / "bench").glob("*.py"))


def seva_imports(source: str) -> list[tuple[str, str]]:
    """(module, name) of every ``from seva… import name`` in ``source``,
    nested imports included."""
    return [
        (node.module, alias.name)
        for node in ast.walk(ast.parse(source))
        if isinstance(node, ast.ImportFrom) and node.level == 0 and node.module.split(".")[0] == "seva"
        for alias in node.names
    ]


def test_seva_import_reader_sees_nested_imports():
    source = "import seva\nfrom seva import a, b as c\nfrom numpy import d\ndef f():\n    from seva.x import e\n"
    assert seva_imports(source) == [("seva", "a"), ("seva", "b"), ("seva.x", "e")]


def resolves(module: str, name: str) -> bool:
    """Whether ``from module import name`` succeeds: an attribute of the
    module or one of its submodules."""
    if hasattr(importlib.import_module(module), name):
        return True
    try:
        importlib.import_module(f"{module}.{name}")
    except ModuleNotFoundError:
        return False
    return True


def wanted_names(source: str) -> list[tuple[str, str]]:
    """(module, name) pairs that must resolve: a module's ``__all__``, or
    for "bench" every seva name that a ``bench/*.py`` file imports."""
    if source == "bench":
        return [pair for path in BENCH for pair in seva_imports(path.read_text(encoding="utf-8"))]
    module = importlib.import_module(f"seva.{source}")
    return [(module.__name__, n) for n in getattr(module, "__all__", ())]


# "bench" fails here, in tier-1, when a refactor deletes a name the
# benchmark imports, rather than in a benchmark run.
@pytest.mark.parametrize("name", MODULES + ["bench"])
def test_every_exported_name_resolves(name):
    wanted = wanted_names(name)
    assert name != "bench" or wanted  # the reader found the benchmark's imports
    missing = [f"{module}.{n}" for module, n in wanted if not resolves(module, n)]
    assert missing == [], f"{name} wants {missing}, which do not resolve"


def unused_imports(source: str) -> list[str]:
    """Names bound by import statements that no expression in ``source``
    reads; an identifier written as a string, as in a forward-reference
    annotation or ``__all__``, counts as a read."""
    tree = ast.parse(source)
    imported = set()
    for node in ast.walk(tree):
        if isinstance(node, ast.Import):
            imported |= {alias.asname or alias.name.split(".")[0] for alias in node.names}
        elif isinstance(node, ast.ImportFrom) and node.module != "__future__":
            imported |= {alias.asname or alias.name for alias in node.names}
    read = set()
    for node in ast.walk(tree):
        if isinstance(node, ast.Name):
            read.add(node.id)
        elif isinstance(node, ast.Constant) and isinstance(node.value, str) and node.value.isidentifier():
            read.add(node.value)
    return sorted(imported - read)


def test_unused_import_check_sees_unused_names():
    source = "import os\nimport json\nfrom x import a, b as c\nfrom y import d\njson.dumps(c)\nv: 'd'\n"
    assert unused_imports(source) == ["a", "os"]


# MODULES holds the submodules only: the package __init__ imports names to
# re-export them.
@pytest.mark.parametrize("name", MODULES)
def test_no_module_imports_a_name_it_never_uses(name):
    source = inspect.getsource(importlib.import_module(f"seva.{name}"))
    assert unused_imports(source) == [], f"seva.{name} imports names it never uses"


@pytest.mark.parametrize("path", SCRIPTS, ids=lambda p: f"{p.parent.name}/{p.name}")
def test_no_test_or_demo_imports_a_name_it_never_uses(path):
    assert unused_imports(path.read_text(encoding="utf-8")) == [], f"{path.name} imports names it never uses"


def private_attribute_reads(source: str) -> list[str]:
    """``obj.attr`` expressions in ``source`` whose attribute name starts
    with an underscore, dunders aside."""
    return sorted(
        f"{ast.unparse(node.value)}.{node.attr}"
        for node in ast.walk(ast.parse(source))
        if isinstance(node, ast.Attribute) and node.attr.startswith("_") and not node.attr.startswith("__")
    )


def test_private_attribute_check_sees_private_reads():
    source = "if not engine._window:\n    engine._open_window(b.inputs)\nengine.replay(x.__dict__)\n"
    assert private_attribute_reads(source) == ["engine._open_window", "engine._window"]


# The engine's replay state stays behind AdaptEngine.replay: the evaluator
# loop and the runner drive it through public methods only.
@pytest.mark.parametrize("driver", [seva.adapt.run_stream, seva.runner], ids=["adapt.run_stream", "runner"])
def test_no_engine_driver_reads_a_private_attribute(driver):
    assert private_attribute_reads(inspect.getsource(driver)) == []
