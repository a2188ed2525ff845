"""The package's modules import each other in one direction only.

The layers run errors < numerics < glm < reclass < inference < sim < cli,
with spline beside them, above errors and below cli. A module may import
only modules below it, so no import cycle can form. ``cli`` alone may
import the package itself, for ``__version__``. The package's public names,
listed in its imports and again in ``__all__``, are pinned here too, as
is the independence of the tests' mixture-tail references, which import
nothing from the package.
"""

import ast
import inspect
from pathlib import Path

import pytest

TESTS = Path(__file__).resolve().parent
PACKAGE = TESTS.parent / "src" / "mnri"
CHAIN = ("errors", "numerics", "glm", "reclass", "inference", "sim", "cli")

# Each module and the modules it may import; "__init__" is the package.
ALLOWED = {name: set(CHAIN[:i]) for i, name in enumerate(CHAIN)}
ALLOWED["spline"] = {"errors"}
ALLOWED["cli"] |= {"spline", "__init__"}


def package_imports(path: Path) -> set[str]:
    """The package modules ``path`` imports, at any depth of its code."""
    found = set()
    for node in ast.walk(ast.parse(path.read_text(encoding="utf-8"))):
        if isinstance(node, ast.ImportFrom) and node.level:
            assert node.level == 1, f"{path.name}: import reaches above the package"
            if node.module:
                found.add(node.module.split(".")[0])
            else:  # from . import name: a module, or a name of the package
                found |= {a.name if a.name in ALLOWED else "__init__" for a in node.names}
        elif isinstance(node, ast.ImportFrom) and node.module.split(".")[0] == "mnri":
            parts = node.module.split(".")
            found.add(parts[1] if len(parts) > 1 else "__init__")
        elif isinstance(node, ast.Import):
            for alias in node.names:
                parts = alias.name.split(".")
                if parts[0] == "mnri":
                    found.add(parts[1] if len(parts) > 1 else "__init__")
    return found


MODULES = sorted(p.stem for p in PACKAGE.glob("*.py") if p.stem != "__init__")


def test_every_module_has_a_layer():
    assert set(MODULES) == set(ALLOWED)


@pytest.mark.parametrize("module", MODULES)
def test_imports_only_lower_layers(module):
    imported = package_imports(PACKAGE / f"{module}.py")
    assert imported <= ALLOWED[module], sorted(imported - ALLOWED[module])


def test_public_names_resolve():
    # The package's names are listed twice, in its imports and in __all__.
    # Each listed name must resolve, once, and star-import as that object;
    # each imported public name must be listed.
    import mnri

    namespace = {}
    exec("from mnri import *", namespace)
    del namespace["__builtins__"]
    assert len(set(mnri.__all__)) == len(mnri.__all__)
    assert sorted(namespace) == sorted(mnri.__all__)
    for name, value in namespace.items():
        assert value is getattr(mnri, name), name
    public = {
        name for name, value in vars(mnri).items()
        if not name.startswith("_") and not inspect.ismodule(value)
    }
    assert public | {"__version__"} == set(mnri.__all__)


def test_mixture_reference_imports_nothing_from_the_package():
    # The references check the program's tails, so they share none of its code.
    assert package_imports(TESTS / "mixture_reference.py") == set()
