"""The public surface: ``logpool`` exports exactly what its modules list in
their ``__all__``, each listed function or class is defined where it is
listed, every export is used by the package itself or listed in the README's
"Public helpers" table, every listed name exists, every default a public
function offers is set by some caller, the version has one value, the
math modules import no seeded instance generator, and the third-party
modules imported are the declared dependencies."""

import ast
import importlib
import inspect
import re
import sys
from pathlib import Path

import logpool

ROOT = Path(__file__).resolve().parents[1]

#: The modules whose ``__all__`` the package re-exports, in export order.
REEXPORTED = (
    "core", "errors", "pooling", "welfare", "constructions", "factorize", "stability", "persona",
    "jsonio",
)


def test_the_package_exports_what_its_modules_list():
    """A public name is declared once, in its module's ``__all__``."""
    listed = [
        name for module in REEXPORTED
        for name in importlib.import_module(f"logpool.{module}").__all__
    ]
    assert logpool.__all__ == ["__version__", *listed]
    assert len(set(logpool.__all__)) == len(logpool.__all__)


def test_every_listed_function_or_class_is_defined_where_it_is_listed():
    """A name a module imports cannot be re-exported from it by accident."""
    paths = sorted((ROOT / "src" / "logpool").glob("*.py"))
    modules = [importlib.import_module(f"logpool.{p.stem}") for p in paths if p.stem != "__init__"]
    strays = [
        f"{module.__name__}.{name}"
        for module in modules
        for name in module.__all__
        if (inspect.isfunction(obj := getattr(module, name)) or inspect.isclass(obj))
        and obj.__module__ != module.__name__
    ]
    assert strays == []


def test_the_version_in_pyproject_is_the_package_version():
    """``pyproject.toml`` holds the one other copy of ``__version__``; read
    with a regex, as Python 3.10 has no ``tomllib``."""
    project = (ROOT / "pyproject.toml").read_text().split("[project]\n", 1)[1].split("\n[", 1)[0]
    assert re.search(r'^version = "([^"]*)"$', project, re.MULTILINE)[1] == logpool.__version__


def _imports_in_src() -> dict[str, set[str]]:
    """For each module of the package, the top-level names of the modules it
    imports, at any nesting; relative imports do not count."""
    imports = {}
    for path in sorted((ROOT / "src" / "logpool").glob("*.py")):
        names = set()
        for node in ast.walk(ast.parse(path.read_text())):
            if isinstance(node, ast.Import):
                names |= {alias.name.split(".")[0] for alias in node.names}
            elif isinstance(node, ast.ImportFrom) and node.level == 0:
                names.add(node.module.split(".")[0])
        imports[path.stem] = names
    return imports


def test_the_runtime_dependencies_are_what_pyproject_lists():
    """Every third-party module ``src/`` imports is a declared dependency and
    every declared dependency is imported; only ``jsonio`` parses JSON."""
    project = (ROOT / "pyproject.toml").read_text().split("[project]\n", 1)[1].split("\n[", 1)[0]
    listed = re.search(r"^dependencies = \[(.*?)^\]", project, re.MULTILINE | re.DOTALL)[1]
    declared = set(re.findall(r'^\s*"([A-Za-z0-9_]+)', listed, re.MULTILINE))
    imports = _imports_in_src()
    third_party = set().union(*imports.values()) - set(sys.stdlib_module_names) - {"logpool"}
    assert third_party == declared
    assert [name for name, used in imports.items() if used & {"json", "orjson"}] == ["jsonio"]


def _names_used_in_src() -> set[str]:
    """Every name and attribute the package's modules refer to; the package
    ``__init__``, which only re-exports, does not count."""
    used = set()
    for path in (ROOT / "src" / "logpool").glob("*.py"):
        if path.name == "__init__.py":
            continue
        for node in ast.walk(ast.parse(path.read_text())):
            if isinstance(node, ast.Name):
                used.add(node.id)
            elif isinstance(node, ast.Attribute):
                used.add(node.attr)
    return used


def _public_helpers() -> set[str]:
    """The names in the first column of README.md's "Public helpers" table."""
    text = (ROOT / "README.md").read_text()
    section = text.split("### Public helpers", 1)[1].split("\n#", 1)[0]
    return set(re.findall(r"^\| `(\w+)", section, flags=re.MULTILINE))


def test_every_public_name_is_documented_or_used_in_src():
    """An export nothing in the package uses must be listed, with what it
    does, in the README's "Public helpers" table; a word elsewhere in the
    README does not count."""
    listed = _public_helpers()
    used = _names_used_in_src()
    orphans = [name for name in logpool.__all__ if name not in listed | used]
    assert orphans == []


def test_every_module_all_entry_resolves():
    """A stale ``__all__`` entry breaks ``from logpool.<module> import *`` and
    any tool that looks the listed names up with ``getattr``."""
    missing = []
    for path in sorted((ROOT / "src" / "logpool").glob("*.py")):
        name = "logpool" if path.stem == "__init__" else f"logpool.{path.stem}"
        module = importlib.import_module(name)
        listed = getattr(module, "__all__", ())
        missing += [f"{name}.{attr}" for attr in listed if not hasattr(module, attr)]
    assert missing == []


#: The library's math modules: seeded draws live in ``constructions``, and
#: only ``suites`` and ``cli`` (and the tests) call them.
MATH_MODULES = ("core", "pooling", "welfare", "factorize", "stability", "persona", "jsonio")


def test_no_math_module_imports_the_instance_generators():
    """A seeded generator inside a math module (``persona`` once held one,
    taking a stream factory and a size callable) would put a second copy of
    an instance family beside the one in ``constructions``."""
    importers = []
    for name in MATH_MODULES:
        for node in ast.walk(ast.parse((ROOT / "src" / "logpool" / f"{name}.py").read_text())):
            if isinstance(node, ast.ImportFrom) and (
                (node.module or "").split(".")[-1] == "constructions"
                or any(a.name == "constructions" for a in node.names)
            ):
                importers.append(name)
    assert importers == []


def _public_functions() -> dict[str, inspect.Signature]:
    return {
        name: inspect.signature(obj)
        for name in logpool.__all__
        if inspect.isfunction(obj := getattr(logpool, name))
    }


def _passed_arguments(names) -> dict[str, tuple[int, set[str]]]:
    """For each function name, the most positional arguments any call in
    ``src/`` or ``tests/`` passes, and every keyword some call passes.  A call
    with ``*args`` or ``**kwargs`` counts as passing every argument."""
    passed = {name: (0, set()) for name in names}
    for path in sorted((ROOT / "src").rglob("*.py")) + sorted((ROOT / "tests").rglob("*.py")):
        for node in ast.walk(ast.parse(path.read_text())):
            if not isinstance(node, ast.Call):
                continue
            func = node.func
            name = func.id if isinstance(func, ast.Name) else getattr(func, "attr", None)
            if name not in passed:
                continue
            most, keywords = passed[name]
            if any(isinstance(a, ast.Starred) for a in node.args):
                most = max(most, 10**6)
            most = max(most, len(node.args))
            for kw in node.keywords:
                keywords.add("**" if kw.arg is None else kw.arg)
            passed[name] = (most, keywords)
    return passed


def test_every_public_default_is_set_by_some_caller():
    """A default-valued parameter that no call site in ``src/`` or ``tests/``
    passes is a dead knob: it belongs in a module constant."""
    signatures = _public_functions()
    passed = _passed_arguments(signatures)
    dead = []
    for name, sig in signatures.items():
        most, keywords = passed[name]
        for i, param in enumerate(sig.parameters.values()):
            if param.default is inspect.Parameter.empty:
                continue
            by_position = param.kind is not param.KEYWORD_ONLY and i < most
            if not (by_position or param.name in keywords or "**" in keywords):
                dead.append(f"{name}({param.name})")
    assert dead == [], "never-set defaults: " + ", ".join(dead)
