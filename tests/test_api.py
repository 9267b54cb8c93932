"""The public surface: every name ``logpool`` exports is documented in the
README or used by the package itself."""

import ast
import re
from pathlib import Path

import logpool

ROOT = Path(__file__).resolve().parents[1]


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


def test_every_public_name_is_documented_or_used_in_src():
    readme = set(re.findall(r"\w+", (ROOT / "README.md").read_text()))
    used = _names_used_in_src()
    orphans = [name for name in logpool.__all__ if name not in readme | used]
    assert orphans == []
