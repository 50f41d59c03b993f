"""The dependency surface is honest: a clean install of the declared
dependencies imports every module of the package.

Offline and static: every ``import``/``from … import`` under
``src/repro`` is read with the AST, and each third-party top-level
module must be a dependency declared in ``pyproject.toml``.
"""

import ast
import re
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parents[1]
PACKAGE = ROOT / "src" / "repro"


def declared_dependencies() -> set[str]:
    """Import names of ``[project] dependencies`` in pyproject.toml."""
    text = (ROOT / "pyproject.toml").read_text()
    block = re.search(r"^dependencies\s*=\s*\[(.*?)\]", text, re.M | re.S)
    assert block, "pyproject.toml declares no [project] dependencies"
    names = set()
    for spec in re.findall(r"[\"']([^\"']+)[\"']", block.group(1)):
        name = re.match(r"[A-Za-z0-9_.-]+", spec).group(0)
        names.add(name.lower().replace("-", "_"))
    return names


def third_party_imports() -> dict[str, set[str]]:
    """Top-level third-party module -> files importing it."""
    found: dict[str, set[str]] = {}
    for path in sorted(PACKAGE.rglob("*.py")):
        for node in ast.walk(ast.parse(path.read_text(), filename=str(path))):
            if isinstance(node, ast.Import):
                modules = [alias.name for alias in node.names]
            elif isinstance(node, ast.ImportFrom) and node.level == 0:
                modules = [node.module]
            else:
                continue
            for module in modules:
                top = module.split(".")[0]
                if top != "repro" and top not in sys.stdlib_module_names:
                    found.setdefault(top, set()).add(
                        str(path.relative_to(ROOT)))
    return found


def test_every_third_party_import_is_declared():
    declared = declared_dependencies()
    undeclared = {module: sorted(files)
                  for module, files in third_party_imports().items()
                  if module not in declared}
    assert not undeclared, f"undeclared third-party imports: {undeclared}"
