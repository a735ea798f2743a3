"""The third-party modules the package imports are exactly the
dependencies ``pyproject.toml`` declares, so neither can drift from the
other."""

import ast
import re
import sys
from pathlib import Path

try:
    import tomllib  # py311+
except ModuleNotFoundError:
    import tomli as tomllib

ROOT = Path(__file__).resolve().parents[1]


def imported_modules() -> set[str]:
    """The top-level name of every absolute import under ``src/radcal``,
    function-level imports too, less the standard library and radcal."""
    names = set()
    for path in (ROOT / "src" / "radcal").glob("*.py"):
        for node in ast.walk(ast.parse(path.read_text(), str(path))):
            if isinstance(node, ast.Import):
                names.update(alias.name.split(".")[0] for alias in node.names)
            elif isinstance(node, ast.ImportFrom) and node.level == 0:
                names.add(node.module.split(".")[0])
    return names - set(sys.stdlib_module_names) - {"radcal"}


def declared() -> dict[str, str]:
    """Each entry of the project's ``dependencies`` by its module name."""
    project = tomllib.loads((ROOT / "pyproject.toml").read_text())["project"]
    return {
        re.match(r"[\w.-]+", spec).group().lower().replace("-", "_"): spec
        for spec in project["dependencies"]
    }


def test_every_third_party_import_is_declared_and_used():
    assert imported_modules() == declared().keys()


def test_tomli_is_declared_for_python_310_only():
    # cli reads TOML with tomllib from python 3.11 on
    assert declared()["tomli"].endswith("; python_version < '3.11'")
