"""The package runs on the standard library alone: every module it imports
is in the standard library or is mackey itself, and it declares no
dependencies. Importing it loads only the modules its API needs."""

import ast
import re
import subprocess
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
SOURCES = sorted((ROOT / "src" / "mackey").glob("*.py"))


def imported_top_level_modules(path: Path) -> set[str]:
    found = set()
    for node in ast.walk(ast.parse(path.read_text(), filename=str(path))):
        if isinstance(node, ast.Import):
            found.update(alias.name.split(".")[0] for alias in node.names)
        elif isinstance(node, ast.ImportFrom):
            # a relative import stays inside the package
            found.add(node.module.split(".")[0] if node.level == 0 else "mackey")
    return found


def test_every_import_is_standard_library_or_the_package():
    assert SOURCES
    for path in SOURCES:
        outside = {name for name in imported_top_level_modules(path)
                   if name != "mackey" and name not in sys.stdlib_module_names}
        assert not outside, (path.name, outside)


def test_the_dependency_list_is_empty():
    text = (ROOT / "pyproject.toml").read_text()
    assert re.search(r"^dependencies = \[\]$", text, re.MULTILINE)


def test_importing_the_package_loads_only_the_modules_of_its_api():
    # the brute-force engine, the checks and the CLI load on demand, so that
    # a process that only computes does not pay for importing them
    code = ("import sys, mackey; "
            "print(*sorted(m for m in sys.modules if m.split('.')[0] == 'mackey'))")
    result = subprocess.run([sys.executable, "-c", code],
                            capture_output=True, text=True, check=True)
    assert result.stdout.split() == [
        "mackey", "mackey.partitions", "mackey.socle", "mackey.symfunc"]
