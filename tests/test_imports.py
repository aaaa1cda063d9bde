"""Import boundaries inside the package, read from the source with ast.

The oracle's brute force is an independent check on the deciders only as
long as it shares none of their machinery, so it may read the network and
the type names and nothing else.
"""

import ast
from pathlib import Path

import bcnobs

PACKAGE = Path(bcnobs.__file__).resolve().parent


def package_imports(path: Path) -> set[tuple[str, tuple[str, ...]]]:
    """(module, imported names) for each import of bcnobs in one file;
    relative imports are resolved against the package."""
    found = set()
    for node in ast.walk(ast.parse(path.read_text(encoding="utf-8"))):
        if isinstance(node, ast.ImportFrom):
            module = node.module or ""
            if node.level:
                module = f"bcnobs.{module}" if module else "bcnobs"
            if module.split(".")[0] == "bcnobs":
                found.add((module, tuple(sorted(alias.name for alias in node.names))))
        elif isinstance(node, ast.Import):
            found.update(
                (alias.name, ()) for alias in node.names if alias.name.split(".")[0] == "bcnobs"
            )
    return found


def test_oracle_imports_only_the_network_and_type_names():
    imports = package_imports(PACKAGE / "oracle.py")
    assert imports == {
        ("bcnobs.bcn", ("Bcn", "output", "step")),
        ("bcnobs.observability", ("ObservabilityType",)),
    }
    for module, names in imports:
        for banned in ("pairgraph", "automata"):
            assert banned not in module.split(".") and banned not in names


def test_no_module_imports_stp():
    modules = sorted(PACKAGE.glob("*.py"))
    assert modules and not (PACKAGE / "stp.py").exists()
    for path in modules:
        for module, names in package_imports(path):
            assert module != "bcnobs.stp" and not (module == "bcnobs" and "stp" in names), path
