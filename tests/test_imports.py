"""Import boundaries inside the package, read from the source with ast.

The oracle's brute force is an independent check on the deciders only as
long as it shares none of their machinery, so it may read the network and
the type names and nothing else.  The cross-check against it lives in one
place, bcnobs.cli.cross_check, which the scripts call rather than repeat.
"""

import ast
from pathlib import Path

import bcnobs

PACKAGE = Path(bcnobs.__file__).resolve().parent
SCRIPTS = Path(__file__).resolve().parent.parent / "scripts"


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


def test_scripts_leave_the_oracle_to_the_cli():
    scripts = sorted(SCRIPTS.glob("*.py"))
    assert scripts
    for path in scripts:
        tree = ast.parse(path.read_text(encoding="utf-8"))
        names = {node.id for node in ast.walk(tree) if isinstance(node, ast.Name)}
        names |= {node.attr for node in ast.walk(tree) if isinstance(node, ast.Attribute)}
        for module, imported in package_imports(path):
            assert module != "bcnobs.oracle", path
            names.update(imported)
        assert not names & {"oracle", "brute_force", "exact_oracle_horizon"}, path
