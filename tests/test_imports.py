"""Import boundaries inside the package, read from the source with ast.

The oracle's brute force is an independent check on the deciders only as
long as it shares none of their machinery, so it may read the network and
the type names and nothing else; it steps states by indexing the network's
maps, and the package has no other stepping code.  The cross-check against it lives in one
place, bcnobs.cli.cross_check, which the scripts call rather than repeat.
The column layouts of a document's L are known to the document parser in
bcnobs.bcnio alone; every other module sees the one layout Bcn stores.
"""

import ast
import os
import subprocess
import sys
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
    assert imports == {("bcnobs.bcn", ("Bcn", "ObservabilityType"))}


def test_oracle_loads_no_graph_machinery():
    """A fresh interpreter importing the oracle loads neither numpy nor any
    module of the deciders."""
    probe = "import sys, bcnobs.oracle; print(' '.join(sorted(sys.modules)))"
    env = dict(os.environ, PYTHONPATH=str(PACKAGE.parent))
    proc = subprocess.run(
        [sys.executable, "-c", probe], capture_output=True, text=True, env=env, timeout=120
    )
    assert proc.returncode == 0, proc.stderr
    loaded = set(proc.stdout.split())
    assert "bcnobs.oracle" in loaded
    banned = {"numpy", "bcnobs.pairgraph", "bcnobs.automata", "bcnobs.observability"}
    assert not loaded & banned


def test_no_scalar_steps_in_the_package():
    """The oracle steps pairs by indexing Bcn's maps; the range-checked
    one-state step and output live in tests/reference.py alone."""
    tree = ast.parse((PACKAGE / "bcn.py").read_text(encoding="utf-8"))
    defined = {node.name for node in ast.walk(tree) if isinstance(node, ast.FunctionDef)}
    assert "check_map" in defined and not defined & {"step", "output"}
    modules = sorted(PACKAGE.glob("*.py"))
    assert modules
    for path in modules:
        for module, names in package_imports(path):
            assert not (module == "bcnobs.bcn" and {"step", "output"} & set(names)), path


def test_no_module_imports_stp():
    modules = sorted(PACKAGE.glob("*.py"))
    assert modules and not (PACKAGE / "stp.py").exists()
    for path in modules:
        for module, names in package_imports(path):
            assert module != "bcnobs.stp" and not (module == "bcnobs" and "stp" in names), path


def test_column_orderings_stay_in_the_document_parser():
    modules = sorted(PACKAGE.glob("*.py"))
    assert PACKAGE / "bcnio.py" in modules
    for path in modules:
        if path.name != "bcnio.py":
            text = path.read_text(encoding="utf-8")
            assert "state-first" not in text and "input-first" not in text, path
    tree = ast.parse((PACKAGE / "bcn.py").read_text(encoding="utf-8"))
    defined = {
        node.name for node in ast.walk(tree) if isinstance(node, (ast.FunctionDef, ast.ClassDef))
    }
    defined |= {
        node.id
        for node in ast.walk(tree)
        if isinstance(node, ast.Name) and isinstance(node.ctx, ast.Store)
    }
    assert "Bcn" in defined and not defined & {"COLUMN_ORDERS", "bcn_from_columns"}


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
