"""Static checks on `src/eqlat`."""

import ast
from pathlib import Path

import pytest

PACKAGE = Path(__file__).resolve().parents[1] / "src" / "eqlat"
SOURCES = sorted(PACKAGE.glob("*.py"))


@pytest.mark.parametrize("path", SOURCES, ids=lambda p: p.name)
def test_no_assert_statements(path):
    # invariants must be explicit checks that survive python -O
    tree = ast.parse(path.read_text(), filename=str(path))
    lines = [node.lineno for node in ast.walk(tree) if isinstance(node, ast.Assert)]
    assert not lines, f"{path.name}: assert at lines {lines}; raise an exception instead"


def package_imports(tree):
    """eqlat modules imported by a module, relatively or absolutely."""
    names = []
    for node in ast.walk(tree):
        if isinstance(node, ast.Import):
            names += [a.name for a in node.names]
        elif isinstance(node, ast.ImportFrom):
            base = ".".join(filter(None, ["eqlat" if node.level else "", node.module]))
            names += [f"{base}.{a.name}" for a in node.names]
    # a bare "import eqlat" runs __init__, which imports every module
    return {(n.split(".") + ["__init__"])[1] for n in names if n.split(".")[0] == "eqlat"}


def import_closure(module):
    """eqlat modules that importing `module` loads, itself excluded."""
    seen, todo = set(), [module]
    while todo:
        path = PACKAGE / f"{todo.pop()}.py"
        for name in package_imports(ast.parse(path.read_text(), filename=str(path))):
            if name not in seen:
                seen.add(name)
                todo.append(name)
    return seen - {module}


def test_oracle_imports_only_intmath_and_lattice():
    # the oracle checks the closed forms, so it may not share their code,
    # not even through a module it imports
    imports = import_closure("oracle")
    assert imports and imports <= {"intmath", "lattice"}, f"oracle.py loads {sorted(imports)}"
