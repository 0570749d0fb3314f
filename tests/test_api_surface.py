"""Every public top-level def and class in the package has a user outside the tests.

A public name that nothing in src/, bench/, scripts/ or README refers to is a
second way of doing a job that the library already does another way, or dead
code. The few names kept for the tests' sake are listed in KEPT_FOR_TESTS
with the reason. Any other unused name fails this test, and so does a listed
name that has since found a user.
"""

import ast
import re
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
PACKAGE = ROOT / "src" / "cohomring"

KEPT_FOR_TESTS = {
    "check_graded_commutativity": "acceptance criterion 09 checks every catalog entry with it",
    "check_laws": "the ring-law checker that the graded-layer tests run",
    "degree_and_lead": "criterion 10 reads the degree of a degree-20000 product with it",
    "dsum_equal": "criteria 02 and 10 compare sparse and dense products with it",
    "uni_sparse": "criteria 01 and 10 build univariate polynomials with it",
    "x_power": "criterion 03 builds univariate monomials with it",
    "uni_eval": "the oracle that test_poly checks mul and convert against",
}


def _referenced(tree) -> set:
    """Identifiers a syntax tree reads: names, attributes and imported names."""
    names = set()
    for node in ast.walk(tree):
        if isinstance(node, ast.Name):
            names.add(node.id)
        elif isinstance(node, ast.Attribute):
            names.add(node.attr)
        elif isinstance(node, ast.alias):
            names.add(node.name.rsplit(".", 1)[-1])
    return names


def _unused_public_names() -> set:
    defined = {}  # name -> (module path, index of its top-level statement)
    used = set()
    for path in sorted(PACKAGE.glob("*.py")):
        if path.name == "__init__.py":
            continue
        body = ast.parse(path.read_text()).body
        for index, node in enumerate(body):
            if isinstance(node, (ast.FunctionDef, ast.ClassDef)) and not node.name.startswith("_"):
                defined[node.name] = (path, index)
        for index, node in enumerate(body):
            # a definition does not use itself, so the statement defining a
            # name is left out when counting that name's users
            for name in _referenced(node):
                if defined.get(name) != (path, index):
                    used.add(name)
    for folder in ("bench", "scripts"):
        for path in sorted((ROOT / folder).glob("*.py")):
            used |= _referenced(ast.parse(path.read_text()))
    used |= set(re.findall(r"[A-Za-z_]\w*", (ROOT / "README.md").read_text()))
    return set(defined) - used


def test_every_public_name_has_a_user_or_a_reason():
    assert _unused_public_names() == set(KEPT_FOR_TESTS)
