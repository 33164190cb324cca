"""No function, class or method under src/hesspave is there for tests alone.

The scan parses every module of the package, collects each function, class
and method name it defines (dunders excluded), and requires each name to be
referenced as an ast.Name or ast.Attribute somewhere in the package, unless
ALLOWED names it with a reason.  A name called only from other test-only
code still counts as referenced, so such a chain escapes the scan: a method
used only by another test-only method, or a function used only by a
test-only wrapper, is caught only once its last caller goes.
"""

import ast
from pathlib import Path

PACKAGE = Path(__file__).resolve().parent.parent / "src" / "hesspave"

ALLOWED = {
    "orbit_roots": "perfbench/tracing.py binds it; tests use it as the reference",
    "generic_conjugate": "perfbench/tracing.py binds it as a span",
    "complement_roots": "perfbench/tracing.py binds it as a span",
    "restricted_orbit_roots": "perfbench/tracing.py binds it as a span",
    "act": "perfbench/tracing.py binds WeylElement.act as a span",
    "unitriangular_conjugate": "tests/test_acceptance.py calls it",
    "verify_adform": "tests/test_acceptance.py calls it",
    "nonoverlap_check": "tests/test_acceptance.py calls it",
    "all_hess_functions": "tests/test_acceptance.py calls it",
    "peterson_cells": "an acceptance helper that ROADMAP item 6 keeps",
    "identity": "tests/test_perfbench_contract.py imports it",
    "inverse": "WeylElement's group inverse, beside __mul__ and identity; "
               "the Euclidean references in the tests act by it",
}


def _scan():
    defined, referenced = set(), set()
    for path in sorted(PACKAGE.glob("*.py")):
        for node in ast.walk(ast.parse(path.read_text(), str(path))):
            if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef,
                                 ast.ClassDef)):
                if not (node.name.startswith("__") and node.name.endswith("__")):
                    defined.add(node.name)
            elif isinstance(node, ast.Name):
                referenced.add(node.id)
            elif isinstance(node, ast.Attribute):
                referenced.add(node.attr)
    return defined, referenced


def test_every_defined_name_is_used_in_src_or_allowed():
    defined, referenced = _scan()
    unused = defined - referenced
    assert unused - ALLOWED.keys() == set(), "names only tests use"
    assert ALLOWED.keys() - unused == set(), "allowlist entries no longer needed"
