"""No test-only code in src/: every public top-level definition, and every
public method and property of a class, has a caller.

A caller is a name or attribute in the package's own code outside the
definition itself (docstrings and comments do not count), or a mention in
perfbench/, whose tracer names the functions it times in strings.
`oracle.py` is exempt: it is the independent brute-force ground truth, kept
whole for the tests to compare against.
"""

import ast
import re
from collections import Counter
from pathlib import Path

ROOT = Path(__file__).resolve().parents[1]
SRC = ROOT / "src" / "pauliblock"
PERFBENCH = ROOT / "perfbench"
# The literal Kraus-sum generator, the dense reference for evolve's class-value one.
KEPT_REFERENCES = {"lindblad_rhs"}


def _names(node) -> Counter:
    """Every Name id and Attribute attr under node, with multiplicity."""
    found = Counter()
    for sub in ast.walk(node):
        if isinstance(sub, ast.Name):
            found[sub.id] += 1
        elif isinstance(sub, ast.Attribute):
            found[sub.attr] += 1
    return found


def _public_definitions(tree):
    """(name, node) of each public top-level function and class, and of each
    public method or property of those classes, as "Class.method"."""
    for node in tree.body:
        if not isinstance(node, (ast.FunctionDef, ast.ClassDef)) or node.name.startswith("_"):
            continue
        yield node.name, node
        if isinstance(node, ast.ClassDef):
            for member in node.body:
                if isinstance(member, ast.FunctionDef) and not member.name.startswith("_"):
                    yield f"{node.name}.{member.name}", member


def test_every_public_definition_in_src_has_a_caller():
    trees = {path.name: ast.parse(path.read_text()) for path in sorted(SRC.glob("*.py"))}
    used = sum((_names(tree) for tree in trees.values()), Counter())
    perfbench = "\n".join(path.read_text() for path in sorted(PERFBENCH.glob("*.py")))
    uncalled = set()
    for name, tree in trees.items():
        if name == "oracle.py":
            continue
        for qualified, node in _public_definitions(tree):
            outside = used[node.name] - _names(node)[node.name]
            if outside == 0 and not re.search(rf"\b{node.name}\b", perfbench):
                uncalled.add(qualified)
    assert uncalled == KEPT_REFERENCES
