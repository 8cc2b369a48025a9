"""No test-only code in src/: every public top-level definition has a caller.

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


def test_every_public_definition_in_src_has_a_caller():
    trees = {path.name: ast.parse(path.read_text()) for path in sorted(SRC.glob("*.py"))}
    used = sum((_names(tree) for tree in trees.values()), Counter())
    perfbench = "\n".join(path.read_text() for path in sorted(PERFBENCH.glob("*.py")))
    uncalled = set()
    for name, tree in trees.items():
        if name == "oracle.py":
            continue
        for node in tree.body:
            if not isinstance(node, (ast.FunctionDef, ast.ClassDef)) or node.name.startswith("_"):
                continue
            outside = used[node.name] - _names(node)[node.name]
            if outside == 0 and not re.search(rf"\b{node.name}\b", perfbench):
                uncalled.add(node.name)
    assert uncalled == KEPT_REFERENCES
