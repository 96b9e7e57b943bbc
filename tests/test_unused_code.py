"""Every public function, class and method of `tdg` is used inside `tdg`.

The scan parses `src/tdg/*.py` and collects every name the package uses:
loaded names, attribute names and imported names.  A public definition (a
module-level function or class, or a method, whose name has no leading
underscore) counts as used when its name occurs somewhere outside its own
definition.  The match is by name only, so it is coarse: a dead method that
shares its name with a live one passes, but a definition that the package
calls by name is never flagged.
"""

import ast
from collections import Counter
from pathlib import Path

SOURCE = Path(__file__).resolve().parents[1] / "src" / "tdg"

# Public names that no code in the package calls, each kept on purpose.
EXEMPT = {
    # Pointwise values, gradients and Hessians: acceptance criterion 8 checks
    # the Helmholtz equation with it, and the tests use it as the reference
    # for the sum-factorised grid evaluators.
    "basis.eval_basis",
    # A perfbench tracer target; it goes when the tracer stops wrapping it.
    "quadrature.facet_rule",
}


def _used_names(node):
    """Counter of the names that `node` and its subtree use."""
    used = Counter()
    for sub in ast.walk(node):
        if isinstance(sub, ast.Name):
            used[sub.id] += 1
        elif isinstance(sub, ast.Attribute):
            used[sub.attr] += 1
        elif isinstance(sub, ast.alias):
            used[sub.name.rpartition(".")[2]] += 1
    return used


def _public_definitions(module, tree):
    """(qualified name, node) of the module's public functions, classes and methods."""
    defs = (ast.FunctionDef, ast.AsyncFunctionDef, ast.ClassDef)
    for node in tree.body:
        if isinstance(node, defs) and not node.name.startswith("_"):
            yield f"{module}.{node.name}", node
        if isinstance(node, ast.ClassDef):
            for item in node.body:
                if isinstance(item, defs) and not item.name.startswith("_"):
                    yield f"{module}.{node.name}.{item.name}", item


def test_every_public_definition_is_used():
    trees = {path.stem: ast.parse(path.read_text()) for path in sorted(SOURCE.glob("*.py"))}
    used = sum((_used_names(tree) for tree in trees.values()), Counter())
    unused = set()
    for module, tree in trees.items():
        for qualified, node in _public_definitions(module, tree):
            if used[node.name] - _used_names(node)[node.name] == 0:
                unused.add(qualified)
    assert unused == EXEMPT
