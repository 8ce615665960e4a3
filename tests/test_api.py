"""The package's public surface: every exported name exists, and every public
module-level name, a function, a class or an assigned value, has a caller in
the package, its scripts or its benchmark, apart from a short list of kept
reference oracles."""

import ast
import importlib
from collections import Counter
from pathlib import Path

ROOT = Path(__file__).resolve().parents[1]
PACKAGE = ROOT / "src" / "rank3"
CALLERS = [ROOT / "src", ROOT / "scripts", ROOT / "perfbench"]

# public names with no caller outside the tests, each kept on purpose
KEPT = {
    "brute_force_aut": "the exhaustive oracle the solver is checked against",
    "entry_to_dict": "writes the --catalog format that load_catalog reads",
    "complement": "builds the other side of the self-complementarity checks",
}


def modules():
    return sorted(PACKAGE.glob("*.py"))


def rooted_at_self(node: ast.AST) -> bool:
    """Whether node is an attribute chain starting at ``self`` (self.x,
    self.x.y, ...): a member of an object at hand, never the module-level
    name it may share."""
    while isinstance(node, ast.Attribute):
        node = node.value
    return isinstance(node, ast.Name) and node.id == "self"


def used_names(tree: ast.AST) -> Counter:
    """Names read as a bare name or an attribute not rooted at ``self``;
    strings and docstrings, __all__ included, do not count."""
    return Counter(
        node.id if isinstance(node, ast.Name) else node.attr
        for node in ast.walk(tree)
        if isinstance(node, (ast.Name, ast.Attribute)) and not rooted_at_self(node)
    )


def defined_names(node: ast.stmt) -> list[str]:
    """The names a module-level statement defines: a function's or a class's
    name, or every name an assignment binds."""
    if isinstance(node, (ast.FunctionDef, ast.ClassDef)):
        return [node.name]
    targets = node.targets if isinstance(node, ast.Assign) else []
    return [n.id for target in targets for n in ast.walk(target) if isinstance(n, ast.Name)]


def test_every_exported_name_exists():
    exported = 0
    for path in modules():
        module = importlib.import_module(f"rank3.{path.stem}")
        names = getattr(module, "__all__", ())
        missing = [name for name in names if not hasattr(module, name)]
        assert not missing, f"rank3.{path.stem}.__all__ names {missing}"
        exported += len(names)
    assert exported


def test_every_public_definition_has_a_caller():
    uses = Counter()
    for folder in CALLERS:
        for path in folder.rglob("*.py"):
            uses += used_names(ast.parse(path.read_text(encoding="utf-8")))
    uncalled = set()
    for path in modules():
        for node in ast.parse(path.read_text(encoding="utf-8")).body:
            for name in defined_names(node):
                # a definition's own body (recursion, a classmethod) or an
                # assignment's own target is no caller
                if not name.startswith("_") and uses[name] - used_names(node)[name] <= 0:
                    uncalled.add(name)
    assert uncalled - KEPT.keys() == set(), "public definitions only the tests call"
    assert KEPT.keys() - uncalled == set(), "kept names that have a caller now"
