"""A public name of atomprep stays only while the package or the benchmark
reads it.

The census parses src/atomprep/*.py and perfbench/*.py.  A public
definition is a module-level function, class or constant, or a method or
property of a module-level class, whose name has no leading underscore.
A name is read where that code mentions it as a Name being loaded, an
Attribute being loaded, a keyword argument or an imported name.  Tests do
not count.  Dataclass fields are not definitions here: a record built by
keyword reads all of its field names, so an unread field goes unseen.
"""

import ast
from pathlib import Path

ROOT = Path(__file__).resolve().parents[1]
PACKAGE = sorted((ROOT / "src" / "atomprep").glob("*.py"))
READERS = PACKAGE + sorted((ROOT / "perfbench").glob("*.py"))

# The reflection probe that fixes tdse.ABSORBER_STRENGTH: its tests guard
# that constant, and no pipeline needs to run it.
EXEMPT = {"absorber_reflection"}


def _public(name: str) -> bool:
    return not name.startswith("_")


def _definitions(tree: ast.Module):
    for node in tree.body:
        if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef, ast.ClassDef)):
            yield node.name
        elif isinstance(node, ast.Assign):
            yield from (t.id for t in node.targets if isinstance(t, ast.Name))
        elif isinstance(node, ast.AnnAssign) and isinstance(node.target, ast.Name):
            yield node.target.id
        if isinstance(node, ast.ClassDef):
            yield from (item.name for item in node.body
                        if isinstance(item, (ast.FunctionDef, ast.AsyncFunctionDef)))


def _reads(tree: ast.Module):
    for node in ast.walk(tree):
        if isinstance(node, ast.Name) and isinstance(node.ctx, ast.Load):
            yield node.id
        elif isinstance(node, ast.Attribute) and isinstance(node.ctx, ast.Load):
            yield node.attr
        elif isinstance(node, ast.keyword) and node.arg is not None:
            yield node.arg
        elif isinstance(node, ast.alias):
            yield node.name.rsplit(".", 1)[-1]


def test_every_public_name_is_read():
    trees = {path: ast.parse(path.read_text(), str(path)) for path in READERS}
    read = {name for tree in trees.values() for name in _reads(tree)}
    unread = sorted(
        f"{path.stem}.{name}"
        for path in PACKAGE
        for name in _definitions(trees[path])
        if _public(name) and name not in read and name not in EXEMPT
    )
    assert not unread, f"public names that no package or benchmark code reads: {unread}"
