import ast
from pathlib import Path

TESTS = Path(__file__).resolve().parent
SRC = TESTS.parent / "src" / "fedslice"

# Module-level names that only tests call: the reference implementations
# the tests check the library's own code against.
TEST_ORACLES = [
    "nn.param_gradients",
    # Input gradients per point: the path-cut IG oracle and criterion 2's FD check.
    "nn.input_gradients_batch",
]


def test_every_module_level_function_and_class_is_used_by_the_library():
    # A name counts as used when code outside its own definition reads it,
    # bare or as an attribute; importing it is not a use.
    trees = {path.stem: ast.parse(path.read_text()) for path in sorted(SRC.glob("*.py"))}
    readers: dict[str, set[int]] = {}
    for tree in trees.values():
        for top in tree.body:
            for node in ast.walk(top):
                if isinstance(node, ast.Name):
                    readers.setdefault(node.id, set()).add(id(top))
                elif isinstance(node, ast.Attribute):
                    readers.setdefault(node.attr, set()).add(id(top))
    unused = [f"{module}.{top.name}" for module, tree in trees.items() for top in tree.body
              if isinstance(top, (ast.FunctionDef, ast.ClassDef))
              and not readers.get(top.name, set()) - {id(top)}]
    assert unused == TEST_ORACLES


def test_every_imported_name_is_read():
    # `import a.b` binds `a`; `from __future__` imports bind no name.
    unused = []
    for path in sorted([*SRC.glob("*.py"), *TESTS.glob("*.py")]):
        tree = ast.parse(path.read_text())
        imported = []
        for node in ast.walk(tree):
            if isinstance(node, ast.Import):
                imported += [alias.asname or alias.name.split(".")[0] for alias in node.names]
            elif isinstance(node, ast.ImportFrom) and node.module != "__future__":
                imported += [alias.asname or alias.name for alias in node.names]
        read = {node.id for node in ast.walk(tree)
                if isinstance(node, ast.Name) and isinstance(node.ctx, ast.Load)}
        unused += [f"{path.parent.name}/{path.name}: {name}" for name in imported
                   if name not in read]
    assert unused == []
