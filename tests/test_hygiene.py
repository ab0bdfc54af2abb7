"""Source hygiene: every name a growth module imports is used in that
module (or re-exported through its __all__), and every public function,
class, method, property or class attribute a growth module defines is
used by the package itself, not only by the tests."""

import ast
from collections import Counter
from pathlib import Path

import pytest

import growth

MODULES = sorted(Path(growth.__file__).parent.glob("*.py"))

# the console script of pyproject.toml, growth = "growth.cli:main"
ENTRY_POINTS = {("cli", "main")}


def reads(node) -> set[str]:
    """The bare names that node reads anywhere inside it."""
    return {n.id for n in ast.walk(node)
            if isinstance(n, ast.Name) and not isinstance(n.ctx, ast.Store)}


def unused_imports(source: str) -> list[str]:
    """Names bound by import statements that nothing else in the module
    reads, minus the names listed in __all__."""
    tree = ast.parse(source)
    imported = {}
    exported = set()
    for node in ast.walk(tree):
        if isinstance(node, (ast.Import, ast.ImportFrom)):
            for alias in node.names:
                name = alias.asname or alias.name.split(".")[0]
                imported.setdefault(name, node.lineno)
        elif isinstance(node, ast.Assign) and any(
                isinstance(t, ast.Name) and t.id == "__all__"
                for t in node.targets):
            exported.update(ast.literal_eval(node.value))
    used = reads(tree)
    return sorted(f"{name} (line {line})" for name, line in imported.items()
                  if name not in used and name not in exported)


def unreferenced_names(sources: dict[str, str]) -> list[str]:
    """module.name of each public module-level function or class of the
    package {module: source} that no package code references: no module
    imports it, its own module reads it nowhere outside its definition,
    and it is not an entry point."""
    trees = {stem: ast.parse(source) for stem, source in sources.items()}
    imported = {(node.module.removeprefix("growth."), alias.name)
                for tree in trees.values() for node in ast.walk(tree)
                if isinstance(node, ast.ImportFrom)
                and (node.module or "").startswith("growth.")
                for alias in node.names}
    unused = []
    for stem, tree in trees.items():
        for node in tree.body:
            if not isinstance(node, (ast.FunctionDef, ast.ClassDef)) \
                    or node.name.startswith("_") \
                    or (stem, node.name) in imported | ENTRY_POINTS:
                continue
            if not any(node.name in reads(other) for other in tree.body
                       if other is not node):
                unused.append(f"{stem}.{node.name} (line {node.lineno})")
    return sorted(unused)


def test_detects_unused_import():
    source = "import os\nfrom math import comb, factorial\nprint(comb)\n"
    assert unused_imports(source) == ["factorial (line 2)", "os (line 1)"]


def test_all_counts_as_use():
    assert unused_imports("from x import y\n__all__ = ['y']\n") == []


@pytest.mark.parametrize("path", MODULES, ids=lambda p: p.stem)
def test_no_unused_imports(path):
    assert unused_imports(path.read_text()) == []


def test_detects_unreferenced_names():
    sources = {
        "a": "def used():\n    pass\n\n\ndef alone():\n    return alone()\n"
             "\n\nclass _Private:\n    pass\n",
        "b": "from growth.a import used\n\n\ndef helper():\n    pass\n"
             "\n\nclass Shape:\n    pass\n\n\nVALUE = helper(), used\n",
        # sharing a name with a.alone uses neither
        "cli": "from growth.b import Shape\n\n\ndef main():\n    pass\n"
               "\n\ndef orphan():\n    pass\n\n\ndef alone():\n    pass\n",
    }
    # a recursive call is no use from outside; cli.main is the entry point
    assert unreferenced_names(sources) == [
        "a.alone (line 5)", "cli.alone (line 12)", "cli.orphan (line 8)"]


def test_no_test_only_public_names():
    sources = {path.stem: path.read_text() for path in MODULES}
    assert unreferenced_names(sources) == []


def attribute_reads(node) -> Counter:
    """How often each attribute name is read anywhere inside node."""
    return Counter(n.attr for n in ast.walk(node)
                   if isinstance(n, ast.Attribute)
                   and not isinstance(n.ctx, ast.Store))


def unreferenced_members(sources: dict[str, str]) -> list[str]:
    """module.Class.name of each public method, property or class
    attribute of a module-level class of the package {module: source}
    that no package code reads as an attribute outside the member's own
    definition.  Names with a leading underscore, dunders among them, are
    exempt.  A read matches by name, on any object, so a member that
    shares its name with a used one passes."""
    trees = {stem: ast.parse(source) for stem, source in sources.items()}
    reads = sum(map(attribute_reads, trees.values()), Counter())
    unused = []
    for stem, tree in trees.items():
        for cls in tree.body:
            if not isinstance(cls, ast.ClassDef):
                continue
            for node in cls.body:
                if isinstance(node, ast.FunctionDef):
                    names = [node.name]
                elif isinstance(node, ast.Assign):
                    names = [t.id for t in node.targets
                             if isinstance(t, ast.Name)]
                else:
                    continue
                own = attribute_reads(node)
                unused.extend(f"{stem}.{cls.name}.{name} (line {node.lineno})"
                              for name in names if not name.startswith("_")
                              and reads[name] == own[name])
    return sorted(unused)


def test_detects_unreferenced_members():
    sources = {
        "a": "class Shape:\n    kind = 'shape'\n    size = 1\n"
             "    __slots__ = ()\n\n    def area(self):\n"
             "        return self.size\n\n    @property\n"
             "    def width(self):\n        return 0\n\n"
             "    def again(self):\n        return self.again()\n\n"
             "    def _helper(self):\n        pass\n\n"
             "    def __len__(self):\n        return 0\n",
        # reading the name on any object counts as a use
        "b": "from growth.a import Shape\n\n\ndef main(x):\n"
             "    return Shape().area(), x.width\n",
    }
    # a recursive call is no use from outside
    assert unreferenced_members(sources) == [
        "a.Shape.again (line 13)", "a.Shape.kind (line 2)"]


def test_no_test_only_public_members():
    sources = {path.stem: path.read_text() for path in MODULES}
    assert unreferenced_members(sources) == []


# the modules whose lattice walks go level by level, so that no input size
# sets a recursion depth
WALK_MODULES = ("partitions", "tableaux", "decgd")


def recursive_functions(source: str) -> list[str]:
    """name (line) of each function or method of the module that defines a
    nested function (a lambda included) or calls itself, by its name or
    as a method of self or cls."""
    found = []
    for node in ast.walk(ast.parse(source)):
        if not isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef)):
            continue
        inside = list(ast.walk(node))[1:]
        nested = any(isinstance(n, (ast.FunctionDef, ast.AsyncFunctionDef,
                                    ast.Lambda)) for n in inside)
        calls = [n.func for n in inside if isinstance(n, ast.Call)]
        itself = any(
            isinstance(f, ast.Name) and f.id == node.name
            or isinstance(f, ast.Attribute) and f.attr == node.name
            and isinstance(f.value, ast.Name) and f.value.id in ("self", "cls")
            for f in calls)
        if nested or itself:
            found.append(f"{node.name} (line {node.lineno})")
    return found


def test_detects_recursive_functions():
    source = ("def flat(x):\n    return Base.flat(x) + other(x)\n\n\n"
              "def calls(n):\n    return calls(n - 1) if n else 0\n\n\n"
              "def nests(xs):\n    return sorted(xs, key=lambda x: -x)\n\n\n"
              "class Shape:\n    def size(self):\n        return self.size()\n"
              "\n    def walk(self):\n        def step():\n            pass\n"
              "        return step\n")
    # a call of another class's method of the same name is no recursion
    assert recursive_functions(source) == [
        "calls (line 5)", "nests (line 9)", "size (line 14)",
        "walk (line 17)"]


@pytest.mark.parametrize("stem", WALK_MODULES)
def test_walks_are_loops(stem):
    path = Path(growth.__file__).parent / f"{stem}.py"
    assert recursive_functions(path.read_text()) == []
