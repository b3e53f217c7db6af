"""Source hygiene: every imported name is read somewhere in its module,
every library function somewhere in the library, and every parameter of
a library function in its body."""

import ast
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
MODULES = sorted(p for p in (ROOT / "src" / "capelli").glob("*.py")
                 if p.name != "__init__.py")  # the package re-exports its names
MODULES += sorted((ROOT / "tests").glob("*.py"))


def unused_imports(source):
    """Names bound by an import statement that no expression reads."""
    tree = ast.parse(source)
    imported = {}
    for node in ast.walk(tree):
        if isinstance(node, (ast.Import, ast.ImportFrom)):
            if isinstance(node, ast.ImportFrom) and node.module == "__future__":
                continue
            for alias in node.names:
                name = alias.asname or alias.name.split(".")[0]
                imported[name] = node.lineno
    read = {node.id for node in ast.walk(tree)
            if isinstance(node, ast.Name) and isinstance(node.ctx, ast.Load)}
    return sorted((line, name) for name, line in imported.items() if name not in read)


def test_scan_sees_an_unused_import():
    assert unused_imports("import os\nimport sys\nsys.exit()\n") == [(1, "os")]


def test_no_unused_imports():
    found = [f"{path.relative_to(ROOT)}:{line}: {name}"
             for path in MODULES for line, name in unused_imports(path.read_text())]
    assert not found, "imported but never read:\n" + "\n".join(found)


LIBRARY = sorted((ROOT / "src" / "capelli").glob("*.py"))


FUNCTIONS = (ast.FunctionDef, ast.AsyncFunctionDef, ast.Lambda)


def local_names(function):
    """The arguments of `function` and the names its own body stores to,
    outside any function nested in it."""
    args = function.args
    names = {a.arg for a in (*args.posonlyargs, *args.args, *args.kwonlyargs,
                             args.vararg, args.kwarg) if a is not None}
    body = function.body if isinstance(function.body, list) else [function.body]
    stack = list(body)
    while stack:
        node = stack.pop()
        if isinstance(node, ast.Name) and isinstance(node.ctx, ast.Store):
            names.add(node.id)
        if not isinstance(node, FUNCTIONS):
            stack.extend(ast.iter_child_nodes(node))
    return names


def unread_functions(sources, exported):
    """Functions defined in `sources` (a map from a file name to its text)
    whose name no source reads, as a name or an attribute, and that are
    not in `exported`.  A bare name counts as a read only where it is not
    an argument or a stored local of the innermost function around it.
    Dunder methods are called by the language and are left out."""
    defined, read = {}, set()

    def scan(node, local):
        for child in ast.iter_child_nodes(node):
            if isinstance(child, (ast.FunctionDef, ast.AsyncFunctionDef)):
                defined.setdefault(child.name, f"{where}:{child.lineno}")
            if isinstance(child, ast.Name) and isinstance(child.ctx, ast.Load):
                if child.id not in local:
                    read.add(child.id)
            elif isinstance(child, ast.Attribute) and isinstance(child.ctx, ast.Load):
                read.add(child.attr)
            scan(child, local_names(child) if isinstance(child, FUNCTIONS) else local)

    for where, source in sources.items():
        scan(ast.parse(source), set())
    return sorted(f"{where}: {name}" for name, where in defined.items()
                  if name not in read | exported
                  and not (name.startswith("__") and name.endswith("__")))


def test_scan_sees_a_function_shadowed_by_a_local():
    source = "def gen():\n    pass\n\n\ndef f():\n    gen = {}\n    return gen\n"
    assert unread_functions({"m.py": source}, set()) == ["m.py:1: gen", "m.py:5: f"]
    shadowed_by_an_argument = "def gen():\n    pass\n\n\ndef f(gen):\n    return gen\n"
    assert unread_functions({"m.py": shadowed_by_an_argument}, set()) == [
        "m.py:1: gen", "m.py:5: f"]


def package_exports():
    tree = ast.parse((ROOT / "src" / "capelli" / "__init__.py").read_text())
    return {alias.asname or alias.name for node in ast.walk(tree)
            if isinstance(node, ast.ImportFrom) for alias in node.names}


def test_scan_sees_an_unread_function():
    source = "def used():\n    pass\n\n\ndef unused():\n    used()\n"
    assert unread_functions({"m.py": source}, set()) == ["m.py:5: unused"]
    assert unread_functions({"m.py": source}, {"unused"}) == []


def test_every_library_function_is_read_or_exported():
    sources = {str(p.relative_to(ROOT)): p.read_text() for p in LIBRARY}
    found = unread_functions(sources, package_exports())
    assert not found, "defined but never read by the library:\n" + "\n".join(found)


def names_read(node, shadowed=frozenset()):
    """The names loaded inside `node`, in functions nested in it too,
    except where such a function rebinds the name (`local_names`)."""
    read = set()
    for child in ast.iter_child_nodes(node):
        if isinstance(child, ast.Name) and isinstance(child.ctx, ast.Load):
            if child.id not in shadowed:
                read.add(child.id)
        inner = shadowed | local_names(child) if isinstance(child, FUNCTIONS) else shadowed
        read |= names_read(child, inner)
    return read


def unread_parameters(sources, exempt):
    """Parameters of the functions defined in `sources` (a map from a
    file name to its text) that their body never reads, as
    "file:line: function(parameter)".  Left out are the (function name,
    parameter) pairs in `exempt`, lambdas, the receiver (`self`, `cls`)
    of a method, and the methods that override a method of a base class
    defined in `sources`, whose signature is the base's."""
    trees = {where: ast.parse(source) for where, source in sources.items()}
    classes = {node.name: node for tree in trees.values() for node in ast.walk(tree)
               if isinstance(node, ast.ClassDef)}

    def overrides(cls, name):
        bases = [classes[b.id] for b in cls.bases if isinstance(b, ast.Name) and b.id in classes]
        return any(any(isinstance(f, ast.FunctionDef) and f.name == name for f in base.body)
                   or overrides(base, name) for base in bases)

    found = []

    def scan(node, cls):
        for child in ast.iter_child_nodes(node):
            if isinstance(child, (ast.FunctionDef, ast.AsyncFunctionDef)):
                if cls is None or not overrides(cls, child.name):
                    args = child.args
                    params = [a.arg for a in (*args.posonlyargs, *args.args, *args.kwonlyargs,
                                              args.vararg, args.kwarg) if a is not None]
                    static = any(isinstance(d, ast.Name) and d.id == "staticmethod"
                                 for d in child.decorator_list)
                    if cls is not None and not static:
                        params = params[1:]
                    read = names_read(child)
                    found.extend(f"{where}:{child.lineno}: {child.name}({param})"
                                 for param in params
                                 if param not in read and (child.name, param) not in exempt)
            scan(child, child if isinstance(child, ast.ClassDef) else None)

    for where, tree in trees.items():
        scan(tree, None)
    return sorted(found)


def test_scan_sees_an_unread_parameter():
    source = ("class Base:\n    def zero(self, home):\n        return home\n\n\n"
              "class Child(Base):\n    def zero(self, home=None):\n        return self\n\n\n"
              "def f(a, b, c):\n    g = lambda unread: a\n\n    def inner(c):\n"
              "        return c\n    return g, inner\n\n\n"
              "class Other:\n    def one(self, x):\n        return 1\n")
    assert unread_parameters({"m.py": source}, set()) == [
        "m.py:11: f(b)", "m.py:11: f(c)", "m.py:20: one(x)"]
    assert unread_parameters({"m.py": source}, {("f", "b"), ("f", "c"), ("one", "x")}) == []


def suite_protocol():
    """(body, parameter) for the `(p, rng)` parameters of every body
    registered in `SUITES`, which `run_suite` passes whether or not the
    body reads them."""
    from capelli.suites import SUITES

    bodies = {getattr(suite.body, "func", suite.body).__name__ for suite in SUITES.values()}
    return {(body, param) for body in bodies for param in ("p", "rng")}


def test_every_library_parameter_is_read():
    sources = {str(p.relative_to(ROOT)): p.read_text() for p in LIBRARY}
    found = unread_parameters(sources, suite_protocol())
    assert not found, "parameters never read:\n" + "\n".join(found)
