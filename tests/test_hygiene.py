"""Source hygiene: every imported name is read somewhere in its module,
every library function somewhere in the library, every parameter of a
library function in its body; no library function only fixes a flag of
another, and no library `add_into` edits an element in place."""

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


def flag_only_wrappers(sources):
    """Functions defined in `sources` (a map from a file name to its text)
    whose body, after its docstring, is one `return` holding a call with
    a literal True or False argument: a wrapper that only fixes a flag of
    another function, as "file:line: function"."""
    found = []
    for where, source in sources.items():
        for node in ast.walk(ast.parse(source)):
            if not isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef)):
                continue
            body = node.body
            if ast.get_docstring(node) is not None:
                body = body[1:]
            if len(body) != 1 or not isinstance(body[0], ast.Return) or body[0].value is None:
                continue
            if any(isinstance(arg, ast.Constant) and type(arg.value) is bool
                   for call in ast.walk(body[0].value) if isinstance(call, ast.Call)
                   for arg in (*call.args, *(kw.value for kw in call.keywords))):
                found.append(f"{where}:{node.lineno}: {node.name}")
    return sorted(found)


def test_scan_sees_a_flag_only_wrapper():
    source = ('def body(x, signed):\n    return x if signed else -x\n\n\n'
              'def wrapper(x):\n    """Doc."""\n    return body(x, signed=True)\n\n\n'
              'def nested(x):\n    return abs(body(x, False))\n\n\n'
              'def works(x):\n    y = body(x, True)\n    return y\n\n\n'
              'def no_flag(x):\n    return body(x, 1)\n')
    assert flag_only_wrappers({"m.py": source}) == ["m.py:10: nested", "m.py:5: wrapper"]


# The named twins that stay, each a wrapper that fixes `signed`:
# - det and per are the textbook names, and `symfun.schur_factorial` and
#   `weyl.minor_delta` call det with no flag;
# - e_factorial and h_factorial are called with no flag by `suite_prop_22`
#   and `check_generating_series`, and `perfbench/layers.py` traces them
#   by name.
NAMED_TWINS = {"det", "per", "e_factorial", "h_factorial"}


def test_no_library_function_only_fixes_a_flag():
    sources = {str(p.relative_to(ROOT)): p.read_text() for p in LIBRARY}
    found = [entry for entry in flag_only_wrappers(sources)
             if entry.rpartition(" ")[2] not in NAMED_TWINS]
    assert not found, "functions that only fix a flag:\n" + "\n".join(found)


def in_place_element_edits(sources):
    """Calls `add_into(x.terms, ...)` in `sources` (a map from a file name
    to its text): an in-place edit of an element, whose terms are
    immutable, as "file:line: function"."""
    found = []

    def scan(node, function, where):
        for child in ast.iter_child_nodes(node):
            if (isinstance(child, ast.Call) and isinstance(child.func, ast.Name)
                    and child.func.id == "add_into" and child.args
                    and isinstance(child.args[0], ast.Attribute)
                    and child.args[0].attr == "terms"):
                found.append(f"{where}:{child.lineno}: {function}")
            named = isinstance(child, (ast.FunctionDef, ast.AsyncFunctionDef))
            scan(child, child.name if named else function, where)

    for where, source in sources.items():
        scan(ast.parse(source), "<module>", where)
    return sorted(found)


def test_scan_sees_an_in_place_element_edit():
    source = ("def edits(total, x):\n    add_into(total.terms, x.terms, -1)\n\n\n"
              "def builds(x):\n    out = {}\n    add_into(out, x.terms)\n\n    def nested(y):\n"
              "        return add_into(y.terms, {})\n    return out, nested\n")
    assert in_place_element_edits({"m.py": source}) == ["m.py:10: nested", "m.py:2: edits"]


def test_no_library_add_into_edits_an_element():
    sources = {str(p.relative_to(ROOT)): p.read_text() for p in LIBRARY}
    found = in_place_element_edits(sources)
    assert not found, "add_into on an element's terms:\n" + "\n".join(found)
