"""Source hygiene: every imported name is read somewhere in its module."""

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


def unread_functions(sources, exported):
    """Functions defined in `sources` (a map from a file name to its text)
    whose name no source reads, as a name or an attribute, and that are
    not in `exported`.  Dunder methods are called by the language and are
    left out."""
    defined, read = {}, set()
    for where, source in sources.items():
        for node in ast.walk(ast.parse(source)):
            if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef)):
                defined.setdefault(node.name, f"{where}:{node.lineno}")
            elif isinstance(node, ast.Name) and isinstance(node.ctx, ast.Load):
                read.add(node.id)
            elif isinstance(node, ast.Attribute) and isinstance(node.ctx, ast.Load):
                read.add(node.attr)
    return sorted(f"{where}: {name}" for name, where in defined.items()
                  if name not in read | exported
                  and not (name.startswith("__") and name.endswith("__")))


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
