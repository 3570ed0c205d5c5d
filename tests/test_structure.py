"""Module dependency rules, checked on the source syntax tree, and the exports."""

import ast
from pathlib import Path

import relmag

SRC = Path(__file__).resolve().parents[1] / "src" / "relmag"
TESTS = Path(__file__).resolve().parent


def _tree(path):
    return ast.parse(path.read_text(), filename=str(path))


def test_no_imports_inside_functions():
    for path in sorted(SRC.glob("*.py")):
        for fn in ast.walk(_tree(path)):
            if isinstance(fn, (ast.FunctionDef, ast.AsyncFunctionDef)):
                for node in ast.walk(fn):
                    assert not isinstance(node, (ast.Import, ast.ImportFrom)), (
                        "%s:%d imports inside %s()" % (path.name, node.lineno, fn.name)
                    )


def _imports(path):
    """(line, names) per import statement: the modules and, for a from
    import, each name qualified by its module."""
    for node in ast.walk(_tree(path)):
        if isinstance(node, ast.Import):
            yield node.lineno, [alias.name for alias in node.names]
        elif isinstance(node, ast.ImportFrom):
            module = ".".join(filter(None, ["relmag" if node.level else "", node.module]))
            yield node.lineno, [module] + ["%s.%s" % (module, alias.name) for alias in node.names]


def test_detbounds_does_not_import_systems():
    for lineno, names in _imports(SRC / "detbounds.py"):
        assert "relmag.systems" not in names, "detbounds.py:%d" % lineno


def test_systems_solves_on_int_rows():
    """The solve path builds no IntegerMatrix: systems does not import it."""
    for lineno, names in _imports(SRC / "systems.py"):
        for name in names:
            assert name.rsplit(".", 1)[-1] != "IntegerMatrix", (
                "systems.py:%d imports %s" % (lineno, name)
            )


def test_no_unused_imports():
    """Every name imported by the package or the tests is read or exported."""
    for path in sorted(SRC.glob("*.py")) + sorted(TESTS.glob("*.py")):
        tree = _tree(path)
        imported = {}
        exported = set()
        read = set()
        for node in ast.walk(tree):
            if isinstance(node, (ast.Import, ast.ImportFrom)):
                if isinstance(node, ast.ImportFrom) and node.module == "__future__":
                    continue
                for alias in node.names:
                    name = alias.asname or alias.name.split(".")[0]
                    imported[name] = node.lineno
            elif isinstance(node, ast.Name) and isinstance(node.ctx, ast.Load):
                read.add(node.id)
            elif isinstance(node, ast.Assign) and any(
                isinstance(t, ast.Name) and t.id == "__all__" for t in node.targets
            ):
                exported.update(ast.literal_eval(node.value))
        for name, lineno in imported.items():
            assert name in read or name in exported, (
                "%s:%d imports %s but never reads it" % (path.name, lineno, name)
            )


def _is_click_command(fn):
    """fn is decorated by a click group's .command() or by click.group()."""
    for dec in fn.decorator_list:
        target = dec.func if isinstance(dec, ast.Call) else dec
        if isinstance(target, ast.Attribute) and target.attr in ("command", "group"):
            return True
    return False


def test_no_test_only_routes():
    """Every function and method the package defines has a caller in the
    package, is exported, or is a CLI command: a route only the tests call
    belongs in tests/conftest.py, apart from the code it checks."""
    # perfbench/tracing.py patches IntegerMatrix.gram by name, so it moves
    # with the benchmark
    allowed = {"IntegerMatrix.gram"}
    names, attributes = set(), set()
    defined = []
    for path in sorted(SRC.glob("*.py")):
        tree = _tree(path)
        for node in ast.walk(tree):
            if isinstance(node, ast.Name) and isinstance(node.ctx, ast.Load):
                names.add(node.id)
            elif isinstance(node, ast.Attribute) and isinstance(node.ctx, ast.Load):
                attributes.add(node.attr)
        for node in tree.body:
            if isinstance(node, ast.FunctionDef):
                defined.append((path.name, node.lineno, node.name, node))
            elif isinstance(node, ast.ClassDef):
                for item in node.body:
                    if isinstance(item, ast.FunctionDef) and not (
                        item.name.startswith("__") and item.name.endswith("__")
                    ):
                        defined.append((path.name, item.lineno,
                                        "%s.%s" % (node.name, item.name), item))
    # a method is reached as an attribute, a function by its name or as a
    # module attribute
    anywhere = names | attributes
    unused = [
        "%s:%d %s" % (fname, lineno, qualname)
        for fname, lineno, qualname, fn in defined
        if fn.name not in (attributes if "." in qualname else anywhere)
        and fn.name not in relmag.__all__ and not _is_click_command(fn)
        and qualname not in allowed
    ]
    assert not unused, "defined but never called in the package: %s" % unused


def test_magnitude_imports_no_private_name():
    """magnitude reaches the rank and the circuits through public functions
    only, which a per-function trace can see."""
    for node in ast.walk(_tree(SRC / "magnitude.py")):
        if isinstance(node, ast.ImportFrom):
            private = [alias.name for alias in node.names if alias.name.startswith("_")]
            assert not private, "magnitude.py:%d imports %s" % (node.lineno, private)


def test_cli_has_one_try():
    """The exit-code table is applied in one place, not per command."""
    tries = [node.lineno for node in ast.walk(_tree(SRC / "cli.py"))
             if isinstance(node, ast.Try)]
    assert len(tries) == 1, "cli.py has try statements at lines %s" % tries


def test_all_names_resolve():
    """Every exported name exists, so `from relmag import *` works."""
    missing = [name for name in relmag.__all__ if not hasattr(relmag, name)]
    assert not missing, "relmag.__all__ names missing attributes: %s" % missing
    namespace = {}
    exec("from relmag import *", namespace)
    assert set(relmag.__all__) <= set(namespace)
