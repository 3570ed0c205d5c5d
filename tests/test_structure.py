"""Module dependency rules, checked on the source syntax tree, the exports,
the record types and what an import of the package loads."""

import ast
import importlib
import inspect
import subprocess
import sys
from pathlib import Path

import pytest

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


# the two classes whose construction validates its input
DATACLASSES = {"IntegerMatrix", "System"}


def _is_dataclass_decorator(dec):
    target = dec.func if isinstance(dec, ast.Call) else dec
    name = target.attr if isinstance(target, ast.Attribute) else getattr(target, "id", None)
    return name == "dataclass"


def test_only_validating_classes_are_dataclasses():
    """Every other record is a NamedTuple: a dataclass generates and execs
    its methods when the module is imported."""
    found = set()
    for path in sorted(SRC.glob("*.py")):
        for node in ast.walk(_tree(path)):
            if isinstance(node, ast.ClassDef) and any(
                _is_dataclass_decorator(dec) for dec in node.decorator_list
            ):
                found.add(node.name)
    assert found == DATACLASSES


def _record_types():
    """The public classes the package defines, exceptions apart."""
    for path in sorted(SRC.glob("*.py")):
        if path.stem == "__init__":
            continue
        module = importlib.import_module("relmag." + path.stem)
        for name, cls in vars(module).items():
            if (inspect.isclass(cls) and cls.__module__ == module.__name__
                    and not name.startswith("_") and not issubclass(cls, BaseException)):
                yield name, cls


def test_records_are_immutable_tuples():
    """Every public record type but the two dataclasses is a tuple subclass,
    and none takes an assignment to a field or a new attribute."""
    records = dict(_record_types())
    assert DATACLASSES <= set(records) and len(records) > len(DATACLASSES)
    for name, cls in records.items():
        if name in DATACLASSES:
            continue
        assert issubclass(cls, tuple) and cls._fields, name
        record = cls._make(range(len(cls._fields)))
        with pytest.raises(AttributeError):
            setattr(record, cls._fields[0], -1)
        with pytest.raises(AttributeError):
            record.extra = -1
        assert record == tuple(range(len(cls._fields)))


def test_import_loads_no_fractions():
    """Importing the package and its CLI loads neither fractions nor
    decimal; no solve or report needs a Fraction."""
    code = ("import sys; sys.path.insert(0, sys.argv[1]); import relmag, relmag.cli; "
            "print(sorted({'fractions', 'decimal'} & set(sys.modules)))")
    done = subprocess.run([sys.executable, "-I", "-c", code, str(SRC.parent)],
                          capture_output=True, text=True, check=True, timeout=60)
    assert done.stdout == "[]\n", done.stdout + done.stderr
