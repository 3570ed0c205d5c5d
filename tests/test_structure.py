"""Module dependency rules, checked on the source syntax tree, the exports,
the record types and what an import of the package loads."""

import ast
import copy
import importlib
import inspect
import pickle
import subprocess
import sys
from pathlib import Path

import pytest

import relmag
from relmag.cli import EXIT_TABLE
from relmag.matrices import IntegerMatrix
from relmag.systems import BoundViolationError, ReductionError, SumEquation, System, UnitEquation

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


def test_no_test_only_routes():
    """Every function and method the package defines has a caller in the
    package or is exported; a CLI command is named in cli.COMMANDS.  A route
    only the tests call belongs in tests/conftest.py, apart from the code
    it checks."""
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
        and fn.name not in relmag.__all__
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


def test_exit_table_is_order_free():
    """No type of one EXIT_TABLE row subclasses a type of another, so the
    first match is the only match; the catch-all last row is exempt.  An
    internal bug or a falsified bound is no ValueError, the bad-input
    family a caller's `except ValueError` takes."""
    rows = [types for types, _, _ in EXIT_TABLE[:-1]]
    assert EXIT_TABLE[-1][0] == (Exception,)
    overlaps = [(sub.__name__, base.__name__)
                for i, row in enumerate(rows) for other in rows[:i] + rows[i + 1:]
                for sub in row for base in other if issubclass(sub, base)]
    assert not overlaps, "EXIT_TABLE rows overlap (subclass, base): %s" % overlaps
    assert not issubclass(ReductionError, ValueError)
    assert not issubclass(BoundViolationError, ValueError)


def test_all_names_resolve():
    """Every exported name exists, so `from relmag import *` works."""
    missing = [name for name in relmag.__all__ if not hasattr(relmag, name)]
    assert not missing, "relmag.__all__ names missing attributes: %s" % missing
    namespace = {}
    exec("from relmag import *", namespace)
    assert set(relmag.__all__) <= set(namespace)


# the two classes whose construction validates its input
VALIDATING = {"IntegerMatrix", "System"}


def _is_dataclass_decorator(dec):
    target = dec.func if isinstance(dec, ast.Call) else dec
    name = target.attr if isinstance(target, ast.Attribute) else getattr(target, "id", None)
    return name == "dataclass"


def test_no_class_is_a_dataclass():
    """Every record is a NamedTuple or a plain class: a dataclass generates
    and execs its methods when the module is imported, and importing
    dataclasses loads inspect."""
    found = [
        "%s:%d %s" % (path.name, node.lineno, node.name)
        for path in sorted(SRC.glob("*.py")) for node in ast.walk(_tree(path))
        if isinstance(node, ast.ClassDef)
        and any(_is_dataclass_decorator(dec) for dec in node.decorator_list)
    ]
    assert not found, "dataclasses in src/: %s" % found


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
    """Every public record type but the two validating classes is a tuple
    subclass, and none takes an assignment to a field or a new attribute."""
    records = dict(_record_types())
    assert VALIDATING <= set(records) and len(records) > len(VALIDATING)
    for name, cls in records.items():
        if name in VALIDATING:
            continue
        assert issubclass(cls, tuple) and cls._fields, name
        record = cls._make(range(len(cls._fields)))
        with pytest.raises(AttributeError):
            setattr(record, cls._fields[0], -1)
        with pytest.raises(AttributeError):
            record.extra = -1
        assert record == tuple(range(len(cls._fields)))


EQUATIONS = (UnitEquation(1, 1), SumEquation(((2, 1), (-1, 2))))


@pytest.mark.parametrize("make, fields, text", [
    (IntegerMatrix, {"entries": ((1, -2), (3, 4))}, "IntegerMatrix(entries=((1, -2), (3, 4)))"),
    (System, {"k": 2, "nvars": 2, "equations": EQUATIONS},
     "System(k=2, nvars=2, equations=(UnitEquation(var=1, sign=1), "
     "SumEquation(terms=((2, 1), (-1, 2)))))"),
])
def test_validating_classes_are_values(make, fields, text):
    """IntegerMatrix and System compare, hash and print by their fields,
    refuse assignment and deletion, and survive copy and pickle."""
    record = make(**fields)
    twin = make(*fields.values())
    assert record == twin and not record != twin
    assert hash(record) == hash(twin) == hash(tuple(fields.values()))
    assert repr(record) == text
    assert record != tuple(fields.values()) and record != object()
    other = dict(fields)
    other[next(iter(fields))] = ((5,),) if make is IntegerMatrix else 3
    assert record != make(**other)
    for name in list(fields) + ["extra"]:
        with pytest.raises(AttributeError):
            setattr(record, name, None)
        with pytest.raises(AttributeError):
            delattr(record, name)
    assert vars(record).keys() >= fields.keys() and not hasattr(make, "__slots__")
    for clone in (copy.copy(record), copy.deepcopy(record),
                  pickle.loads(pickle.dumps(record))):
        assert type(clone) is make and clone == record and repr(clone) == text


def test_memo_is_not_a_field():
    """IntegerMatrix._memo takes no part in ==, hash or repr, and is read
    only: the dict is filled in place, never replaced."""
    a, b = IntegerMatrix(((1, 2),)), IntegerMatrix(((1, 2),))
    a._memo["basis"] = ((2, -1),)
    assert a == b and hash(a) == hash(b) and repr(a) == repr(b)
    assert b._memo == {} and a._memo is not b._memo
    with pytest.raises(AttributeError):
        a._memo = {}
    with pytest.raises(AttributeError):
        del a._memo


def test_import_loads_no_fractions():
    """Importing the package and its CLI loads neither fractions nor
    decimal, as no solve or report needs a Fraction, nor click, dataclasses
    or inspect: the CLI parses with argparse and the two validating
    classes are plain classes."""
    unwanted = "{'fractions', 'decimal', 'click', 'dataclasses', 'inspect'}"
    code = ("import sys; sys.path.insert(0, sys.argv[1]); import relmag, relmag.cli; "
            "print(sorted(%s & set(sys.modules)))" % unwanted)
    done = subprocess.run([sys.executable, "-I", "-c", code, str(SRC.parent)],
                          capture_output=True, text=True, check=True, timeout=60)
    assert done.stdout == "[]\n", done.stdout + done.stderr
