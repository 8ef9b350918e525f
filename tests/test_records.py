"""mdpdiag.records against dataclasses: every value class of the package,
found by its @record decorator in the source, has a twin built by
dataclasses.make_dataclass over the same fields, defaults and frozen flag,
and the two must agree in signature, repr, equality, hash, immutability
and replace. The package itself must start without dataclasses or
typing."""

import ast
import dataclasses
import importlib
import inspect
import os
import subprocess
import sys
from pathlib import Path

import pytest

import mdpdiag
from mdpdiag import (And, Atom, DomainError, FinitePath, Or, PathForest,
                     PathFormula, PropertySpec, build_mipcx)
from mdpdiag.records import FrozenRecordError, record, replace
from fixtures import demo_mdp, demo_property

SRC = Path(mdpdiag.__file__).resolve().parent


def _decorated_records():
    """(module, class name, frozen, [(field, annotation, default node)])
    for every class in the package's source decorated with record."""
    found = []
    for path in sorted(SRC.glob("*.py")):
        tree = ast.parse(path.read_text(encoding="utf-8"))
        for node in tree.body:
            if not isinstance(node, ast.ClassDef):
                continue
            for deco in node.decorator_list:
                call = deco if isinstance(deco, ast.Call) else None
                name = call.func if call else deco
                if isinstance(name, ast.Name) and name.id == "record":
                    frozen = any(k.arg == "frozen" and k.value.value
                                 for k in (call.keywords if call else ()))
                    fields = [(stmt.target.id, ast.unparse(stmt.annotation),
                               stmt.value)
                              for stmt in node.body
                              if isinstance(stmt, ast.AnnAssign)]
                    found.append((f"mdpdiag.{path.stem}", node.name, frozen,
                                  fields))
    return found


RECORDS = _decorated_records()
IDS = [f"{module.split('.')[1]}.{name}" for module, name, _, _ in RECORDS]


def test_every_value_class_is_a_record():
    assert len(RECORDS) == 39


def _twin(module, name, frozen, fields):
    """The class and its dataclass twin: same name, fields, defaults
    (evaluated from the source in the module's namespace; a list default
    becomes a default_factory) and frozen flag, and the same
    __post_init__."""
    namespace = vars(importlib.import_module(module))
    cls = namespace[name]
    specs = []
    for field, annotation, default in fields:
        if default is None:
            specs.append((field, annotation))
            continue
        value = eval(ast.unparse(default), namespace)
        specs.append((field, annotation,
                      dataclasses.field(default_factory=list)
                      if isinstance(value, list)
                      else dataclasses.field(default=value)))
    body = {"__post_init__": cls.__post_init__} \
        if hasattr(cls, "__post_init__") else {}
    return cls, dataclasses.make_dataclass(name, specs, frozen=frozen,
                                           namespace=body)


# Arguments that pass the three __post_init__ checks; any other class
# takes a distinct hashable value per field.
_VALID = {
    "PathFormula": dict(left=Atom("a"), right=Atom("b"), bound=3),
    "PropertySpec": dict(comparison="<=", threshold=0.5,
                         path=PathFormula(Atom("a"), Atom("b"))),
    "FinitePath": dict(states=(0, 1, 2), actions=(4, 5)),
}
_VALID_SPEC = PropertySpec(**_VALID["PropertySpec"])


def _samples(name, fields):
    """Two argument sets that differ in the last field."""
    first = _VALID.get(name) or {f: (i, f) for i, (f, _, _) in enumerate(fields)}
    second = dict(first)
    if fields:
        last = fields[-1][0]
        second[last] = {"bound": 4, "path": PathFormula(Atom("c"), Atom("d")),
                        "actions": (4, 6)}.get(last, (last, "other"))
    return first, second


@pytest.mark.parametrize("module,name,frozen,fields", RECORDS, ids=IDS)
def test_record_matches_its_dataclass_twin(module, name, frozen, fields):
    cls, twin = _twin(module, name, frozen, fields)
    assert cls.__match_args__ == twin.__match_args__
    missing = inspect.Parameter.empty
    assert ([(p.name, dataclasses.MISSING if p.default is missing else p.default)
             for p in inspect.signature(cls).parameters.values()]
            == [(f.name, [] if f.default_factory is list else f.default)
                for f in dataclasses.fields(twin)])
    first, second = _samples(name, fields)
    a, a2, b = cls(**first), cls(**first), cls(**second)
    ta, tb = twin(**first), twin(**second)
    assert repr(a) == repr(ta) and repr(b) == repr(tb)
    assert (a == a2, a == b, a != b) == (ta == twin(**first), ta == tb, ta != tb)
    assert a == a2 and (a != b) == bool(fields)
    assert a != ta and a.__eq__(ta) is NotImplemented
    if frozen:
        assert hash(a) == hash(ta) == hash(a2)
        assert hash(b) == hash(tb)
    else:
        assert cls.__hash__ is None and twin.__hash__ is None
        with pytest.raises(TypeError):
            hash(a)


@pytest.mark.parametrize("module,name,frozen,fields",
                         [r for r in RECORDS if r[2]],
                         ids=[i for i, r in zip(IDS, RECORDS) if r[2]])
def test_frozen_record_refuses_assignment_and_deletion(module, name, frozen,
                                                        fields):
    cls, twin = _twin(module, name, frozen, fields)
    first, _ = _samples(name, fields)
    for obj in (cls(**first), twin(**first)):
        before = repr(obj)
        target = fields[0][0] if fields else "anything"
        with pytest.raises(AttributeError):
            setattr(obj, target, 1)
        with pytest.raises(AttributeError):
            delattr(obj, target)
        assert repr(obj) == before
    with pytest.raises(FrozenRecordError, match="cannot assign to field 'x'"):
        cls(**first).x = 1


@pytest.mark.parametrize("module,name,frozen,fields",
                         [r for r in RECORDS if r[3]],
                         ids=[i for i, r in zip(IDS, RECORDS) if r[3]])
def test_replace_matches_dataclasses_replace(module, name, frozen, fields):
    cls, twin = _twin(module, name, frozen, fields)
    first, second = _samples(name, fields)
    last = fields[-1][0]
    obj, tobj = cls(**first), twin(**first)
    before = repr(obj)
    changed = replace(obj, **{last: second[last]})
    assert repr(changed) == repr(dataclasses.replace(tobj, **{last: second[last]}))
    assert changed == cls(**second) and repr(obj) == before
    assert replace(obj) == obj and replace(obj) is not obj
    with pytest.raises(TypeError):
        replace(obj, no_such_field=1)


def test_records_of_different_classes_differ():
    a, b = Atom("a"), Atom("b")
    assert And(a, b) != Or(a, b) and And(a, b) == And(a, b)
    assert mdpdiag.TRUE != mdpdiag.FALSE
    assert mdpdiag.TRUE == mdpdiag.TrueFormula()
    assert len({And(a, b), Or(a, b), And(a, b)}) == 2


@pytest.mark.parametrize("build,message", [
    (lambda: PathFormula(Atom("a"), Atom("b"), bound=-1),
     "step bound must be nonnegative"),
    (lambda: replace(PathFormula(Atom("a"), Atom("b")), bound=-1),
     "step bound must be nonnegative"),
    (lambda: PropertySpec(">=", 0.5, PathFormula(Atom("a"), Atom("b"))),
     "unsupported comparison"),
    (lambda: replace(_VALID_SPEC, threshold=1.5), "threshold must lie"),
    (lambda: replace(_VALID_SPEC, comparison="<", threshold=0.0),
     "threshold"),
    (lambda: FinitePath((), ()), "a path needs at least one state"),
    (lambda: replace(FinitePath((0, 1), (2,)), actions=()),
     "2 states need 1 actions, got 0"),
], ids=["bound", "bound-replace", "comparison", "threshold-replace",
        "strict-zero-replace", "empty-path", "path-replace"])
def test_post_init_checks_run_also_through_replace(build, message):
    with pytest.raises(DomainError, match=message):
        build()


def test_list_defaults_are_fresh_per_instance():
    one, two = PathForest(), PathForest()
    for field in PathForest.__match_args__:
        assert getattr(one, field) == [] and getattr(one, field) is not getattr(two, field)
    one.add_node(-1, -1, 0)
    assert two.states == [] and PathForest().states == []
    assert not hasattr(PathForest, "parents")


def test_a_list_passed_in_is_kept():
    parents = [-1]
    assert PathForest(parents=parents).parents is parents


def test_cached_property_on_a_frozen_record():
    cx = build_mipcx(demo_mdp(), demo_property())
    assert cx.paths is cx.paths and len(cx.paths) == len(cx.forest.leaves)
    with pytest.raises(AttributeError):
        cx.total_mass = 0.0


def test_record_without_fields_and_with_post_init():
    seen = []

    @record(frozen=True)
    class Empty:
        pass

    @record
    class Checked:
        x: int
        y: int = 2

        def __post_init__(self):
            seen.append((self.x, self.y))

    assert repr(Empty()).endswith(".<locals>.Empty()") and Empty() == Empty()
    assert hash(Empty()) == hash(())
    assert Checked(1) == Checked(1, 2) and seen == [(1, 2), (1, 2)]
    assert Checked.y == 2 and Checked(1).__match_args__ == ("x", "y")
    assert Empty.__match_args__ == ()


def test_cli_starts_without_dataclasses_or_inspect():
    env = dict(os.environ, PYTHONPATH=str(SRC.parent))
    out = subprocess.run(
        [sys.executable, "-S", "-c",
         "import sys, mdpdiag.cli; "
         "print(sorted({'dataclasses', 'inspect', 'typing'} "
         "& set(sys.modules)))"],
        capture_output=True, text=True, env=env, timeout=60, check=True)
    assert out.stdout.strip() == "[]"


def test_replace_sets_a_field_named_obj():
    @record(frozen=True)
    class Holder:
        obj: int

    assert replace(Holder(1), obj=2) == Holder(2)
