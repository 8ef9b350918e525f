"""Elaboration against its earlier tree-walking interpreter, exactly.

build_mdp compiles every guard, update and label expression once into a
closure over state tuples, and evaluates each synchronization and the
labels once per value of the variables they read. It must give exactly
what walking the expression tree for every state gave: the same states,
names, actions, transitions, labels and source map, and the same error
(type, message, line and filename) wherever a program is rejected. The
reference copies below are that earlier interpreter and elaborator, kept
unchanged but for the name reference_build_mdp and for refusing a guard
that is not boolean, as build_mdp does since: before, such a guard
silently disabled its command. The parser and Mdp are shared. build_mdp maps each action, not each transition, to its
commands; its map is spread over the action's transitions before the
comparison.

The one deliberate divergence, which no case here compares, is how an
unknown identifier is reported: build_mdp rejects it as compile_expr
meets it. So of two or more it reports the leftmost, where the
reference reports the alphabetically first (tests/test_program.py pins
the leftmost), and in a constant or a variable's range it reports one
before a type error further left, which the reference's evaluation
meets first. The reference keeps its own copy of its name scan,
_names_in.
"""

from __future__ import annotations

import random
from dataclasses import dataclass
from itertools import product
from pathlib import Path
from typing import Mapping, Optional

import pytest

import mdpdiag.program
from mdpdiag import (BudgetError, DomainError, Mdp, ParseError, build_mdp,
                     build_mipcx, check_property, parse_program,
                     parse_property)
from mdpdiag.program import (DEFAULT_STATE_CAP, Assignment, Binary, BoolLit,
                             Call, Expr, LabelDef, Name, Num, Program, Unary)
from mdpdiag.records import replace

MODELS = Path(__file__).resolve().parent.parent / "models"


# -- reference: the tree-walking interpreter and its elaborator -------------


def _names_in(expr: Expr) -> set[str]:
    if isinstance(expr, Name):
        return {expr.ident}
    if isinstance(expr, Unary):
        return _names_in(expr.child)
    if isinstance(expr, Binary):
        return _names_in(expr.left) | _names_in(expr.right)
    if isinstance(expr, Call):
        out: set[str] = set()
        for a in expr.args:
            out |= _names_in(a)
        return out
    return set()


def eval_expr(expr: Expr, env: Mapping[str, object], line: Optional[int] = None,
              filename: Optional[str] = None):
    """Evaluate under env; integers and booleans stay distinct types."""

    def err(msg):
        raise ParseError(msg, line=line, filename=filename)

    def number(e):
        v = rec(e)
        if isinstance(v, bool) or not isinstance(v, (int, float)):
            err("expected a numeric operand")
        return v

    def boolean(e):
        v = rec(e)
        if not isinstance(v, bool):
            err("expected a boolean operand")
        return v

    def rec(e):
        if isinstance(e, Num):
            return e.value
        if isinstance(e, BoolLit):
            return e.value
        if isinstance(e, Name):
            try:
                return env[e.ident]
            except KeyError:
                err(f"unknown identifier {e.ident!r}")
        if isinstance(e, Unary):
            return -number(e.child) if e.op == "-" else not boolean(e.child)
        if isinstance(e, Call):
            vals = [number(a) for a in e.args]
            return min(vals) if e.func == "min" else max(vals)
        if isinstance(e, Binary):
            op = e.op
            if op in ("&", "|"):
                l = boolean(e.left)
                # no short-circuit: both sides must be well-typed
                r = boolean(e.right)
                return (l and r) if op == "&" else (l or r)
            l = number(e.left)
            r = number(e.right)
            if op == "+":
                return l + r
            if op == "-":
                return l - r
            if op == "*":
                return l * r
            if op == "=":
                return l == r
            if op == "!=":
                return l != r
            if op == "<":
                return l < r
            if op == "<=":
                return l <= r
            if op == ">":
                return l > r
            if op == ">=":
                return l >= r
        err(f"cannot evaluate expression node {e!r}")

    return rec(expr)


def fold_constants(program: Program,
                   overrides: Optional[Mapping[str, object]] = None) -> dict:
    """Resolve constant definitions in declaration order.

    overrides replace defining expressions by name; overriding an
    undeclared constant, or leaving a definition-less constant without an
    override, is a DomainError.
    """
    overrides = dict(overrides or {})
    values: dict[str, object] = {}
    for c in program.constants:
        if c.name in values:
            raise ParseError(f"constant {c.name!r} defined twice",
                             line=c.line, filename=program.filename)
        if c.name in overrides:
            value = overrides.pop(c.name)
        elif c.expr is not None:
            value = eval_expr(c.expr, values, c.line, program.filename)
        else:
            raise DomainError(f"constant {c.name!r} has no value; supply one")
        if isinstance(value, bool) or not isinstance(value, (int, float)):
            raise ParseError(f"constant {c.name!r} must be numeric",
                             line=c.line, filename=program.filename)
        if c.kind == "int":
            if isinstance(value, float):
                if value != int(value):
                    raise DomainError(
                        f"constant {c.name!r} is declared int, got {value!r}")
                value = int(value)
        else:
            value = float(value)
        values[c.name] = value
    if overrides:
        extra = ", ".join(sorted(overrides))
        raise DomainError(f"override for undeclared constant(s): {extra}")
    return values


@dataclass(frozen=True)
class _ReadyCommand:
    module: str
    label: str
    label_index: int  # position among same-label commands of the module
    guard: Expr
    updates: tuple[tuple[float, tuple[Assignment, ...]], ...]
    line: int
    action: Optional[str]  # fixed action name for unlabelled commands


@dataclass
class _ReadyProgram:
    consts: dict
    var_order: tuple[str, ...]
    bounds: dict[str, tuple[int, int]]
    init: dict[str, int]
    owner: dict[str, str]
    modules: tuple[str, ...]
    by_label: dict[str, dict[str, list[_ReadyCommand]]]  # label -> module -> cmds
    internal: tuple[_ReadyCommand, ...]
    label_order: tuple[str, ...]
    labels: tuple[LabelDef, ...]
    filename: Optional[str]


def _prepare(program: Program, consts: dict) -> _ReadyProgram:
    fn = program.filename
    seen_modules = set()
    var_order: list[str] = []
    bounds: dict[str, tuple[int, int]] = {}
    init: dict[str, int] = {}
    owner: dict[str, str] = {}
    for mod in program.modules:
        if mod.name in seen_modules:
            raise ParseError(f"module {mod.name!r} defined twice",
                             line=mod.line, filename=fn)
        seen_modules.add(mod.name)
        for decl in mod.variables:
            if decl.name in owner or decl.name in consts:
                raise ParseError(f"name {decl.name!r} is already in use",
                                 line=decl.line, filename=fn)
            low = eval_expr(decl.low, consts, decl.line, fn)
            high = eval_expr(decl.high, consts, decl.line, fn)
            if not isinstance(low, int) or not isinstance(high, int) \
                    or isinstance(low, bool) or isinstance(high, bool):
                raise ParseError(f"bounds of {decl.name!r} must be integers",
                                 line=decl.line, filename=fn)
            if low > high:
                raise ParseError(f"empty range [{low}..{high}] for {decl.name!r}",
                                 line=decl.line, filename=fn)
            start = low
            if decl.init is not None:
                start = eval_expr(decl.init, consts, decl.line, fn)
                if not isinstance(start, int) or isinstance(start, bool):
                    raise ParseError(f"initial value of {decl.name!r} must be "
                                     "an integer", line=decl.line, filename=fn)
            if not low <= start <= high:
                raise ParseError(f"initial value {start} of {decl.name!r} "
                                 f"escapes [{low}..{high}]",
                                 line=decl.line, filename=fn)
            owner[decl.name] = mod.name
            var_order.append(decl.name)
            bounds[decl.name] = (low, high)
            init[decl.name] = start

    scope = set(owner) | set(consts)

    def check_scope(expr, line):
        for ident in sorted(_names_in(expr)):
            if ident not in scope:
                raise ParseError(f"unknown identifier {ident!r}",
                                 line=line, filename=fn)

    by_label: dict[str, dict[str, list[_ReadyCommand]]] = {}
    label_order: list[str] = []
    internal: list[_ReadyCommand] = []
    internal_line_counts: dict[tuple[str, int], int] = {}
    for mod in program.modules:
        group_counts: dict[str, int] = {}
        for cmd in mod.commands:
            check_scope(cmd.guard, cmd.line)
            probs = []
            for upd in cmd.updates:
                if upd.prob is None:
                    p = 1.0
                else:
                    for ident in sorted(_names_in(upd.prob)):
                        if ident not in consts:
                            raise ParseError(
                                f"branch probability must be constant, "
                                f"found {ident!r}", line=cmd.line, filename=fn)
                    p = eval_expr(upd.prob, consts, cmd.line, fn)
                if isinstance(p, bool) or not isinstance(p, (int, float)):
                    raise ParseError("branch probability must be numeric",
                                     line=cmd.line, filename=fn)
                p = float(p)
                if p <= 0.0:
                    raise ParseError(f"branch probability {p!r} must be "
                                     "positive", line=cmd.line, filename=fn)
                assigned = set()
                for a in upd.assignments:
                    if a.var not in owner:
                        raise ParseError(f"assignment to unknown variable "
                                         f"{a.var!r}", line=cmd.line, filename=fn)
                    if owner[a.var] != mod.name:
                        raise ParseError(
                            f"module {mod.name!r} may not assign {a.var!r} "
                            f"owned by {owner[a.var]!r}",
                            line=cmd.line, filename=fn)
                    if a.var in assigned:
                        raise ParseError(f"variable {a.var!r} assigned twice "
                                         "in one update", line=cmd.line,
                                         filename=fn)
                    assigned.add(a.var)
                    check_scope(a.expr, cmd.line)
                probs.append((p, upd.assignments))
            total = sum(p for p, _ in probs)
            if abs(total - 1.0) > 1e-9:
                raise ParseError(f"update probabilities sum to {total!r}, "
                                 "expected 1", line=cmd.line, filename=fn)
            if cmd.label:
                idx = group_counts.get(cmd.label, 0)
                group_counts[cmd.label] = idx + 1
                ready = _ReadyCommand(mod.name, cmd.label, idx, cmd.guard,
                                      tuple(probs), cmd.line, None)
                if cmd.label not in by_label:
                    by_label[cmd.label] = {}
                    label_order.append(cmd.label)
                by_label[cmd.label].setdefault(mod.name, []).append(ready)
            else:
                key = (mod.name, cmd.line)
                k = internal_line_counts.get(key, 0)
                internal_line_counts[key] = k + 1
                action = f"{mod.name}:{cmd.line}"
                if k:
                    action = f"{action}#{k}"
                internal.append(_ReadyCommand(mod.name, "", 0, cmd.guard,
                                              tuple(probs), cmd.line, action))

    seen_labels = set()
    for ldef in program.labels:
        if ldef.name in seen_labels:
            raise ParseError(f"label {ldef.name!r} defined twice",
                             line=ldef.line, filename=fn)
        seen_labels.add(ldef.name)
        check_scope(ldef.expr, ldef.line)

    return _ReadyProgram(consts, tuple(var_order), bounds, init, owner,
                         tuple(m.name for m in program.modules), by_label,
                         tuple(internal), tuple(label_order), program.labels, fn)


def reference_build_mdp(program: Program,
                        constants: Optional[Mapping[str, object]] = None,
                        state_cap: int = DEFAULT_STATE_CAP) -> tuple[Mdp, dict]:
    """Explore the program's reachable state space into an explicit MDP.

    Nondeterministic alternatives arising from several enabled commands
    (or command combinations under synchronization) with the same label
    become distinct actions named label#i or label#i.j...; unlabelled
    commands act under a module:line name. Raises BudgetError when more
    than state_cap states become reachable and DomainError when an update
    drives a variable out of its range, naming the command line and the
    offending valuation.
    """
    consts = fold_constants(program, constants)
    ready = _prepare(program, consts)
    fn = ready.filename
    var_order = ready.var_order

    def as_tuple(valuation: dict) -> tuple[int, ...]:
        return tuple(valuation[v] for v in var_order)

    def describe(valuation: dict) -> str:
        return ",".join(f"{v}={valuation[v]}" for v in var_order)

    init_val = dict(ready.init)
    ids: dict[tuple[int, ...], int] = {as_tuple(init_val): 0}
    valuations: list[dict] = [init_val]
    transitions: dict[tuple[int, str], list[tuple[int, float]]] = {}
    sources: dict[tuple[int, str, int], set[tuple[str, int]]] = {}

    def intern_state(valuation: dict) -> int:
        key = as_tuple(valuation)
        sid = ids.get(key)
        if sid is None:
            sid = len(valuations)
            if sid >= state_cap:
                raise BudgetError(f"state space exceeds the cap of "
                                  f"{state_cap} states")
            ids[key] = sid
            valuations.append(valuation)
        return sid

    def guard_holds(cmd: _ReadyCommand, env: dict) -> bool:
        value = eval_expr(cmd.guard, env, cmd.line, fn)
        if not isinstance(value, bool):
            raise ParseError("guard must be boolean", line=cmd.line,
                             filename=fn)
        return value

    def fire(sid: int, env: dict, action: str, combo: tuple[_ReadyCommand, ...]):
        current = valuations[sid]
        dist: dict[tuple[int, ...], float] = {}  # insertion order is firing order
        targets: dict[tuple[int, ...], dict] = {}
        for branches in product(*(c.updates for c in combo)):
            prob = 1.0
            target = dict(current)
            for cmd, (p, assignments) in zip(combo, branches):
                prob *= p
                for a in assignments:
                    value = eval_expr(a.expr, env, cmd.line, fn)
                    if isinstance(value, bool) or not isinstance(value, int):
                        raise ParseError(f"update of {a.var!r} must be an "
                                         "integer", line=cmd.line, filename=fn)
                    low, high = ready.bounds[a.var]
                    if not low <= value <= high:
                        raise DomainError(
                            f"line {cmd.line}: update {a.var}'={value} leaves "
                            f"[{low}..{high}] at state {describe(current)}")
                    target[a.var] = value
            key = as_tuple(target)
            if key in dist:
                dist[key] += prob
            else:
                dist[key] = prob
                targets[key] = target
        out = []
        for key, prob in dist.items():
            tid = intern_state(targets[key])
            out.append((tid, prob))
            src = sources.setdefault((sid, action, tid), set())
            for cmd in combo:
                src.add((cmd.module, cmd.line))
        transitions[(sid, action)] = out

    sid = 0
    while sid < len(valuations):
        env = dict(ready.consts)
        env.update(valuations[sid])
        for label in ready.label_order:
            participants = [m for m in ready.modules
                            if m in ready.by_label[label]]
            enabled: list[list[_ReadyCommand]] = []
            blocked = False
            for m in participants:
                here = [c for c in ready.by_label[label][m]
                        if guard_holds(c, env)]
                if not here:
                    blocked = True
                    break
                enabled.append(here)
            if blocked:
                continue
            for combo in product(*enabled):
                sig = tuple(c.label_index for c in combo)
                if any(sig):
                    action = label + "#" + ".".join(str(i) for i in sig)
                else:
                    action = label
                fire(sid, env, action, combo)
        for cmd in ready.internal:
            if guard_holds(cmd, env):
                fire(sid, env, cmd.action, (cmd,))
        sid += 1

    labels: dict[int, set[str]] = {}
    for s, valuation in enumerate(valuations):
        env = dict(ready.consts)
        env.update(valuation)
        here = set()
        for ldef in ready.labels:
            value = eval_expr(ldef.expr, env, ldef.line, fn)
            if not isinstance(value, bool):
                raise ParseError(f"label {ldef.name!r} must be boolean",
                                 line=ldef.line, filename=fn)
            if value:
                here.add(ldef.name)
        if here:
            labels[s] = here

    state_names = tuple(describe(v) for v in valuations)
    m = Mdp(len(valuations), 0, transitions, labels, state_names,
            ap_names=[l.name for l in ready.labels])

    src_by_id: dict[tuple[int, int, int], tuple[tuple[str, int], ...]] = {}
    for (s, action, t), cmds in sources.items():
        src_by_id[(s, m.action_id(action), t)] = tuple(sorted(cmds))
    return m, src_by_id


# -- comparison ---------------------------------------------------------------


def snapshot(m: Mdp, sources: dict):
    return (m.num_states, m.init, list(m.transition_items()), m.label_map(),
            m.state_names, m.ap_names, list(m.action_names), sources)


def build_mdp_per_transition(program, constants=None, **kw):
    """build_mdp, with its {action id: commands} source map spread over
    every transition of each action, as the reference keys it."""
    m, commands = build_mdp(program, constants, **kw)
    return m, {(s, a, t): commands[a]
               for (s, a), dist in m.transition_items() for t, _ in dist}


def outcome(builder, text: str, constants=None, **kw):
    """What building text gives: the snapshot, or the error it raises."""
    program = parse_program(text, filename="case.pm")
    try:
        return ("built", snapshot(*builder(program, constants, **kw)))
    except (ParseError, DomainError, BudgetError) as exc:
        return ("raised", type(exc), str(exc), getattr(exc, "line", None),
                getattr(exc, "filename", None))


def assert_same(text: str, constants=None, **kw):
    want = outcome(reference_build_mdp, text, constants, **kw)
    assert outcome(build_mdp_per_transition, text, constants, **kw) == want
    return want


# -- seeded random programs ---------------------------------------------------


class RandomProgram:
    """A small random program over every construct the language has."""

    CMP = ("=", "!=", "<", "<=", ">", ">=")

    def __init__(self, rng: random.Random):
        self.rng = rng
        self.ints = [f"k{i}" for i in range(rng.randint(1, 2))]
        self.doubles = [f"d{i}" for i in range(rng.randint(1, 2))]
        self.vars: list[tuple[str, int]] = []  # name, upper bound

    def int_expr(self, depth: int) -> str:
        rng = self.rng
        pick = rng.randrange(8 if depth > 0 else 3)
        if pick == 0:
            return rng.choice(self.vars)[0]
        if pick == 1:
            return rng.choice(self.ints)
        if pick == 2:
            return str(rng.randint(0, 3))
        if pick == 3:
            return f"-({self.int_expr(depth - 1)})"
        if pick == 4:
            fn = rng.choice(("min", "max"))
            args = ", ".join(self.int_expr(depth - 1)
                             for _ in range(rng.randint(2, 3)))
            return f"{fn}({args})"
        op = rng.choice(("+", "-", "*"))
        return f"({self.int_expr(depth - 1)} {op} {self.int_expr(depth - 1)})"

    def num_expr(self, depth: int) -> str:
        """An int or double operand of a comparison."""
        rng = self.rng
        pick = rng.randrange(4)
        if pick == 0:
            return rng.choice(self.doubles)
        if pick == 1:
            return (f"{rng.choice(('min', 'max'))}({self.int_expr(depth)}, "
                    f"{rng.choice(self.doubles)} * 4)")
        return self.int_expr(depth)

    def bool_expr(self, depth: int) -> str:
        rng = self.rng
        pick = rng.randrange(6 if depth > 0 else 2)
        if pick == 0 and rng.random() < 0.2:
            return rng.choice(("true", "false"))
        if pick <= 1:
            return (f"({self.num_expr(1)} {rng.choice(self.CMP)} "
                    f"{self.num_expr(1)})")
        if pick == 2:
            return f"!{self.bool_expr(depth - 1)}"
        op = rng.choice(("&", "|"))
        left, right = self.bool_expr(depth - 1), self.bool_expr(depth - 1)
        return f"({left} {op} {right})"

    def update(self, owned) -> str:
        rng = self.rng
        chosen = [v for v in owned if rng.random() < 0.7]
        if not chosen:
            return "true"
        # mostly clamped into range, so that most programs elaborate
        return " & ".join(
            f"({v}'={self.int_expr(1)})" if rng.random() < 0.05
            else f"({v}'=max(0, min({high}, {self.int_expr(2)})))"
            for v, high in chosen)

    def command(self, owned, label: str) -> str:
        rng = self.rng
        shape = rng.randrange(4)
        if shape == 0:
            body = self.update(owned)
        elif shape == 1:
            d = rng.choice(self.doubles)
            body = f"{d}:{self.update(owned)} + 1-{d}:{self.update(owned)}"
        elif shape == 2:
            body = f"0.5:{self.update(owned)} + 0.5:{self.update(owned)}"
        else:
            body = " + ".join(f"{p}:{self.update(owned)}"
                              for p in ("0.2", "0.3", "0.5"))
        guard = (f"({rng.choice(owned)[0]} {rng.choice(self.CMP)} "
                 f"{self.int_expr(1)})" if rng.random() < 0.5
                 else self.bool_expr(2))
        return f"  [{label}] {guard} -> {body};"

    def text(self) -> str:
        rng = self.rng
        lines = []
        for i, name in enumerate(self.ints):
            value = str(rng.randint(0, 2)) if i == 0 else f"{self.ints[0]} + 1"
            lines.append(f"const int {name} = {value};")
        for name in self.doubles:
            value = rng.choice((0.1, 0.25, 0.5, 0.8))
            lines.append(f"const double {name} = {value};")
        modules = []
        for m in range(rng.randint(1, 3)):
            owned = [(f"v{m}_{j}", rng.randint(1, 3))
                     for j in range(rng.randint(1, 2 if m < 2 else 1))]
            self.vars.extend(owned)
            modules.append(owned)
        for m, owned in enumerate(modules):
            lines.append(f"module m{m}")
            for v, high in owned:
                start = rng.randint(0, high)
                lines.append(f"  {v} : [0..{high}] init {start};")
            for _ in range(rng.randint(2, 4)):
                label = rng.choice(("", "", "a", "b", "c"))
                lines.append(self.command(owned, label))
            lines.append("endmodule")
        for i in range(rng.randint(1, 3)):
            lines.append(f'label "l{i}" = {self.bool_expr(2)};')
        return "\n".join(lines) + "\n"


# -- tests --------------------------------------------------------------------


class TestBundledModels:
    @pytest.mark.parametrize("k", [1, 2, 5, 20])
    def test_csma(self, k):
        text = (MODELS / "csma.pm").read_text(encoding="utf-8")
        assert assert_same(text, {"K": k})[0] == "built"

    @pytest.mark.parametrize("constants",
                             [None, {"K": 1, "T": 8, "loss": 0.1}])
    def test_zeroconf(self, constants):
        text = (MODELS / "zeroconf.pm").read_text(encoding="utf-8")
        assert assert_same(text, constants)[0] == "built"


class TestMemo:
    """build_mdp evaluates each synchronization once per distinct value of
    the variables its commands read, and each label once per distinct value
    of the variables the labels read."""

    CSMA = (MODELS / "csma.pm").read_text(encoding="utf-8")

    def test_closures_run_once_per_key_not_per_state(self, monkeypatch):
        program = parse_program(self.CSMA, filename="case.pm")
        guards = {id(c.guard) for mod in program.modules
                  for c in mod.commands}
        calls = {"guard": 0, "other": 0}
        compile_expr = mdpdiag.program.compile_expr

        def counting(expr, *args, **kw):
            code = compile_expr(expr, *args, **kw)
            kind = "guard" if id(expr) in guards else "other"

            def fn(state, inner=code.fn):
                calls[kind] += 1
                return inner(state)
            return replace(code, fn=fn)

        monkeypatch.setattr(mdpdiag.program, "compile_expr", counting)
        got = snapshot(*build_mdp_per_transition(program, {"K": 20}))
        monkeypatch.undo()
        assert got == snapshot(*reference_build_mdp(program, {"K": 20}))
        # evaluated per state, the seven synchronizations ran 34,056 guards
        # over 3,784 states, at least one each per state; memoized, 568 keys
        # run 786 guards and every other closure 345 times
        assert got[0] == 3784
        assert 0 < calls["guard"] < 1000
        assert calls["guard"] + calls["other"] < got[0]

    def test_check_formats_no_state_name(self):
        program = parse_program(self.CSMA, filename="case.pm")
        m, _ = build_mdp(program, {"K": 20})
        spec = parse_property('P<=0.8 [ !"gave_up" U "delivered_all" ]',
                              m.ap_names)
        assert not check_property(m, spec).holds
        assert "state_names" not in vars(m)
        eager, _ = reference_build_mdp(program, {"K": 20})
        assert type(m.state_names) is tuple
        assert m.state_names == eager.state_names
        assert m.state_name(3783) == eager.state_names[3783]

    def test_counterexample_formats_only_the_names_on_its_paths(self):
        program = parse_program(self.CSMA, filename="case.pm")
        m, _ = build_mdp(program, {"K": 20})
        spec = parse_property('P<=0.8 [ !"gave_up" U "delivered_all" ]',
                              m.ap_names)
        cx = build_mipcx(m, spec)
        assert "state_names" not in vars(m)
        eager, _ = reference_build_mdp(program, {"K": 20})
        assert sorted(cx.state_names) == sorted(set(cx.forest.states))
        assert cx.state_names == {s: eager.state_names[s]
                                  for s in cx.state_names}


class TestRandomPrograms:
    def test_two_hundred_seeded_programs(self):
        built = states = 0
        for seed in range(200):
            text = RandomProgram(random.Random(seed)).text()
            result = assert_same(text)
            if result[0] == "built":
                built += 1
                states += result[1][0]
        # most build; the rest must fail alike, which the loop has checked
        assert built >= 150 and states >= 1000


def module(*commands: str, var: str = "x : [0..2] init 0;") -> str:
    body = "".join(f"  {c}\n" for c in commands)
    return f"module m\n  {var}\n{body}endmodule\n"


RAISES = [
    # ill-typed guards, the first error in left-to-right order wins
    ("guard-numeric", module("[a] x + true -> true;"), ParseError,
     "expected a numeric operand"),
    ("guard-boolean", module("[a] (x=0) & 1 -> true;"), ParseError,
     "expected a boolean operand"),
    ("guard-left-first", module("[a] (x + true > 0) & (x | 1) -> true;"),
     ParseError, "numeric operand"),
    ("guard-right-second", module("[a] (x > 0) & (x | true) -> true;"),
     ParseError, "boolean operand"),
    ("guard-unlabelled", module("[] !(x + 1) -> true;"), ParseError,
     "boolean operand"),
    # ill-typed updates, labels and min/max arguments
    ("update-ill-typed", module("[a] true -> (x'=x & true);"), ParseError,
     "boolean operand"),
    ("label-ill-typed", module("[a] true -> true;")
     + 'label "l" = (x=0) | 2;\n', ParseError, "boolean operand"),
    ("label-numeric", module("[a] true -> true;") + 'label "l" = x + 1;\n',
     ParseError, "must be boolean"),
    ("label-second", module("[a] true -> true;")
     + 'label "ok" = x = 0;\nlabel "l" = min(x, 1);\n', ParseError,
     "'l' must be boolean"),
    ("min-argument", module("[a] min(x, true) > 0 -> true;"), ParseError,
     "numeric operand"),
    ("max-third-argument", module("[a] true -> (x'=max(x, 1, x = 0));"),
     ParseError, "numeric operand"),
    ("negated-boolean", module("[a] -true < x -> true;"), ParseError,
     "numeric operand"),
    ("not-integer", module("[a] !1 -> true;"), ParseError, "boolean operand"),
    # values of the wrong type reaching an integer variable
    ("bool-to-int", module("[a] true -> (x'=true);"), ParseError,
     "update of 'x' must be an integer"),
    ("double-to-int", module("[a] true -> (x'=0.5);"), ParseError,
     "must be an integer"),
    ("min-picks-double", "const double h = 0.5;\n"
     + module("[a] x < 2 -> (x'=x+1);", "[b] true -> (x'=min(x, h));"),
     ParseError, "update of 'x' must be an integer"),
    # ranges and budgets
    ("out-of-range", module("[a] true -> 0.5:(x'=x+1) + 0.5:(x'=x-1);"),
     DomainError, r"line 3: update x'=-1 leaves [0..2] at state x=0"),
    # [add] fires at c,y = 0,0 1,0 2,0 1,1 and 3,0 before y+c leaves the
    # range at the sixth state, under read values not met before
    ("out-of-range-deep",
     module("[tick] c < 4 -> (c'=c+1);", "[add] y < 3 -> (y'=y+c);",
            var="c : [0..4] init 0;\n  y : [0..3] init 0;"),
     DomainError, "line 5: update y'=4 leaves [0..3] at state c=2,y=2"),
    # [go] stays blocked by m0 at y=0 and y=1 for both values of z, which
    # [go] does not read, and m1's ill-typed guard runs only at y=2
    ("guard-behind-recurring-block",
     "module m0\n  y : [0..2] init 0;\n  z : [0..1] init 0;\n"
     "  [go] y = 2 -> true;\n  [] y < 2 -> (y'=y+1);\n"
     "  [] true -> (z'=1-z);\nendmodule\n"
     "module m1\n  x : [0..1] init 0;\n  [go] x + true -> true;\nendmodule\n",
     ParseError, "expected a numeric operand"),
    ("constant-ill-typed", "const int K = 1 + true;\n"
     + module("[a] true -> true;"), ParseError, "numeric operand"),
    ("constant-forward", "const int K = L;\nconst int L = 1;\n"
     + module("[a] true -> true;"), ParseError, "unknown identifier 'L'"),
    ("bound-ill-typed", module("[a] true -> true;", var="x : [0..!1];"),
     ParseError, "boolean operand"),
    ("update-beats-label", module("[a] true -> (x'=x+1);")
     + 'label "l" = x + 1;\n', DomainError, "leaves [0..2]"),
]


class TestErrorParity:
    @pytest.mark.parametrize("text, kind, needle",
                             [case[1:] for case in RAISES],
                             ids=[case[0] for case in RAISES])
    def test_same_error(self, text, kind, needle):
        result = assert_same(text)
        assert result[0] == "raised" and result[1] is kind
        assert needle in result[2]
        if kind is ParseError:
            assert result[4] == "case.pm" and result[3] is not None

    def test_state_cap(self):
        text = module("[a] x < 2 -> (x'=x+1);")
        result = assert_same(text, state_cap=2)
        assert result[0] == "raised" and result[1] is BudgetError
        assert "cap of 2 states" in result[2]
        assert assert_same(text, state_cap=3)[0] == "built"

    def test_state_cap_met_before_a_later_combination_fails(self):
        # a interns x=1 past the cap before a#1 computes x'=-1
        text = module("[a] true -> (x'=1);", "[a] true -> (x'=x-1);")
        result = assert_same(text, state_cap=1)
        assert result[0] == "raised" and result[1] is BudgetError
        result = assert_same(text, state_cap=2)
        assert result[0] == "raised" and result[1] is DomainError

    def test_integer_guard_is_refused_at_its_line(self):
        result = assert_same(module("[a] x + 1 -> (x'=1);",
                                    "[b] x = 0 -> (x'=2);"))
        assert result == ("raised", ParseError,
                          "case.pm, line 3: guard must be boolean", 3,
                          "case.pm")

    def test_guard_behind_a_blocking_participant_is_never_evaluated(self):
        text = ("module m0\n  y : [0..1] init 0;\n  [go] false -> true;\n"
                "  [] y = 0 -> (y'=1);\nendmodule\n"
                "module m1\n  x : [0..1] init 0;\n  [go] x + true -> true;\n"
                "endmodule\n")
        result = assert_same(text)
        assert result[0] == "built" and result[1][0] == 2

    def test_min_of_int_and_double_is_checked_per_value(self):
        # min(x + 1, h) picks the int 1 and 2, never h, so it builds
        text = "const double h = 2.5;\n" + module(
            "[a] x < 2 -> (x'=min(x + 1, h));")
        result = assert_same(text)
        assert result[0] == "built" and result[1][0] == 3
