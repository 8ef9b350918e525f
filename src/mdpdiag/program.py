"""Guarded-command programs and their elaboration into explicit MDPs.

A program is a set of modules over bounded integer variables:

    const int K = 1;
    module station
      s : [0..4] init 0;
      [send] (s=0) -> 0.9:(s'=1) + 0.1:(s'=0);
      []     (s=1) -> (s'=2);
    endmodule
    label "done" = (s=2);

Commands with the same non-empty action label synchronize across every
module whose alphabet contains the label (one enabled command per such
module fires jointly, probabilities multiply); unlabelled commands
interleave on their own. Elaboration explores the reachable valuations
breadth-first, so building the same program twice yields identical state
numbering, and records for every action the source commands it fires.
Every guard, update and label expression is compiled once, before
exploration, into a statically typed closure over state tuples (variable
values in declaration order), so no expression tree is walked per state.
Each closure knows the variables it reads, so a synchronization is
evaluated once per distinct value of the variables its commands read, and
the labels once per distinct value of theirs; every other state with those
values replays the result.
"""

from __future__ import annotations

import operator
import re
from collections.abc import Callable, Mapping, Sequence
from itertools import product
from operator import itemgetter

from .defaults import DEFAULT_STATE_CAP
from .errors import BudgetError, DomainError, ParseError
from .mdp import PROB_SUM_TOL, Mdp
from .pctl import TokenCursor, tokenize
from .records import record

_KEYWORDS = {"module", "endmodule", "const", "int", "double", "init",
             "label", "true", "false", "min", "max"}

_NAME_RE = re.compile(r"[A-Za-z_][A-Za-z0-9_]*\Z")


# -- expression syntax -------------------------------------------------------


class Expr:
    __slots__ = ()


@record(frozen=True)
class Num(Expr):
    value: object  # int or float


@record(frozen=True)
class BoolLit(Expr):
    value: bool


@record(frozen=True)
class Name(Expr):
    ident: str


@record(frozen=True)
class Unary(Expr):
    op: str  # '-' or '!'
    child: Expr


@record(frozen=True)
class Binary(Expr):
    op: str  # + - * = != < <= > >= & |
    left: Expr
    right: Expr


@record(frozen=True)
class Call(Expr):
    func: str  # min or max
    args: tuple[Expr, ...]


@record(frozen=True)
class _Code:
    """A compiled expression.

    fn maps a state tuple to the value. kind is the static type: 'bool',
    'int', 'float', 'num' (int or float, as min/max pick at run time) or
    'error', whose fn raises. value is the result when no variable is read.
    reads holds the slots fn reads, so fn gives one result, or raises one
    error, for every state alike in those slots.
    """
    fn: Callable
    kind: str
    value: object = None
    reads: frozenset = frozenset()


# & and | do not short-circuit: both sides are checked, as both are typed
_OPS = {"+": operator.add, "-": operator.sub, "*": operator.mul,
        "=": operator.eq, "!=": operator.ne, "<": operator.lt,
        "<=": operator.le, ">": operator.gt, ">=": operator.ge,
        "&": operator.and_, "|": operator.or_}


def compile_expr(expr: Expr, consts: Mapping[str, object],
                 slots: Mapping[str, int] | None = None,
                 line: int | None = None,
                 filename: str | None = None,
                 unknown: str = "unknown identifier") -> _Code:
    """Compile expr once into a closure over state tuples.

    Names resolve to constants, folded in as literals, or to slots, the
    index of an integer variable in the state tuple; the leftmost other
    name raises ParseError(f"{unknown} {name!r}") here, at compile time.
    Types are static, integers and booleans distinct, so the closure checks
    none: an ill-typed expression compiles to a closure raising the
    ParseError that evaluating left to right meets first, once called.
    """
    return _Compiler(consts, slots or {}, line, filename, unknown).rec(expr)


class _Compiler:
    """compile_expr's state. Its methods call each other by name rather
    than as closures over each other, so compiling leaves no reference
    cycle, and no closure it makes refers to it."""

    def __init__(self, consts, slots, line, filename, unknown):
        self.consts = consts
        self.slots = slots
        self.line = line
        self.filename = filename
        self.unknown = unknown

    def fail(self, msg):
        line, filename = self.line, self.filename

        def raise_error(state):
            raise ParseError(msg, line=line, filename=filename)
        return _Code(raise_error, "error")

    @staticmethod
    def literal(v):
        kind = ("bool" if isinstance(v, bool) else
                "int" if isinstance(v, int) else "float")
        return _Code(lambda state: v, kind, v)

    def operand(self, e, boolean):
        c = self.rec(e)
        if c.kind == "error" or (c.kind == "bool") == boolean:
            return c
        return self.fail("expected a boolean operand" if boolean
                         else "expected a numeric operand")

    def apply(self, f, kind, args):
        for a in args:
            if a.kind == "error":
                return a
        if all(a.value is not None for a in args):
            return self.literal(f(*(a.value for a in args)))
        fns = [a.fn for a in args]
        reads = frozenset().union(*(a.reads for a in args))
        if len(args) != 2:
            return _Code(lambda s: f(*[g(s) for g in fns]), kind, None, reads)
        (lf, rf), rv = fns, args[1].value
        if rv is not None:  # the common `variable op constant`
            return _Code(lambda s: f(lf(s), rv), kind, None, reads)
        return _Code(lambda s: f(lf(s), rf(s)), kind, None, reads)

    def rec(self, e):
        if isinstance(e, (Num, BoolLit)):
            return self.literal(e.value)
        if isinstance(e, Name):
            if e.ident in self.slots:
                slot = self.slots[e.ident]
                return _Code(itemgetter(slot), "int", None, frozenset((slot,)))
            if e.ident in self.consts:
                return self.literal(self.consts[e.ident])
            raise ParseError(f"{self.unknown} {e.ident!r}", line=self.line,
                             filename=self.filename)
        if isinstance(e, Unary) and e.op == "-":
            c = self.operand(e.child, False)
            return self.apply(operator.neg, c.kind, [c])
        if isinstance(e, Unary):
            return self.apply(operator.not_, "bool",
                              [self.operand(e.child, True)])
        if isinstance(e, Call):
            args = [self.operand(a, False) for a in e.args]
            kinds = {a.kind for a in args}
            pick = min if e.func == "min" else max
            return self.apply(lambda *vals: pick(vals),
                              kinds.pop() if len(kinds) == 1 else "num", args)
        if isinstance(e, Binary) and e.op in _OPS:
            boolean = e.op in ("&", "|")
            l = self.operand(e.left, boolean)
            r = self.operand(e.right, boolean)
            if e.op not in ("+", "-", "*"):
                kind = "bool"
            elif "float" in (l.kind, r.kind):
                kind = "float"
            else:
                kind = "int" if l.kind == r.kind == "int" else "num"
            return self.apply(_OPS[e.op], kind, [l, r])
        return self.fail(f"cannot evaluate expression node {e!r}")


def _constant(expr, consts, line, filename, unknown="unknown identifier"):
    """The value of an expression that reads no variable."""
    return compile_expr(expr, consts, None, line, filename, unknown).fn(())


# -- program syntax ----------------------------------------------------------


@record(frozen=True)
class ConstDef:
    name: str
    kind: str  # 'int' or 'double'
    expr: Expr | None
    line: int


@record(frozen=True)
class VarDecl:
    name: str
    low: Expr
    high: Expr
    init: Expr | None
    line: int


@record(frozen=True)
class Assignment:
    var: str
    expr: Expr


@record(frozen=True)
class Update:
    prob: Expr | None  # None means probability one
    assignments: tuple[Assignment, ...]


@record(frozen=True)
class Command:
    label: str  # '' for an unlabelled, interleaving command
    guard: Expr
    updates: tuple[Update, ...]
    line: int


@record(frozen=True)
class ModuleDef:
    name: str
    variables: tuple[VarDecl, ...]
    commands: tuple[Command, ...]
    line: int


@record(frozen=True)
class LabelDef:
    name: str
    expr: Expr
    line: int


@record(frozen=True)
class Program:
    """A guarded-command program as parse_program reads it: constants,
    modules and labels."""

    constants: tuple[ConstDef, ...]
    modules: tuple[ModuleDef, ...]
    labels: tuple[LabelDef, ...]
    filename: str | None = None


# -- tokenizer ---------------------------------------------------------------

_PM_TOKEN_RE = re.compile(r"""
    (?P<ws>\s+|//[^\n]*)
  | (?P<num>\d+\.\d+(?:[eE][-+]?\d+)?|\d+[eE][-+]?\d+|\d+)
  | (?P<op>->|\.\.|!=|<=|>=|[+\-*=<>:;,&|!()\[\]'])
  | (?P<quoted>"[^"\n]*")
  | (?P<ident>[A-Za-z_][A-Za-z0-9_]*)
""", re.VERBOSE)


class _ProgramParser(TokenCursor):
    def expect_ident(self, what="an identifier"):
        t = self.peek()
        if t.kind != "ident" or t.text in _KEYWORDS:
            shown = t.text or "end of input"
            self.error(f"expected {what}, got {shown!r}")
        return self.advance()

    # items

    def parse_program(self) -> Program:
        constants, modules, labels = [], [], []
        while True:
            t = self.peek()
            if t.kind == "eof":
                break
            if t.text == "const":
                constants.append(self.parse_const())
            elif t.text == "module":
                modules.append(self.parse_module())
            elif t.text == "label":
                labels.append(self.parse_label())
            else:
                self.error(f"expected 'const', 'module' or 'label', got {t.text!r}")
        if not modules:
            raise ParseError("program declares no module", filename=self.filename)
        return Program(tuple(constants), tuple(modules), tuple(labels),
                       self.filename)

    def parse_const(self) -> ConstDef:
        start = self.expect("const")
        t = self.peek()
        if t.text not in ("int", "double"):
            self.error(f"expected 'int' or 'double', got {t.text!r}")
        kind = self.advance().text
        name = self.expect_ident("a constant name").text
        expr = None
        if self.peek().text == "=":
            self.advance()
            expr = self.parse_expr()
        self.expect(";")
        return ConstDef(name, kind, expr, start.line)

    def parse_module(self) -> ModuleDef:
        start = self.expect("module")
        name = self.expect_ident("a module name").text
        variables, commands = [], []
        while True:
            t = self.peek()
            if t.text == "endmodule":
                self.advance()
                break
            if t.kind == "eof":
                self.error(f"module {name!r} is missing 'endmodule'", start)
            if t.text == "[":
                commands.append(self.parse_command())
            elif t.kind == "ident" and t.text not in _KEYWORDS:
                variables.append(self.parse_vardecl())
            else:
                self.error(f"expected a variable declaration or a command, "
                           f"got {t.text!r}")
        return ModuleDef(name, tuple(variables), tuple(commands), start.line)

    def parse_vardecl(self) -> VarDecl:
        name_tok = self.expect_ident("a variable name")
        self.expect(":")
        self.expect("[")
        low = self.parse_expr()
        self.expect("..")
        high = self.parse_expr()
        self.expect("]")
        init = None
        if self.peek().text == "init":
            self.advance()
            init = self.parse_expr()
        self.expect(";")
        return VarDecl(name_tok.text, low, high, init, name_tok.line)

    def parse_command(self) -> Command:
        start = self.expect("[")
        label = ""
        if self.peek().text != "]":
            label = self.expect_ident("an action label").text
        self.expect("]")
        guard = self.parse_expr()
        self.expect("->")
        updates = [self.parse_update()]
        while self.peek().text == "+":
            self.advance()
            updates.append(self.parse_update())
        self.expect(";")
        return Command(label, guard, tuple(updates), start.line)

    def parse_update(self) -> Update:
        # A probability prefix 'expr :' is optional; detect it by scanning
        # ahead for a ':' before the update body starts with '(' or 'true'.
        save = self.pos
        prob = None
        try:
            prob = self.parse_expr()
        except ParseError:
            self.pos = save
        if prob is not None and self.peek().text == ":":
            self.advance()
        else:
            self.pos = save
            prob = None
        if self.peek().text == "true":
            self.advance()
            return Update(prob, ())
        assignments = [self.parse_assignment()]
        while self.peek().text == "&":
            self.advance()
            assignments.append(self.parse_assignment())
        return Update(prob, tuple(assignments))

    def parse_assignment(self) -> Assignment:
        self.expect("(")
        var = self.expect_ident("a variable name").text
        self.expect("'")
        self.expect("=")
        expr = self.parse_expr()
        self.expect(")")
        return Assignment(var, expr)

    def parse_label(self) -> LabelDef:
        start = self.expect("label")
        t = self.peek()
        if t.kind != "quoted":
            self.error("expected a quoted label name")
        self.advance()
        name = t.text[1:-1]
        if not _NAME_RE.match(name):
            self.error(f"label name {name!r} must be a plain identifier", t)
        self.expect("=")
        expr = self.parse_expr()
        self.expect(";")
        return LabelDef(name, expr, start.line)

    # expressions, loosest binding first

    def parse_expr(self) -> Expr:
        return self.parse_binary({"|": 0, "&": 1}, self.parse_bool_not, Binary)

    def parse_bool_not(self) -> Expr:
        if self.peek().text == "!":
            self.advance()
            return Unary("!", self.parse_bool_not())
        return self.parse_comparison()

    def parse_comparison(self) -> Expr:
        e = self.parse_arith()
        t = self.peek()
        if t.text in ("=", "!=", "<", "<=", ">", ">="):
            self.advance()
            return Binary(t.text, e, self.parse_arith())
        return e

    def parse_arith(self) -> Expr:
        return self.parse_binary({"+": 0, "-": 0, "*": 1}, self.parse_factor,
                                 Binary)

    def parse_factor(self) -> Expr:
        t = self.peek()
        if t.text == "(":
            self.advance()
            e = self.parse_expr()
            self.expect(")")
            return e
        if t.text == "-":
            self.advance()
            return Unary("-", self.parse_factor())
        if t.kind == "num":
            self.advance()
            if "." in t.text or "e" in t.text or "E" in t.text:
                return Num(float(t.text))
            return Num(int(t.text))
        if t.text == "true":
            self.advance()
            return BoolLit(True)
        if t.text == "false":
            self.advance()
            return BoolLit(False)
        if t.text in ("min", "max"):
            self.advance()
            self.expect("(")
            args = [self.parse_expr()]
            while self.peek().text == ",":
                self.advance()
                args.append(self.parse_expr())
            self.expect(")")
            if len(args) < 2:
                self.error(f"{t.text} needs at least two arguments", t)
            return Call(t.text, tuple(args))
        if t.kind == "ident" and t.text not in _KEYWORDS:
            self.advance()
            return Name(t.text)
        shown = t.text or "end of input"
        self.error(f"expected an expression, got {shown!r}")


def parse_program(text: str, filename: str | None = None) -> Program:
    return _ProgramParser(tokenize(_PM_TOKEN_RE, text, filename),
                          filename).parse_program()


# -- constant folding and validation ----------------------------------------


def fold_constants(program: Program,
                   overrides: Mapping[str, object] | None = None) -> dict:
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
            value = _constant(c.expr, values, c.line, program.filename)
        else:
            raise DomainError(f"constant {c.name!r} has no value; supply one")
        if isinstance(value, bool) or not isinstance(value, (int, float)):
            raise ParseError(f"constant {c.name!r} must be numeric",
                             line=c.line, filename=program.filename)
        if c.kind == "int":
            if isinstance(value, float):
                if not value.is_integer():  # False for nan and inf too
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


@record(frozen=True)
class _ReadyCommand:
    module: str
    label_index: int  # position among same-label commands of the module
    guard: Callable  # state tuple -> bool
    # (probability, ((variable, slot, value of, low, high), ...)) per branch
    updates: tuple[tuple[float, tuple[tuple], ...], ...]
    line: int
    reads: frozenset  # the slots its guard and updates read


@record
class _ReadyProgram:
    var_order: tuple[str, ...]
    init: tuple[int, ...]
    # (action name, key, groups): the commands of each module in the
    # action's alphabet, in module order, and key, which maps a state tuple
    # to the values of the slots they read; an unlabelled command is a group
    # of its own, named module:line (module:line#k for the k-th more on one
    # line), after every label
    syncs: tuple[tuple[str, Callable, tuple[tuple[_ReadyCommand, ...], ...]],
                 ...]
    labels: tuple[tuple[str, Callable], ...]  # name, state tuple -> bool
    label_key: Callable  # state tuple -> the values the labels read


def _key_of(reads: frozenset) -> Callable:
    """Map a state tuple to its values at the slots in reads, ascending
    (the bare value for one slot)."""
    if not reads:
        return lambda state: ()
    return itemgetter(*sorted(reads))


def _prepare(program: Program, consts: dict) -> _ReadyProgram:
    fn = program.filename
    seen_modules = set()
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
            low = _constant(decl.low, consts, decl.line, fn)
            high = _constant(decl.high, consts, decl.line, fn)
            if not isinstance(low, int) or not isinstance(high, int) \
                    or isinstance(low, bool) or isinstance(high, bool):
                raise ParseError(f"bounds of {decl.name!r} must be integers",
                                 line=decl.line, filename=fn)
            if low > high:
                raise ParseError(f"empty range [{low}..{high}] for {decl.name!r}",
                                 line=decl.line, filename=fn)
            start = low
            if decl.init is not None:
                start = _constant(decl.init, consts, decl.line, fn)
                if not isinstance(start, int) or isinstance(start, bool):
                    raise ParseError(f"initial value of {decl.name!r} must be "
                                     "an integer", line=decl.line, filename=fn)
            if not low <= start <= high:
                raise ParseError(f"initial value {start} of {decl.name!r} "
                                 f"escapes [{low}..{high}]",
                                 line=decl.line, filename=fn)
            owner[decl.name] = mod.name
            bounds[decl.name] = (low, high)
            init[decl.name] = start

    slots = {v: i for i, v in enumerate(owner)}

    def typed(expr, kind, line, msg):
        """The code of expr, raising ParseError(msg) on a value not of
        kind ('bool' or 'int'); only a min/max mixing int and float needs
        the check at run time."""
        code = compile_expr(expr, consts, slots, line, fn)
        if code.kind in (kind, "error"):
            return code

        def checked(state):
            value = code.fn(state)
            if kind == "bool" or type(value) is not int:
                raise ParseError(msg, line=line, filename=fn)
            return value
        return _Code(checked, kind, None, code.reads)

    by_label: dict[str, dict[str, list[_ReadyCommand]]] = {}
    internal: list = []  # (action, ((command,),)) per unlabelled command
    line_counts: dict[str, int] = {}
    for mod in program.modules:
        group_counts: dict[str, int] = {}
        for cmd in mod.commands:
            guard = typed(cmd.guard, "bool", cmd.line, "guard must be boolean")
            reads = guard.reads
            probs = []
            for upd in cmd.updates:
                if upd.prob is None:
                    p = 1.0
                else:
                    p = _constant(upd.prob, consts, cmd.line, fn,
                                  "branch probability must be constant, found")
                if isinstance(p, bool) or not isinstance(p, (int, float)):
                    raise ParseError("branch probability must be numeric",
                                     line=cmd.line, filename=fn)
                p = float(p)
                if not p > 0.0:
                    raise ParseError(f"branch probability {p!r} must be "
                                     "positive", line=cmd.line, filename=fn)
                assigned: dict[str, tuple] = {}
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
                    value_of = typed(a.expr, "int", cmd.line,
                                     f"update of {a.var!r} must be an integer")
                    reads |= value_of.reads
                    assigned[a.var] = (a.var, slots[a.var], value_of.fn,
                                       *bounds[a.var])
                probs.append((p, tuple(assigned.values())))
            total = sum(p for p, _ in probs)
            if not abs(total - 1.0) <= PROB_SUM_TOL:
                raise ParseError(f"update probabilities sum to {total!r}, "
                                 "expected 1", line=cmd.line, filename=fn)
            idx = group_counts.get(cmd.label, 0)  # 0 for unlabelled
            ready = _ReadyCommand(mod.name, idx, guard.fn, tuple(probs),
                                  cmd.line, reads)
            if cmd.label:
                group_counts[cmd.label] = idx + 1
                by_label.setdefault(cmd.label, {}).setdefault(
                    mod.name, []).append(ready)
            else:
                action = f"{mod.name}:{cmd.line}"
                k = line_counts.get(action, 0)
                line_counts[action] = k + 1
                internal.append((action + (f"#{k}" if k else ""), ((ready,),)))

    labels: dict[str, Callable] = {}
    label_reads = frozenset()
    for ldef in program.labels:
        if ldef.name in labels:
            raise ParseError(f"label {ldef.name!r} defined twice",
                             line=ldef.line, filename=fn)
        code = typed(ldef.expr, "bool", ldef.line,
                     f"label {ldef.name!r} must be boolean")
        labels[ldef.name] = code.fn
        label_reads |= code.reads

    syncs = [(label, tuple(tuple(mods[m.name]) for m in program.modules
                           if m.name in mods))
             for label, mods in by_label.items()]
    keyed = tuple((label, _key_of(frozenset().union(
                       *(c.reads for group in groups for c in group))), groups)
                  for label, groups in syncs + internal)
    return _ReadyProgram(tuple(owner), tuple(init.values()), keyed,
                         tuple(labels.items()), _key_of(label_reads))


# -- elaboration -------------------------------------------------------------


class _Described(Sequence):
    """The display name of each state, formatted when read."""

    def __init__(self, valuations: list, describe: Callable[[tuple], str]):
        self.valuations, self.describe = valuations, describe

    def __len__(self) -> int:
        return len(self.valuations)

    def __getitem__(self, s: int) -> str:
        return self.describe(self.valuations[s])


def build_mdp(program: Program,
              constants: Mapping[str, object] | None = None,
              state_cap: int = DEFAULT_STATE_CAP) -> tuple[Mdp, dict]:
    """Explore the program's reachable state space into an explicit MDP.

    Returns the MDP and its source map: action id to the guarded
    commands, as sorted (module name, line) pairs, that the action fires,
    one entry per action. An action is one command combination, so every
    transition of the action comes from those commands.

    Nondeterministic alternatives arising from several enabled commands
    (or command combinations under synchronization) with the same label
    become distinct actions named label#i or label#i.j...; unlabelled
    commands act under a module:line name. Raises BudgetError when more
    than state_cap states become reachable and DomainError when an update
    drives a variable out of its range, naming the command line and the
    offending valuation.

    Each valuation is a tuple in variable declaration order. Guards,
    updates and labels are compiled once by compile_expr, which rejects
    an unknown name at compile time, leftmost first, and checks types
    statically; an ill-typed expression, or a guard that is not boolean,
    raises its ParseError only where it is evaluated, so a guard that is
    never evaluated never raises.

    A synchronization is evaluated once per memo key, the values of the
    variables its commands read, at the first state in breadth-first order
    that has the key; later states replay the result. So every error is
    raised at the state, and in the order, where evaluating each state in
    turn meets it. Labels are memoized alike, and the MDP formats a
    state's name only when it is read.
    """
    consts = fold_constants(program, constants)
    ready = _prepare(program, consts)
    var_order = ready.var_order

    def describe(state: tuple) -> str:
        return ",".join(f"{v}={x}" for v, x in zip(var_order, state))

    ids: dict[tuple[int, ...], int] = {ready.init: 0}
    valuations: list[tuple[int, ...]] = [ready.init]
    transitions: dict[tuple[int, str], list[tuple[int, float]]] = {}
    commands: dict[str, tuple[tuple[str, int], ...]] = {}  # per action

    def intern_state(state: tuple) -> int:
        sid = ids.get(state)
        if sid is None:
            sid = len(valuations)
            if sid >= state_cap:
                raise BudgetError(f"state space exceeds the cap of "
                                  f"{state_cap} states")
            ids[state] = sid
            valuations.append(state)
        return sid

    def evaluate(state: tuple, label: str, groups, entry: list):
        """Yield, and append to entry, (action, branches) for each command
        combination enabled at state; branches holds each branch's
        probability and the (slot, value) pairs it assigns. Yielding one
        combination at a time interns its successors before the next one is
        evaluated, so a state cap met there is raised before a later
        combination's error."""
        enabled: list[list[_ReadyCommand]] = []
        for group in groups:
            here = [c for c in group if c.guard(state)]
            if not here:
                return
            enabled.append(here)
        for combo in product(*enabled):
            sig = tuple(c.label_index for c in combo)
            if any(sig):
                action = label + "#" + ".".join(str(i) for i in sig)
            else:
                action = label
            branches = []
            for picked in product(*(c.updates for c in combo)):
                prob = 1.0
                assigned = []
                for cmd, (p, assignments) in zip(combo, picked):
                    prob *= p
                    for var, slot, value_of, low, high in assignments:
                        value = value_of(state)
                        if not low <= value <= high:
                            raise DomainError(
                                f"line {cmd.line}: update {var}'={value} "
                                f"leaves [{low}..{high}] at state "
                                f"{describe(state)}")
                        assigned.append((slot, value))
                branches.append((prob, tuple(assigned)))
            if action not in commands:
                commands[action] = tuple(sorted({(c.module, c.line)
                                                 for c in combo}))
            entry.append((action, branches))
            yield action, branches

    # one memo per synchronization: the values its commands read -> what
    # evaluate gives for them
    syncs = [(key_of, {}, label, groups)
             for label, key_of, groups in ready.syncs]
    sid = 0
    while sid < len(valuations):
        state = valuations[sid]
        for key_of, memo, label, groups in syncs:
            key = key_of(state)
            fired = memo.get(key)
            if fired is None:
                fired = evaluate(state, label, groups,
                                 memo.setdefault(key, []))
            for action, branches in fired:
                dist: dict[tuple[int, ...], float] = {}  # in firing order
                for prob, assigned in branches:
                    target = list(state)
                    for slot, value in assigned:
                        target[slot] = value
                    target = tuple(target)
                    dist[target] = dist.get(target, 0.0) + prob
                transitions[(sid, action)] = [(intern_state(t), p)
                                              for t, p in dist.items()]
        sid += 1

    labels: dict[int, set[str]] = {}
    label_sets: dict[object, set[str]] = {}  # the values labels read -> names
    for s, state in enumerate(valuations):
        key = ready.label_key(state)
        here = label_sets.get(key)
        if here is None:
            here = label_sets[key] = {name for name, holds in ready.labels
                                      if holds(state)}
        if here:
            labels[s] = here

    m = Mdp(len(valuations), 0, transitions, labels,
            _Described(valuations, describe),
            ap_names=[name for name, _ in ready.labels])
    return m, {m.action_id(a): cmds for a, cmds in commands.items()}
