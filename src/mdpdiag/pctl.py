"""State and path formulas for probabilistic safety checking.

A property bounds from above the probability of an until path formula
over propositional state formulas; only such a property is violated by a
finite set of paths, its counterexample. The grammar:

    property := 'P' ('<=' | '<') p '[' state 'U' ['<=' k] state ']'
    state    := state '|' state | state '&' state | '!' state | '(' state ')'
              | 'true' | 'false' | atom | '"' label '"'

with p a number in [0, 1], above 0 after '<', k a nonnegative integer,
'&' binding tighter than '|', and atom any identifier but U, true and
false. P<0 is rejected: it holds in no model, so it would be violated
even at Pmax 0, where no path witnesses the violation. For example

    P<=0.5 [ (a|b) U (c&d) ]      P<0.1 [ x U<=12 y ]

Lower thresholds (P>=, P>) and weak until (W) are parse errors; W is an
ordinary atom name. Disjunction is part of the state-formula grammar
even though minimal presentations derive it from negation and
conjunction; cause extraction treats it as a first-class connective, and
reads each negation where it is written.
"""

from __future__ import annotations

import re
from collections.abc import Collection, Iterable, Mapping, Set

from .errors import DomainError, ParseError
from .records import record


# -- abstract syntax -------------------------------------------------------


class StateFormula:
    __slots__ = ()


@record(frozen=True)
class TrueFormula(StateFormula):
    """The formula that holds at every state."""

    def __str__(self):
        return "true"


@record(frozen=True)
class FalseFormula(StateFormula):
    """The formula that holds at no state."""

    def __str__(self):
        return "false"


TRUE = TrueFormula()
FALSE = FalseFormula()


@record(frozen=True)
class Atom(StateFormula):
    """An atomic proposition: holds at the states labelled name."""

    name: str

    def __str__(self):
        return self.name


@record(frozen=True)
class Not(StateFormula):
    """Negation: holds where child does not."""

    child: StateFormula

    def __str__(self):
        return f"!{_wrap(self.child, tight=True)}"


@record(frozen=True)
class And(StateFormula):
    """Conjunction: holds where left and right both hold."""

    left: StateFormula
    right: StateFormula

    def __str__(self):
        return f"{_wrap(self.left, tight=True)} & {_wrap(self.right, tight=True)}"


@record(frozen=True)
class Or(StateFormula):
    """Disjunction: holds where left or right holds."""

    left: StateFormula
    right: StateFormula

    def __str__(self):
        l = _wrap(self.left)
        r = _wrap(self.right)
        return f"{l} | {r}"


def _wrap(phi: StateFormula, tight: bool = False) -> str:
    # Parenthesize just enough for the printed form to reparse identically.
    if isinstance(phi, Or) or (tight and isinstance(phi, And)):
        return f"({phi})"
    return str(phi)


@record(frozen=True)
class PathFormula:
    """left U right, optionally step-bounded."""

    left: StateFormula
    right: StateFormula
    bound: int | None = None

    def __post_init__(self):
        if self.bound is None:
            return
        # not bool or float: True would equal bound 1, 2.5 print as U<=2.5
        if type(self.bound) is not int:
            raise DomainError(f"step bound must be an int, got {self.bound!r}")
        if self.bound < 0:
            raise DomainError(f"step bound must be nonnegative, got {self.bound}")

    def __str__(self):
        op = "U" if self.bound is None else f"U<={self.bound}"
        return f"{_until_operand(self.left)} {op} {_until_operand(self.right)}"


def _until_operand(phi: StateFormula) -> str:
    if isinstance(phi, (And, Or)):
        return f"({phi})"
    return str(phi)


@record(frozen=True)
class PropertySpec:
    """P <comparison> <threshold> [ <path formula> ]; the comparison is
    '<=' or '<'."""

    comparison: str
    threshold: float
    path: PathFormula

    def __post_init__(self):
        if self.comparison not in ("<=", "<"):
            raise DomainError(f"unsupported comparison {self.comparison!r}")
        if not 0.0 <= self.threshold <= 1.0:
            raise DomainError(f"threshold must lie in [0, 1], got {self.threshold}")
        if self.threshold == 0.0 and self.comparison == "<":
            raise DomainError("P<0 holds in no model; a threshold after '<' "
                              "must be above 0")

    def __str__(self):
        return f"P{self.comparison}{fmt_number(self.threshold)} [ {self.path} ]"


def mass_exceeds(spec: PropertySpec, mass: float) -> bool:
    """Does this much path probability witness the property's violation?"""
    if spec.comparison == "<=":
        return mass > spec.threshold
    return mass >= spec.threshold


def fmt_number(x: float) -> str:
    """x as the property text shows it: repr, without ".0" on a whole
    number, so every digit of a threshold is printed."""
    return repr(x) if x != int(x) else repr(int(x))


# -- evaluation ------------------------------------------------------------


def eval_state_formula(labels: Mapping[int, Set[str]], s: int,
                       phi: StateFormula) -> bool:
    """Evaluate phi at state s under the given labelling; an atom that
    labels no state is false at every state."""
    if isinstance(phi, TrueFormula):
        return True
    if isinstance(phi, FalseFormula):
        return False
    if isinstance(phi, Atom):
        return phi.name in labels.get(s, frozenset())
    if isinstance(phi, Not):
        return not eval_state_formula(labels, s, phi.child)
    if isinstance(phi, And):
        return (eval_state_formula(labels, s, phi.left)
                and eval_state_formula(labels, s, phi.right))
    if isinstance(phi, Or):
        return (eval_state_formula(labels, s, phi.left)
                or eval_state_formula(labels, s, phi.right))
    raise DomainError(f"not a state formula: {phi!r}")


def atoms(psi: PathFormula) -> set[str]:
    """The atoms the operands of psi name."""
    out, todo = set(), [psi.left, psi.right]
    while todo:
        phi = todo.pop()
        if isinstance(phi, Atom):
            out.add(phi.name)
        elif isinstance(phi, Not):
            todo.append(phi.child)
        elif isinstance(phi, (And, Or)):
            todo += phi.left, phi.right
    return out


def until_sets(labels: Mapping[int, Set[str]], states: Iterable[int],
               path: PathFormula) -> tuple[frozenset[int], frozenset[int]]:
    """The targets (right operand holds) and the guard-only states (left
    operand holds, right one fails) among states, under labels. Each
    operand is evaluated as one set operation per formula node, over the
    states each atom labels."""
    universe = frozenset(states)
    index: dict[str, set[int]] = {}
    for s, names in labels.items():
        if s in universe:
            for name in names:
                index.setdefault(name, set()).add(s)
    targets = _satisfying(path.right, universe, index)
    return targets, _satisfying(path.left, universe, index) - targets


def _satisfying(phi: StateFormula, universe: frozenset[int],
                index: Mapping[str, set[int]]) -> frozenset[int]:
    """The states of universe where phi holds, index mapping each atom to
    the states of universe it labels."""
    if isinstance(phi, TrueFormula):
        return universe
    if isinstance(phi, FalseFormula):
        return frozenset()
    if isinstance(phi, Atom):
        return frozenset(index.get(phi.name, ()))
    if isinstance(phi, Not):
        return universe - _satisfying(phi.child, universe, index)
    if isinstance(phi, And):
        return (_satisfying(phi.left, universe, index)
                & _satisfying(phi.right, universe, index))
    if isinstance(phi, Or):
        return (_satisfying(phi.left, universe, index)
                | _satisfying(phi.right, universe, index))
    raise DomainError(f"not a state formula: {phi!r}")


# -- parsing ---------------------------------------------------------------

_TOKEN_RE = re.compile(r"""
    (?P<ws>\s+)
  | (?P<num>\d+(?:\.\d+)?(?:[eE][-+]?\d+)?)
  | (?P<cmp><=|>=|<|>)
  | (?P<punct>[\[\]()&|!])
  | (?P<quoted>"[^"\n]*")
  | (?P<ident>[A-Za-z_][A-Za-z0-9_]*)
""", re.VERBOSE)


@record(frozen=True)
class Token:
    kind: str
    text: str
    line: int
    column: int


def tokenize(pattern: re.Pattern, text: str,
             filename: str | None = None) -> list[Token]:
    """Split text into tokens, one per match of pattern, whose named group
    gives the kind; the group 'ws' is dropped and an 'eof' token closes the
    list. A character no group matches raises ParseError at its position."""
    tokens = []
    line, col = 1, 1
    pos = 0
    while pos < len(text):
        m = pattern.match(text, pos)
        if m is None:
            raise ParseError(f"unexpected character {text[pos]!r}",
                             line=line, column=col, filename=filename)
        kind = m.lastgroup
        lexeme = m.group()
        if kind != "ws":
            tokens.append(Token(kind, lexeme, line, col))
        newlines = lexeme.count("\n")
        if newlines:
            line += newlines
            col = len(lexeme) - lexeme.rfind("\n")
        else:
            col += len(lexeme)
        pos = m.end()
    tokens.append(Token("eof", "", line, col))
    return tokens


class TokenCursor:
    """A position in a token list from tokenize, for recursive-descent
    parsers; errors name the token's line, column and the filename."""

    def __init__(self, tokens: list[Token], filename: str | None = None):
        self.tokens = tokens
        self.pos = 0
        self.filename = filename

    def peek(self) -> Token:
        return self.tokens[self.pos]

    def advance(self) -> Token:
        tok = self.tokens[self.pos]
        if tok.kind != "eof":
            self.pos += 1
        return tok

    def error(self, message, tok=None):
        tok = tok or self.peek()
        raise ParseError(message, line=tok.line, column=tok.column,
                         filename=self.filename)

    def expect(self, text):
        tok = self.peek()
        if tok.text != text:
            shown = tok.text or "end of input"
            self.error(f"expected {text!r}, got {shown!r}")
        return self.advance()

    def parse_binary(self, ops, operand, make, min_level=0):
        """Parse operands joined by left-associative binary operators.

        ops maps each operator to its level, higher binding tighter, and
        make(op, left, right) builds a node. By precedence climbing, an
        operand costs one frame for all levels, two behind an operator, so
        the recursion limit allows nesting as deep as one method per level
        would."""
        left = operand()
        while ops.get(self.peek().text, -1) >= min_level:
            op = self.advance().text
            left = make(op, left,
                        self.parse_binary(ops, operand, make, ops[op] + 1))
        return left


class _PropertyParser(TokenCursor):
    def __init__(self, tokens, defined_labels=None):
        super().__init__(tokens)
        self.defined_labels = defined_labels

    def parse_property(self) -> PropertySpec:
        tok = self.peek()
        if tok.kind != "ident" or tok.text != "P":
            self.error("a property starts with 'P'")
        self.advance()
        cmp_tok = self.peek()
        if cmp_tok.text not in ("<=", "<"):
            self.error("expected the comparison '<=' or '<' after 'P'")
        self.advance()
        num_tok = self.peek()
        if num_tok.kind != "num":
            self.error("expected a probability threshold")
        self.advance()
        threshold = float(num_tok.text)
        if not 0.0 <= threshold <= 1.0:
            self.error(f"threshold {num_tok.text} outside [0, 1]", num_tok)
        if threshold == 0.0 and cmp_tok.text == "<":
            self.error("P<0 holds in no model; a threshold after '<' must "
                       "be above 0", num_tok)
        self.expect("[")
        path = self.parse_path()
        self.expect("]")
        tok = self.peek()
        if tok.kind != "eof":
            self.error(f"trailing input {tok.text!r}")
        return PropertySpec(cmp_tok.text, threshold, path)

    def parse_path(self) -> PathFormula:
        left = self.parse_or()
        op_tok = self.peek()
        if op_tok.kind != "ident" or op_tok.text != "U":
            self.error("expected 'U' between state formulas")
        self.advance()
        bound = None
        if self.peek().text == "<=":
            self.advance()
            num_tok = self.peek()
            if num_tok.kind != "num" or "." in num_tok.text or "e" in num_tok.text.lower():
                self.error("step bound must be a nonnegative integer")
            self.advance()
            bound = int(num_tok.text)
        right = self.parse_or()
        return PathFormula(left, right, bound)

    def parse_or(self) -> StateFormula:
        return self.parse_binary(
            {"|": 0, "&": 1}, self.parse_not,
            lambda op, l, r: Or(l, r) if op == "|" else And(l, r))

    def parse_not(self) -> StateFormula:
        if self.peek().text == "!":
            self.advance()
            return Not(self.parse_not())
        return self.parse_primary()

    def parse_primary(self) -> StateFormula:
        tok = self.peek()
        if tok.text == "(":
            self.advance()
            phi = self.parse_or()
            self.expect(")")
            return phi
        if tok.kind == "quoted":
            self.advance()
            name = tok.text[1:-1]
            if self.defined_labels is None:
                self.error(f"quoted label {tok.text} used without a label table", tok)
            if name not in self.defined_labels:
                self.error(f"undefined label {tok.text}", tok)
            return Atom(name)
        if tok.kind == "ident":
            if tok.text == "true":
                self.advance()
                return TRUE
            if tok.text == "false":
                self.advance()
                return FALSE
            if tok.text == "U":
                self.error("'U' is reserved for the until operator", tok)
            if tok.text == "P" and self.tokens[self.pos + 1].kind == "cmp":
                self.error("nested probability operators are not supported", tok)
            if (self.defined_labels is not None
                    and tok.text not in self.defined_labels):
                self.error(f"unknown atomic proposition {tok.text!r}", tok)
            self.advance()
            return Atom(tok.text)
        shown = tok.text or "end of input"
        self.error(f"expected a state formula, got {shown!r}")


def parse_property(text: str,
                   defined_labels: Collection[str] | None = None) -> PropertySpec:
    """Parse a property string; see the module docstring for the grammar.

    defined_labels, when given, is the alphabet (a model's or a trace's
    atomic propositions): every atom named, quoted or bare, must be in it,
    or ParseError names the atom at its column. Quoted labels need it.
    """
    return _PropertyParser(tokenize(_TOKEN_RE, text),
                           defined_labels).parse_property()
