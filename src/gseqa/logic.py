"""First-order formulas over machine signatures.

The abstract syntax keeps the derived connectives (or, implies, iff,
forall) as explicit nodes so that parsing and printing round-trip; the
evaluators treat every node directly.

Concrete syntax:

    formula  := unary (BINOP unary)*
    unary    := '~' unary | 'forall' VAR '.' formula
              | 'exists' VAR '.' formula | atom
    atom     := '(' formula ')' | 'true' | 'false'
              | REL['@'COPY] '(' terms ')' | 'in' '(' term ',' term ')'
              | term '=' term | term '<' term
    term     := NUMBER | 'w' | VAR | CONST['@'COPY]

BINOP is '<->', '->', '|' or '&', loosest first; '->' groups to the
right, the others to the left, and a quantifier's body extends as far
right as it can. The table _BINARY drives both the parser's
precedence-climbing loop and the printer. About 330 nested parentheses
parse (three Python frames each); deeper text is a ParseError.

`x < y` and `in(x, y)` are the same membership atom (ordinals are the
sets of their predecessors); it prints in infix form. In doubled mode
every non-membership symbol reference must carry a copy suffix `@0` or
`@1`; membership is shared between the copies and never takes one.
"""

from __future__ import annotations

import dataclasses
import re
import string
from dataclasses import dataclass
from typing import Callable, Iterable, Iterator, Union

from .errors import ArityMismatch, ParseError, Unsupported
from .ordinals import OMEGA, OrdinalNotation

__all__ = [
    "SymbolDecl",
    "Signature",
    "MEMBERSHIP",
    "Var",
    "Const",
    "OrdinalLiteral",
    "Term",
    "Apply",
    "Equal",
    "Not",
    "And",
    "Or",
    "Implies",
    "Iff",
    "Exists",
    "Forall",
    "Truth",
    "Formula",
    "parse_formula",
    "format_formula",
    "free_vars",
    "static_facts",
    "substitute",
    "quantifier_rank",
    "ordinal_literals",
    "nodes",
    "children",
    "map_formula",
    "symbol_refs",
    "with_copy",
    "is_binary",
    "v",
    "lit",
    "cst",
    "rel",
    "lt",
    "eq",
    "land",
    "lor",
    "lnot",
    "limp",
    "ex",
    "fa",
    "TRUE",
    "FALSE",
]

MEMBERSHIP = "in"

_RESERVED = {"forall", "exists", "in", "true", "false", "w"}


@dataclass(frozen=True)
class SymbolDecl:
    """One signature entry.

    kind is "Relation" or "Constant"; arity is 0 for constants. A
    function is given by its graph, a relation one place wider whose
    last place holds the value: f(t) = s is written F(t, s).
    distinguished marks the three special symbols ("Membership", "In",
    "Out") and is "None" otherwise.
    """

    name: str
    kind: str
    arity: int = 0
    distinguished: str = "None"

    def __post_init__(self) -> None:
        if self.kind not in ("Relation", "Constant"):
            raise ValueError(f"bad symbol kind {self.kind!r}")
        if self.kind == "Constant" and self.arity != 0:
            raise ValueError("constants have arity 0")
        if self.kind == "Relation" and self.arity < 1:
            raise ValueError(f"{self.name}: relations need arity >= 1")
        if self.distinguished not in ("Membership", "In", "Out", "None"):
            raise ValueError(f"bad distinguished tag {self.distinguished!r}")


class Signature:
    """A finite signature containing the membership, In, and Out symbols."""

    def __init__(self, decls: Iterable[SymbolDecl] = ()):
        self._decls: dict[str, SymbolDecl] = {}
        for d in (
            SymbolDecl(MEMBERSHIP, "Relation", 2, "Membership"),
            SymbolDecl("In", "Relation", 1, "In"),
            SymbolDecl("Out", "Relation", 1, "Out"),
        ):
            self._decls[d.name] = d
        for d in decls:
            if d.distinguished != "None" or d.name in self._decls:
                existing = self._decls.get(d.name)
                if existing == d:
                    continue
                raise ValueError(f"cannot redeclare {d.name!r}")
            if d.name in _RESERVED:
                raise ValueError(f"{d.name!r} is reserved")
            # a name that is not one name token could not be read back from text
            if not _NAME_RE.fullmatch(d.name):
                raise ValueError(f"{d.name!r} is not a name ({_NAME_RE.pattern})")
            self._decls[d.name] = d

    def __contains__(self, name: str) -> bool:
        return name in self._decls

    def __iter__(self) -> Iterator[SymbolDecl]:
        return iter(self._decls.values())

    def __eq__(self, other: object) -> bool:
        if not isinstance(other, Signature):
            return NotImplemented
        return self._decls == other._decls

    def decl(self, name: str) -> SymbolDecl:
        try:
            return self._decls[name]
        except KeyError:
            raise KeyError(f"symbol {name!r} not in signature") from None

    def names(self) -> list[str]:
        return list(self._decls)

    def extras(self) -> list[SymbolDecl]:
        """Declarations beyond the three distinguished symbols: the ones
        that need a default value."""
        return [d for d in self._decls.values() if d.distinguished == "None"]

    def doubled_symbols(self) -> list[SymbolDecl]:
        """Everything except membership: the part that exists in two copies."""
        return [d for d in self._decls.values() if d.distinguished != "Membership"]

    def extend(self, decls: Iterable[SymbolDecl]) -> "Signature":
        return Signature(self.extras() + list(decls))

    def __repr__(self) -> str:
        extras = ", ".join(f"{d.name}/{d.kind[0]}{d.arity}" for d in self.extras())
        return f"Signature(in, In, Out{', ' + extras if extras else ''})"


@dataclass(frozen=True)
class Var:
    name: str


@dataclass(frozen=True)
class Const:
    name: str
    copy: int | None = None


@dataclass(frozen=True)
class OrdinalLiteral:
    value: OrdinalNotation

    def __post_init__(self) -> None:
        if isinstance(self.value, int):
            object.__setattr__(self, "value", OrdinalNotation.from_int(self.value))


Term = Union[Var, Const, OrdinalLiteral]


@dataclass(frozen=True)
class Apply:
    """Relation application; membership atoms use the 'in' symbol, copy None."""

    name: str
    args: tuple[Term, ...]
    copy: int | None = None


@dataclass(frozen=True)
class Equal:
    left: Term
    right: Term


@dataclass(frozen=True)
class Truth:
    value: bool


@dataclass(frozen=True)
class Not:
    body: "Formula"


@dataclass(frozen=True)
class And:
    left: "Formula"
    right: "Formula"


@dataclass(frozen=True)
class Or:
    left: "Formula"
    right: "Formula"


@dataclass(frozen=True)
class Implies:
    left: "Formula"
    right: "Formula"


@dataclass(frozen=True)
class Iff:
    left: "Formula"
    right: "Formula"


@dataclass(frozen=True)
class Exists:
    var: str
    body: "Formula"


@dataclass(frozen=True)
class Forall:
    var: str
    body: "Formula"


Formula = Union[Apply, Equal, Truth, Not, And, Or, Implies, Iff, Exists, Forall]

# Any node of the abstract syntax, as nodes and map_formula visit them.
Node = Union[Formula, Term]


# ---------------------------------------------------------------------------
# small construction helpers, used heavily by the transformations


def v(name: str) -> Var:
    return Var(name)


def lit(n: "int | OrdinalNotation") -> OrdinalLiteral:
    return OrdinalLiteral(OrdinalNotation.from_int(n) if isinstance(n, int) else n)


def cst(name: str, copy: int | None = None) -> Const:
    return Const(name, copy)


def rel(name: str, *args: Term, copy: int | None = None) -> Apply:
    return Apply(name, tuple(args), copy)


def lt(a: Term, b: Term) -> Apply:
    return Apply(MEMBERSHIP, (a, b), None)


def eq(a: Term, b: Term) -> Equal:
    return Equal(a, b)


TRUE = Truth(True)
FALSE = Truth(False)


def land(*fs: Formula) -> Formula:
    fs = tuple(f for f in fs if f != TRUE)
    if not fs:
        return TRUE
    out = fs[0]
    for f in fs[1:]:
        out = And(out, f)
    return out


def lor(*fs: Formula) -> Formula:
    fs = tuple(f for f in fs if f != FALSE)
    if not fs:
        return FALSE
    out = fs[0]
    for f in fs[1:]:
        out = Or(out, f)
    return out


def lnot(f: Formula) -> Formula:
    return Not(f)


def limp(a: Formula, b: Formula) -> Formula:
    return Implies(a, b)


def ex(var: str, body: Formula) -> Formula:
    return Exists(var, body)


def fa(var: str, body: Formula) -> Formula:
    return Forall(var, body)


# ---------------------------------------------------------------------------
# measures and traversals


def children(node: Node) -> tuple:
    """The node's direct subformulas and argument terms, left to right."""
    if isinstance(node, Apply):
        return node.args
    if isinstance(node, (Equal, And, Or, Implies, Iff)):
        return (node.left, node.right)
    if isinstance(node, (Not, Exists, Forall)):
        return (node.body,)
    if isinstance(node, (Var, Const, OrdinalLiteral, Truth)):
        return ()
    raise TypeError(f"not a formula or term: {node!r}")


def _with_children(node: Node, kids: tuple) -> Node:
    if isinstance(node, Apply):
        return Apply(node.name, kids, node.copy)
    if isinstance(node, (Exists, Forall)):
        return type(node)(node.var, *kids)
    return type(node)(*kids)


def nodes(f: Node) -> Iterator[Node]:
    """Every formula and term node, pre-order, left to right."""
    stack = [f]
    while stack:
        node = stack.pop()
        yield node
        stack.extend(reversed(children(node)))


def map_formula(f: Node, fn: Callable[[Node], Node]) -> Node:
    """Rebuild f bottom-up, passing every rebuilt formula and term node
    through fn. Nodes fn returns are not visited again."""
    kids = children(f)
    if kids:
        mapped = []
        for k in kids:  # a loop, not a generator: one frame per level
            mapped.append(map_formula(k, fn))
        f = _with_children(f, tuple(mapped))
    return fn(f)


# What static_facts returns: free variables, quantifier rank, ordinal literals.
StaticFacts = tuple[frozenset[str], int, frozenset[OrdinalNotation]]

# Every stored empty set is this one: a sentence has no free variable and
# many formulas no literal, and an empty frozenset takes 216 bytes.
_EMPTY: frozenset = frozenset()


def _union(a: frozenset, b: frozenset) -> frozenset:
    """a | b, which is a or b itself whenever one holds the other, so that a
    node's facts mostly share its subformulas' sets."""
    if b <= a:
        return a
    return b if a <= b else a | b


def static_facts(f: Formula) -> StaticFacts:
    """The free variables, the quantifier rank and the ordinal literals of
    f, folded from its subformulas' facts, an atom's from its arguments.
    Each node's facts are stored on it, outside its fields, and returned by
    later calls on the same object: a formula is immutable, and a rebuilt
    one is a new object. So a node whose subformulas hold facts, as an
    interned node's do, costs O(1). A fold too deep for the stack raises
    RecursionError; the nodes it finished keep their facts."""
    facts = getattr(f, "_static_facts", None)
    if facts is not None:
        return facts
    if isinstance(f, (And, Or, Implies, Iff)):
        free, rank, literals = static_facts(f.left)
        right_free, right_rank, right_literals = static_facts(f.right)
        facts = _union(free, right_free), max(rank, right_rank), _union(literals, right_literals)
    elif isinstance(f, Not):
        facts = static_facts(f.body)
    elif isinstance(f, (Exists, Forall)):
        free, rank, literals = static_facts(f.body)
        facts = free - {f.var} if f.var in free else free, rank + 1, literals
    elif isinstance(f, (Apply, Equal, Truth)):
        args = children(f)
        free = frozenset([t.name for t in args if isinstance(t, Var)]) or _EMPTY
        literals = frozenset([t.value for t in args if isinstance(t, OrdinalLiteral)]) or _EMPTY
        facts = free, 0, literals
    else:
        raise TypeError(f"not a formula: {f!r}")
    object.__setattr__(f, "_static_facts", facts)
    return facts


def free_vars(f: Formula) -> frozenset[str]:
    return static_facts(f)[0]


def quantifier_rank(f: Formula) -> int:
    return static_facts(f)[1]


def ordinal_literals(f: Formula) -> frozenset[OrdinalNotation]:
    return static_facts(f)[2]


def symbol_refs(f: Formula) -> Iterator[tuple[str, int | None]]:
    """Every (symbol, copy) reference in the formula, membership included,
    in pre-order."""
    return (
        (n.name, n.copy) for n in nodes(f) if isinstance(n, (Apply, Const))
    )


def substitute(f: Node, env: dict[str, Term]) -> Node:
    """Capture-checked substitution of terms for free variables.

    A replacement term may hold variables, as when admission renames a
    witness's free variable to its canonical one, or a construction
    renames witness variables to fresh ones. Bound variables are never
    renamed: a substitution that would put a replacement's variable under
    a quantifier binding it raises Unsupported, so callers pick names
    that no quantifier in the formula binds.
    """
    if isinstance(f, Var):
        return env.get(f.name, f)
    if isinstance(f, (Exists, Forall)):
        inner = {k: t for k, t in env.items() if k != f.var}
        for t in inner.values():
            if Var(f.var) in nodes(t):
                raise Unsupported(f"substitution would capture {f.var!r}")
        return type(f)(f.var, substitute(f.body, inner))
    kids = children(f)
    if not kids:
        return f
    rebuilt = []
    for k in kids:  # a loop, not a generator: one frame per level
        rebuilt.append(substitute(k, env))
    return _with_children(f, tuple(rebuilt))


def with_copy(f: Formula, copy: int) -> Formula:
    """Stamp every bare non-membership symbol reference with a copy index."""

    def stamp(node: Node) -> Node:
        if (
            isinstance(node, (Apply, Const))
            and node.copy is None
            and node.name != MEMBERSHIP
        ):
            return dataclasses.replace(node, copy=copy)
        return node

    return map_formula(f, stamp)


def is_binary(f: Formula) -> bool:
    """True when every non-membership symbol reference carries a copy index."""
    return all(copy is not None for name, copy in symbol_refs(f) if name != MEMBERSHIP)


# ---------------------------------------------------------------------------
# parsing


# _tokenize checks a text with one linear sub of tokens and whitespace; one
# starred match of the token grammar would backtrack exponentially on junk.
_NAME_RE = re.compile(r"[A-Za-z_][A-Za-z0-9_']*")
_TOKEN = r"<->|->|[()~&|=<,.@]|\d+|" + _NAME_RE.pattern
_TOKEN_RE = re.compile(_TOKEN)
_TOKEN_OR_SPACE_RE = re.compile(_TOKEN + r"|\s+")
_IDENT_START = frozenset(string.ascii_letters + "_")

# token -> (node type, precedence, groups to the right); higher binds tighter
_BINARY: dict[str, tuple[type, int, bool]] = {
    "<->": (Iff, 1, False),
    "->": (Implies, 2, True),
    "|": (Or, 3, False),
    "&": (And, 4, False),
}


def _excerpt(text: str, where: int) -> str:
    """Where a parse error is: its position and the text around it. A text
    over 80 characters is quoted 30 characters either side of the position,
    with ... for each cut end."""
    start, end = max(where - 30, 0), where + 30
    if len(text) <= 80:
        start, end = 0, len(text)
    head = "..." if start > 0 else ""
    tail = "..." if end < len(text) else ""
    return f"at position {where} in {head}{text[start:end]!r}{tail}"


def _tokenize(text: str) -> list[str]:
    """Each token's text, ending with the empty end token. A number token
    is all decimal digits (str.isdecimal, the class the pattern reads), a
    name starts with a letter or '_'. Positions are worked out only for an
    error."""
    if _TOKEN_OR_SPACE_RE.sub("", text):
        where = 0
        for m in _TOKEN_OR_SPACE_RE.finditer(text):
            if m.start() != where:
                break
            where = m.end()
        raise ParseError(f"unexpected character {text[where]!r} {_excerpt(text, where)}")
    tokens = _TOKEN_RE.findall(text)
    tokens.append("")
    return tokens


class _Parser:
    def __init__(self, text: str, sigma: Signature, doubled: bool):
        self.text = text
        self.tokens = _tokenize(text)
        self.i = 0
        self.sigma = sigma
        self.doubled = doubled

    def error(self, msg: str, at: int | None = None) -> ParseError:
        """A ParseError at the token with index at, the current one by
        default (see _excerpt), placed at the token's first character."""
        starts = [m.start() for m in _TOKEN_RE.finditer(self.text)] + [len(self.text)]
        return ParseError(f"{msg} {_excerpt(self.text, starts[self.i if at is None else at])}")

    def take(self) -> str:
        token = self.tokens[self.i]
        if not token:
            raise self.error("unexpected end of input")
        self.i += 1
        return token

    def expect(self, value: str) -> None:
        if self.tokens[self.i] != value:
            raise self.error(f"expected {value!r}")
        self.i += 1

    def formula(self, floor: int = 0) -> Formula:
        """Operands joined by binary connectives of precedence floor or more."""
        f = self.unary()
        while (entry := _BINARY.get(self.tokens[self.i])) and entry[1] >= floor:
            node, prec, right = entry
            self.i += 1
            f = node(f, self.formula(prec if right else prec + 1))
        return f

    def unary(self) -> Formula:
        token = self.tokens[self.i]
        if token == "~":
            self.i += 1
            return Not(self.unary())
        if token in ("forall", "exists"):
            return self.quantified()
        return self.atom()

    def quantified(self) -> Formula:
        quant = self.take()
        at = self.i
        name = self.take()
        if name[0] not in _IDENT_START or name in _RESERVED:
            raise self.error("expected a variable name after quantifier", at)
        if name in self.sigma:
            raise self.error(f"variable {name!r} shadows a signature symbol", at)
        self.expect(".")
        body = self.formula()
        return Forall(name, body) if quant == "forall" else Exists(name, body)

    def atom(self) -> Formula:
        val = self.tokens[self.i]
        if not val:
            raise self.error("expected a formula")
        if val == "(":
            self.i += 1
            f = self.formula()
            self.expect(")")
            return f
        if val in ("true", "false"):
            self.i += 1
            return Truth(val == "true")
        if val in self.sigma and self.sigma.decl(val).kind == "Relation":
            return self.relation_atom()
        left = self.term()
        op = self.tokens[self.i]
        if op == "=":
            self.i += 1
            return Equal(left, self.term())
        if op == "<":
            self.i += 1
            return Apply(MEMBERSHIP, (left, self.term()), None)
        raise self.error("expected '=' or '<' after term")

    def relation_atom(self) -> Formula:
        """A relation's atom, whose argument list must hold its arity.
        Membership is shared between the copies and takes no copy suffix."""
        name = self.take()
        copy = None if name == MEMBERSHIP else self.copy_suffix(name)
        self.expect("(")
        args = [self.term()]
        while self.tokens[self.i] == ",":
            self.i += 1
            args.append(self.term())
        self.expect(")")
        arity = self.sigma.decl(name).arity
        if len(args) != arity:
            raise ArityMismatch(f"{name} expects {arity} arguments, got {len(args)}")
        return Apply(name, tuple(args), copy)

    def copy_suffix(self, name: str) -> int | None:
        if self.tokens[self.i] == "@":
            self.i += 1
            index = self.take()
            if index not in ("0", "1"):
                raise self.error("copy index must be 0 or 1", self.i - 1)
            return int(index)
        if self.doubled:
            raise self.error(f"symbol {name!r} needs a copy index in doubled mode")
        return None

    def term(self) -> Term:
        at = self.i
        val = self.take()
        if val.isdecimal():
            return OrdinalLiteral(OrdinalNotation.from_int(int(val)))
        if val[0] not in _IDENT_START:
            raise self.error(f"expected a term, got {val!r}", at)
        if val == "w":
            return OrdinalLiteral(OMEGA)
        if val in ("true", "false", "forall", "exists", MEMBERSHIP):
            raise self.error(f"{val!r} cannot appear in a term", at)
        if val in self.sigma:
            decl = self.sigma.decl(val)
            copy = self.copy_suffix(val)
            if decl.kind == "Constant":
                return Const(val, copy)
            raise self.error(f"relation {val!r} used as a term", at)
        return Var(val)


def parse_formula(text: str, sigma: Signature, doubled: bool = False) -> Formula:
    """Parse concrete syntax against a signature.

    With doubled=True every non-membership symbol reference must carry an
    explicit copy suffix and the result is a binary formula over the
    doubled signature.
    """
    p = _Parser(text, sigma, doubled)
    try:
        f = p.formula()
    except RecursionError:
        raise p.error("formula is nested too deeply") from None
    if p.tokens[p.i]:
        raise p.error("trailing input")
    return f


# ---------------------------------------------------------------------------
# printing


_CONNECTIVE = {entry[0]: (op, entry) for op, entry in _BINARY.items()}


def _fmt_term(t: Term) -> str:
    if isinstance(t, Var):
        return t.name
    if isinstance(t, Const):
        return t.name if t.copy is None else f"{t.name}@{t.copy}"
    if isinstance(t, OrdinalLiteral):
        return str(t.value)
    raise TypeError(f"not a term: {t!r}")


def _fmt(f: Formula, parent: int) -> str:
    if isinstance(f, Truth):
        return "true" if f.value else "false"
    if isinstance(f, Apply):
        if f.name == MEMBERSHIP:
            return f"{_fmt_term(f.args[0])} < {_fmt_term(f.args[1])}"
        head = f.name if f.copy is None else f"{f.name}@{f.copy}"
        return f"{head}({', '.join(_fmt_term(a) for a in f.args)})"
    if isinstance(f, Equal):
        return f"{_fmt_term(f.left)} = {_fmt_term(f.right)}"
    if isinstance(f, Not):
        return f"~{_fmt(f.body, 5)}"
    if isinstance(f, (Exists, Forall)):
        quant = "exists" if isinstance(f, Exists) else "forall"
        text = f"{quant} {f.var}. ({_fmt(f.body, 0)})"
        # a bare quantifier body would swallow anything printed after it
        return f"({text})" if parent > 0 else text
    if isinstance(f, (And, Or, Implies, Iff)):
        op, (_, prec, groups_right) = _CONNECTIVE[type(f)]
        # the operand away from the grouping side must bind tighter
        lp, rp = (prec + 1, prec) if groups_right else (prec, prec + 1)
        body = f"{_fmt(f.left, lp)} {op} {_fmt(f.right, rp)}"
        return f"({body})" if prec < parent else body
    raise TypeError(f"not a formula: {f!r}")


def format_formula(f: Formula) -> str:
    return _fmt(f, 0)
