"""Expression mini-language used by SELECT/PROJECT/GROUP/ORDER operators.

Expressions reference pattern tags (``TagRef("v2")``), their properties
(``Property("v3", "name")``), literal values, and compose them with boolean,
comparison and arithmetic operators.  A small parser turns strings such as
``"v3.name = 'China' AND v1.age > 30"`` into expression trees, matching the
``Expr("...")`` convenience of the paper's ``GraphIrBuilder`` snippet.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Iterator, List, Mapping, Optional, Sequence, Set, Tuple

from repro.errors import ParseError


class Expr:
    """Base class for expression nodes."""

    def children(self) -> Sequence["Expr"]:
        return ()

    def walk(self) -> Iterator["Expr"]:
        """Pre-order traversal of the expression tree."""
        yield self
        for child in self.children():
            yield from child.walk()

    def referenced_tags(self) -> Set[str]:
        """All pattern tags (aliases) referenced anywhere in the expression."""
        tags: Set[str] = set()
        for node in self.walk():
            if isinstance(node, (TagRef, Property)):
                tags.add(node.tag)
        return tags

    def referenced_properties(self) -> Set[Tuple[str, str]]:
        """All ``(tag, property)`` pairs referenced in the expression."""
        props: Set[Tuple[str, str]] = set()
        for node in self.walk():
            if isinstance(node, Property):
                props.add((node.tag, node.key))
        return props

    def referenced_parameters(self) -> Set[str]:
        """All deferred ``$param`` names referenced anywhere in the expression."""
        return {node.name for node in self.walk() if isinstance(node, Parameter)}


@dataclass(frozen=True)
class Literal(Expr):
    """A constant value."""

    value: object

    def __repr__(self) -> str:
        return repr(self.value)


@dataclass(frozen=True)
class TagRef(Expr):
    """Reference to a whole pattern element (vertex, edge or path) by alias."""

    tag: str

    def __repr__(self) -> str:
        return self.tag


@dataclass(frozen=True)
class Property(Expr):
    """Reference to a property of a tagged pattern element (``tag.key``)."""

    tag: str
    key: str

    def __repr__(self) -> str:
        return "%s.%s" % (self.tag, self.key)


@dataclass(frozen=True)
class Parameter(Expr):
    """A deferred ``$name`` query parameter, bound to a value at execute time.

    Prepared statements keep parameters symbolic so one optimized plan serves
    every parameter value; the evaluator resolves the value from the
    execution's parameter binding (see ``ExecutionContext.parameters``).
    """

    name: str

    def __repr__(self) -> str:
        return "$%s" % self.name


@dataclass(frozen=True)
class BinaryOp(Expr):
    """Binary operation; ``op`` is one of the comparison/boolean/arith tokens."""

    op: str
    left: Expr
    right: Expr

    def children(self) -> Sequence[Expr]:
        return (self.left, self.right)

    def __repr__(self) -> str:
        return "(%r %s %r)" % (self.left, self.op, self.right)


@dataclass(frozen=True)
class UnaryOp(Expr):
    """Unary operation (``NOT`` or numeric negation)."""

    op: str
    operand: Expr

    def children(self) -> Sequence[Expr]:
        return (self.operand,)

    def __repr__(self) -> str:
        return "%s(%r)" % (self.op, self.operand)


@dataclass(frozen=True)
class FunctionCall(Expr):
    """Scalar function call, e.g. ``length(p)`` or ``id(v)``."""

    name: str
    args: Tuple[Expr, ...]

    def children(self) -> Sequence[Expr]:
        return self.args

    def __repr__(self) -> str:
        return "%s(%s)" % (self.name, ", ".join(repr(a) for a in self.args))


# -- conjunction helpers used by the RBO rules --------------------------------

def conjuncts(expr: Expr) -> List[Expr]:
    """Split an expression into its top-level AND-ed conjuncts."""
    if isinstance(expr, BinaryOp) and expr.op == "AND":
        return conjuncts(expr.left) + conjuncts(expr.right)
    return [expr]


def conjoin(exprs: Sequence[Expr]) -> Optional[Expr]:
    """Combine expressions with AND; returns ``None`` for an empty sequence."""
    result: Optional[Expr] = None
    for expr in exprs:
        result = expr if result is None else BinaryOp("AND", result, expr)
    return result


# -- evaluation ----------------------------------------------------------------

_COMPARATORS = {
    "=": lambda a, b: a == b,
    "<>": lambda a, b: a != b,
    "!=": lambda a, b: a != b,
    "<": lambda a, b: _ordered(a, b) and a < b,
    "<=": lambda a, b: _ordered(a, b) and a <= b,
    ">": lambda a, b: _ordered(a, b) and a > b,
    ">=": lambda a, b: _ordered(a, b) and a >= b,
}

_ARITHMETIC = {
    "+": lambda a, b: a + b,
    "-": lambda a, b: a - b,
    "*": lambda a, b: a * b,
    "/": lambda a, b: a / b if b else None,
    "%": lambda a, b: a % b if b else None,
}


def _ordered(a, b) -> bool:
    if a is None or b is None:
        return False
    return isinstance(a, type(b)) or isinstance(b, type(a)) or (
        isinstance(a, (int, float)) and isinstance(b, (int, float))
    )


class ExpressionEvaluator:
    """Evaluate expressions against a binding of tags to graph elements.

    The evaluator is backend-agnostic: it receives a ``resolve_property``
    callable mapping ``(tag, key, binding)`` to a concrete value and a
    ``resolve_tag`` callable mapping ``(tag, binding)`` to the bound element.
    """

    def __init__(self, resolve_tag, resolve_property, functions=None,
                 resolve_parameter=None):
        self._resolve_tag = resolve_tag
        self._resolve_property = resolve_property
        self._functions = functions or {}
        self._resolve_parameter = resolve_parameter

    def evaluate(self, expr: Expr, binding) -> object:
        if isinstance(expr, Literal):
            return expr.value
        if isinstance(expr, TagRef):
            return self._resolve_tag(expr.tag, binding)
        if isinstance(expr, Property):
            return self._resolve_property(expr.tag, expr.key, binding)
        if isinstance(expr, Parameter):
            if self._resolve_parameter is None:
                raise ValueError(
                    "expression references parameter $%s but the evaluator has "
                    "no parameter binding" % (expr.name,))
            return self._resolve_parameter(expr.name)
        if isinstance(expr, UnaryOp):
            value = self.evaluate(expr.operand, binding)
            if expr.op == "NOT":
                return not value
            if expr.op == "-":
                return -value if value is not None else None
            raise ValueError("unknown unary operator %r" % (expr.op,))
        if isinstance(expr, FunctionCall):
            func = self._functions.get(expr.name.lower())
            if func is None:
                raise ValueError("unknown function %r" % (expr.name,))
            args = [self.evaluate(a, binding) for a in expr.args]
            return func(*args)
        if isinstance(expr, BinaryOp):
            return self._evaluate_binary(expr, binding)
        raise ValueError("unknown expression node %r" % (expr,))

    def _evaluate_binary(self, expr: BinaryOp, binding) -> object:
        if expr.op == "AND":
            return bool(self.evaluate(expr.left, binding)) and bool(
                self.evaluate(expr.right, binding)
            )
        if expr.op == "OR":
            return bool(self.evaluate(expr.left, binding)) or bool(
                self.evaluate(expr.right, binding)
            )
        left = self.evaluate(expr.left, binding)
        right = self.evaluate(expr.right, binding)
        if expr.op == "IN":
            if right is None:
                return False
            return left in right
        if expr.op in _COMPARATORS:
            return _COMPARATORS[expr.op](left, right)
        if expr.op in _ARITHMETIC:
            if left is None or right is None:
                return None
            return _ARITHMETIC[expr.op](left, right)
        raise ValueError("unknown binary operator %r" % (expr.op,))


# -- parser --------------------------------------------------------------------

_KEYWORDS = {"AND", "OR", "NOT", "IN", "TRUE", "FALSE", "NULL"}


class _ExprTokenizer:
    """Tokenizer for the expression sub-language."""

    def __init__(self, text: str):
        self.text = text
        self.pos = 0
        self.tokens: List[Tuple[str, object]] = []
        self._tokenize()
        self.index = 0

    def _tokenize(self) -> None:
        text = self.text
        i = 0
        length = len(text)
        while i < length:
            ch = text[i]
            if ch.isspace():
                i += 1
                continue
            if ch in "()[],":
                self.tokens.append((ch, ch))
                i += 1
                continue
            if ch in "'\"":
                j = i + 1
                while j < length and text[j] != ch:
                    j += 1
                if j >= length:
                    raise ParseError("unterminated string literal", position=i, text=text)
                self.tokens.append(("STRING", text[i + 1:j]))
                i = j + 1
                continue
            if ch.isdigit() or (ch == "." and i + 1 < length and text[i + 1].isdigit()):
                j = i
                seen_dot = False
                while j < length and (text[j].isdigit() or (text[j] == "." and not seen_dot)):
                    if text[j] == ".":
                        seen_dot = True
                    j += 1
                raw = text[i:j]
                self.tokens.append(("NUMBER", float(raw) if "." in raw else int(raw)))
                i = j
                continue
            if ch.isalpha() or ch in "_$":
                j = i
                while j < length and (text[j].isalnum() or text[j] in "_$"):
                    j += 1
                word = text[i:j]
                upper = word.upper()
                if upper in _KEYWORDS:
                    self.tokens.append((upper, upper))
                else:
                    self.tokens.append(("IDENT", word))
                i = j
                continue
            for op in ("<>", "<=", ">=", "!=", "=", "<", ">", "+", "-", "*", "/", "%", "."):
                if text.startswith(op, i):
                    self.tokens.append(("OP", op))
                    i += len(op)
                    break
            else:
                raise ParseError("unexpected character %r" % (ch,), position=i, text=text)

    def peek(self) -> Optional[Tuple[str, object]]:
        if self.index < len(self.tokens):
            return self.tokens[self.index]
        return None

    def next(self) -> Tuple[str, object]:
        token = self.peek()
        if token is None:
            raise ParseError("unexpected end of expression", text=self.text)
        self.index += 1
        return token

    def expect(self, kind: str) -> Tuple[str, object]:
        token = self.next()
        if token[0] != kind and token[1] != kind:
            raise ParseError("expected %r but found %r" % (kind, token[1]), text=self.text)
        return token


class _ExprParser:
    """Recursive-descent parser producing :class:`Expr` trees."""

    def __init__(self, text: str, parameters: Optional[Mapping[str, object]] = None):
        self._tokens = _ExprTokenizer(text)
        self._text = text
        self._parameters = parameters

    def parse(self) -> Expr:
        expr = self._parse_or()
        if self._tokens.peek() is not None:
            raise ParseError(
                "trailing input after expression: %r" % (self._tokens.peek()[1],),
                text=self._text,
            )
        return expr

    def _parse_or(self) -> Expr:
        left = self._parse_and()
        while self._peek_is("OR"):
            self._tokens.next()
            left = BinaryOp("OR", left, self._parse_and())
        return left

    def _parse_and(self) -> Expr:
        left = self._parse_not()
        while self._peek_is("AND"):
            self._tokens.next()
            left = BinaryOp("AND", left, self._parse_not())
        return left

    def _parse_not(self) -> Expr:
        if self._peek_is("NOT"):
            self._tokens.next()
            return UnaryOp("NOT", self._parse_not())
        return self._parse_comparison()

    def _parse_comparison(self) -> Expr:
        left = self._parse_additive()
        token = self._tokens.peek()
        if token is None:
            return left
        if token[0] == "OP" and token[1] in ("=", "<>", "!=", "<", "<=", ">", ">="):
            op = self._tokens.next()[1]
            right = self._parse_additive()
            return BinaryOp(str(op), left, right)
        if token[0] == "IN":
            self._tokens.next()
            right = self._parse_list_or_value()
            return BinaryOp("IN", left, right)
        return left

    def _parse_list_or_value(self) -> Expr:
        token = self._tokens.peek()
        if token is not None and token[0] == "[":
            self._tokens.next()
            items: List[object] = []
            while not self._peek_is("]"):
                item = self._parse_additive()
                if not isinstance(item, Literal):
                    raise ParseError("IN list items must be literals", text=self._text)
                items.append(item.value)
                if self._peek_is(","):
                    self._tokens.next()
            self._tokens.expect("]")
            return Literal(tuple(items))
        return self._parse_additive()

    def _parse_additive(self) -> Expr:
        left = self._parse_multiplicative()
        while True:
            token = self._tokens.peek()
            if token is not None and token[0] == "OP" and token[1] in ("+", "-"):
                op = self._tokens.next()[1]
                left = BinaryOp(str(op), left, self._parse_multiplicative())
            else:
                return left

    def _parse_multiplicative(self) -> Expr:
        left = self._parse_unary()
        while True:
            token = self._tokens.peek()
            if token is not None and token[0] == "OP" and token[1] in ("*", "/", "%"):
                op = self._tokens.next()[1]
                left = BinaryOp(str(op), left, self._parse_unary())
            else:
                return left

    def _parse_unary(self) -> Expr:
        token = self._tokens.peek()
        if token is not None and token[0] == "OP" and token[1] == "-":
            self._tokens.next()
            operand = self._parse_unary()
            # fold negative numeric literals so "-1" is a plain literal
            if isinstance(operand, Literal) and isinstance(operand.value, (int, float)):
                return Literal(-operand.value)
            return UnaryOp("-", operand)
        return self._parse_primary()

    def _parse_primary(self) -> Expr:
        token = self._tokens.next()
        kind, value = token
        if kind == "NUMBER" or kind == "STRING":
            return Literal(value)
        if kind == "TRUE":
            return Literal(True)
        if kind == "FALSE":
            return Literal(False)
        if kind == "NULL":
            return Literal(None)
        if kind == "(":
            expr = self._parse_or()
            self._tokens.expect(")")
            return expr
        if kind == "[":
            items = []
            while not self._peek_is("]"):
                item = self._parse_additive()
                if not isinstance(item, Literal):
                    raise ParseError("list items must be literals", text=self._text)
                items.append(item.value)
                if self._peek_is(","):
                    self._tokens.next()
            self._tokens.expect("]")
            return Literal(tuple(items))
        if kind == "IDENT":
            return self._parse_identifier(str(value))
        raise ParseError("unexpected token %r" % (value,), text=self._text)

    def _parse_identifier(self, name: str) -> Expr:
        if name.startswith("$"):
            if len(name) == 1:
                raise ParseError("expected a parameter name after '$'", text=self._text)
            if self._parameters is not None:
                return Literal(inline_parameter(self._parameters, name[1:], self._text))
            return Parameter(name[1:])
        token = self._tokens.peek()
        if token is not None and token[0] == "(":
            self._tokens.next()
            args: List[Expr] = []
            while not self._peek_is(")"):
                args.append(self._parse_or())
                if self._peek_is(","):
                    self._tokens.next()
            self._tokens.expect(")")
            return FunctionCall(name, tuple(args))
        if token is not None and token[0] == "OP" and token[1] == ".":
            self._tokens.next()
            prop = self._tokens.next()
            if prop[0] != "IDENT":
                raise ParseError("expected property name after '.'", text=self._text)
            return Property(name, str(prop[1]))
        return TagRef(name)

    def _peek_is(self, kind: str) -> bool:
        token = self._tokens.peek()
        if token is None:
            return False
        return token[0] == kind or token[1] == kind


def parse_expression(text: str, parameters: Optional[Mapping[str, object]] = None) -> Expr:
    """Parse an expression string such as ``"v3.name = 'China' AND v1.age > 30"``.

    ``$name`` placeholders become :class:`Parameter` nodes, or, when
    ``parameters`` is given, literals holding the value bound to ``name``.
    """
    return _ExprParser(text, parameters).parse()


def inline_parameter(parameters: Mapping[str, object], name: str, text: str) -> object:
    """The value ``$name`` is replaced with when parameters are inlined at parse time.

    The value is used as given -- no round trip through query text -- so any
    string or float binds exactly as a deferred :class:`Parameter` would.
    Sequences become tuples, as list literals do.
    """
    if name not in parameters:
        raise ParseError("missing value for parameter $%s" % (name,), text=text)
    value = parameters[name]
    if isinstance(value, (list, tuple, set, frozenset)):
        return tuple(value)
    return value
