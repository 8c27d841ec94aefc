"""Recursive-descent parser for the Cypher fragment used by the workloads.

Supported surface (sufficient for the paper's LDBC-style CGPs):

* ``MATCH`` clauses with comma-separated path patterns, node labels
  (``:A`` / ``:A|B``), relationship types, both directions, inline property
  maps (``{k: v}``) and variable-length relationships (``*k`` / ``*a..b``);
* ``WHERE`` with boolean / comparison / ``IN`` expressions;
* ``WITH`` and ``RETURN`` with aliases, ``DISTINCT`` and the aggregates
  ``count`` / ``sum`` / ``min`` / ``max`` / ``avg`` / ``collect``;
* ``ORDER BY ... [ASC|DESC]``, ``LIMIT``;
* ``UNION [ALL]`` between single queries;
* ``$param`` placeholders, inlined from a parameter dictionary at parse time
  or deferred to execution.

The parser produces the AST of :mod:`repro.lang.cypher.ast`; lowering to GIR
lives in :mod:`repro.lang.cypher.to_gir`.
"""

from __future__ import annotations

import re
from typing import Dict, List, Optional, Tuple

from repro.errors import ParseError
from repro.gir.expressions import Expr, FunctionCall, inline_parameter, parse_expression
from repro.lang.cypher.ast import (
    CypherQuery,
    MatchClause,
    NodePattern,
    OrderItem,
    PathPattern,
    RelPattern,
    ReturnClause,
    ReturnItem,
    SingleQuery,
    WithClause,
)

_KEYWORDS = {
    "MATCH", "OPTIONAL", "WHERE", "WITH", "RETURN", "ORDER", "BY", "LIMIT", "SKIP",
    "UNION", "ALL", "AS", "DISTINCT", "ASC", "DESC", "AND", "OR", "NOT", "IN",
}
_AGGREGATES = {"count", "sum", "min", "max", "avg", "collect"}
_CLAUSE_BOUNDARIES = {"MATCH", "OPTIONAL", "WHERE", "WITH", "RETURN", "ORDER", "LIMIT", "SKIP", "UNION"}


class _Token:
    __slots__ = ("kind", "value", "start", "end")

    def __init__(self, kind: str, value: str, start: int, end: int):
        self.kind = kind
        self.value = value
        self.start = start
        self.end = end

    def __repr__(self) -> str:
        return "Token(%s, %r)" % (self.kind, self.value)


def _tokenize(text: str) -> List[_Token]:
    tokens: List[_Token] = []
    i = 0
    length = len(text)
    while i < length:
        ch = text[i]
        if ch.isspace():
            i += 1
            continue
        if ch in "'\"":
            j = i + 1
            while j < length and text[j] != ch:
                j += 1
            if j >= length:
                raise ParseError("unterminated string literal", position=i, text=text)
            tokens.append(_Token("STRING", text[i:j + 1], i, j + 1))
            i = j + 1
            continue
        if ch == "$" and i + 1 < length and (text[i + 1].isalpha() or text[i + 1] == "_"):
            j = i + 1
            while j < length and (text[j].isalnum() or text[j] == "_"):
                j += 1
            tokens.append(_Token("PARAM", text[i + 1:j], i, j))
            i = j
            continue
        if ch.isdigit():
            j = i
            while j < length and (text[j].isdigit() or text[j] == "."):
                # ".." (hop range) must not be swallowed by a number
                if text[j] == "." and j + 1 < length and text[j + 1] == ".":
                    break
                j += 1
            tokens.append(_Token("NUMBER", text[i:j], i, j))
            i = j
            continue
        if ch.isalpha() or ch == "_":
            j = i
            while j < length and (text[j].isalnum() or text[j] == "_"):
                j += 1
            word = text[i:j]
            kind = "KEYWORD" if word.upper() in _KEYWORDS else "IDENT"
            value = word.upper() if kind == "KEYWORD" else word
            tokens.append(_Token(kind, value, i, j))
            i = j
            continue
        two = text[i:i + 2]
        if two in ("->", "<-", "..", ">=", "<=", "<>", "!="):
            tokens.append(_Token("OP", two, i, i + 2))
            i += 2
            continue
        if ch in "()[]{},:.|-<>=*+/%$":
            tokens.append(_Token("OP", ch, i, i + 1))
            i += 1
            continue
        raise ParseError("unexpected character %r" % (ch,), position=i, text=text)
    return tokens


class _Cursor:
    def __init__(self, text: str, tokens: List[_Token],
                 parameters: Optional[Dict[str, object]] = None):
        self.text = text
        self.tokens = tokens
        self.index = 0
        # inline mode: the values ``$name`` placeholders are replaced with;
        # ``None`` defers them to execution
        self.parameters = parameters

    def peek(self, offset: int = 0) -> Optional[_Token]:
        pos = self.index + offset
        if pos < len(self.tokens):
            return self.tokens[pos]
        return None

    def next(self) -> _Token:
        token = self.peek()
        if token is None:
            raise ParseError("unexpected end of query", text=self.text)
        self.index += 1
        return token

    def at_keyword(self, *keywords: str) -> bool:
        token = self.peek()
        return token is not None and token.kind == "KEYWORD" and token.value in keywords

    def at_op(self, *ops: str) -> bool:
        token = self.peek()
        return token is not None and token.kind == "OP" and token.value in ops

    def expect_keyword(self, keyword: str) -> _Token:
        token = self.next()
        if token.kind != "KEYWORD" or token.value != keyword:
            raise ParseError("expected %s but found %r" % (keyword, token.value),
                             position=token.start, text=self.text)
        return token

    def expect_op(self, op: str) -> _Token:
        token = self.next()
        if token.kind != "OP" or token.value != op:
            raise ParseError("expected %r but found %r" % (op, token.value),
                             position=token.start, text=self.text)
        return token

    def exhausted(self) -> bool:
        return self.index >= len(self.tokens)

    def at_number(self) -> bool:
        """At a number literal, or at a ``$param`` whose value is inlined."""
        token = self.peek()
        return token is not None and (
            token.kind == "NUMBER" or (token.kind == "PARAM" and self.parameters is not None))


def parse_cypher(
    query: str,
    parameters: Optional[Dict[str, object]] = None,
    defer_parameters: bool = False,
) -> CypherQuery:
    """Parse Cypher text (with optional ``$param`` substitution) into an AST.

    With ``defer_parameters=True`` the ``$param`` placeholders are *not*
    inlined: they survive into the expression trees as
    :class:`~repro.gir.expressions.Parameter` nodes and are resolved from the
    execution-time parameter binding.  This is how prepared statements share
    one plan across parameter values.  Parameters in structural positions the
    grammar needs literal values for (``LIMIT $n``, inline property maps,
    hop ranges) cannot be deferred and raise :class:`ParseError`; callers
    fall back to inline substitution for those queries.
    """
    tokens = _tokenize(query)
    cursor = _Cursor(query, tokens, None if defer_parameters else (parameters or {}))
    parts: List[SingleQuery] = []
    union_all = True
    parts.append(_parse_single_query(cursor))
    while cursor.at_keyword("UNION"):
        cursor.next()
        if cursor.at_keyword("ALL"):
            cursor.next()
            union_all = True
        else:
            union_all = False
        parts.append(_parse_single_query(cursor))
    if not cursor.exhausted():
        token = cursor.peek()
        raise ParseError("unexpected trailing input %r" % (token.value,),
                         position=token.start, text=query)
    return CypherQuery(parts=parts, union_all=union_all)


def _parse_single_query(cursor: _Cursor) -> SingleQuery:
    clauses: List[object] = []
    while True:
        if cursor.at_keyword("OPTIONAL"):
            cursor.next()
            cursor.expect_keyword("MATCH")
            clauses.append(_parse_match(cursor, optional=True))
        elif cursor.at_keyword("MATCH"):
            cursor.next()
            clauses.append(_parse_match(cursor, optional=False))
        elif cursor.at_keyword("WITH"):
            cursor.next()
            clauses.append(_parse_with(cursor))
        elif cursor.at_keyword("RETURN"):
            cursor.next()
            clauses.append(_parse_return(cursor))
            break
        else:
            break
    if not clauses:
        raise ParseError("query has no clauses", text=cursor.text)
    return SingleQuery(clauses=clauses)


# -- clause parsing --------------------------------------------------------------

def _parse_match(cursor: _Cursor, optional: bool) -> MatchClause:
    patterns = [_parse_path_pattern(cursor)]
    while cursor.at_op(","):
        cursor.next()
        patterns.append(_parse_path_pattern(cursor))
    where = None
    if cursor.at_keyword("WHERE"):
        cursor.next()
        where = _parse_embedded_expression(cursor)
    return MatchClause(patterns=patterns, where=where, optional=optional)


def _parse_path_pattern(cursor: _Cursor) -> PathPattern:
    nodes = [_parse_node(cursor)]
    relationships: List[RelPattern] = []
    while cursor.at_op("-", "<-", "<"):
        relationships.append(_parse_relationship(cursor))
        nodes.append(_parse_node(cursor))
    return PathPattern(nodes=nodes, relationships=relationships)


def _parse_node(cursor: _Cursor) -> NodePattern:
    cursor.expect_op("(")
    alias = None
    labels: Tuple[str, ...] = ()
    properties: Tuple[Tuple[str, object], ...] = ()
    token = cursor.peek()
    if token is not None and token.kind == "IDENT":
        alias = cursor.next().value
    if cursor.at_op(":"):
        cursor.next()
        labels = _parse_label_union(cursor)
    if cursor.at_op("{"):
        properties = _parse_property_map(cursor)
    cursor.expect_op(")")
    return NodePattern(alias=alias, labels=labels, properties=properties)


def _parse_label_union(cursor: _Cursor) -> Tuple[str, ...]:
    labels = []
    token = cursor.next()
    if token.kind not in ("IDENT", "KEYWORD"):
        raise ParseError("expected a label name", position=token.start, text=cursor.text)
    labels.append(token.value)
    while cursor.at_op("|"):
        cursor.next()
        token = cursor.next()
        if token.kind not in ("IDENT", "KEYWORD"):
            raise ParseError("expected a label name", position=token.start, text=cursor.text)
        labels.append(token.value)
    return tuple(labels)


def _parse_property_map(cursor: _Cursor) -> Tuple[Tuple[str, object], ...]:
    cursor.expect_op("{")
    entries: List[Tuple[str, object]] = []
    while not cursor.at_op("}"):
        key_token = cursor.next()
        if key_token.kind != "IDENT":
            raise ParseError("expected a property name", position=key_token.start, text=cursor.text)
        cursor.expect_op(":")
        value_token = cursor.next()
        entries.append((key_token.value, _literal_value(value_token, cursor)))
        if cursor.at_op(","):
            cursor.next()
    cursor.expect_op("}")
    return tuple(entries)


def _literal_value(token: _Token, cursor: _Cursor) -> object:
    if token.kind == "PARAM" and cursor.parameters is not None:
        return inline_parameter(cursor.parameters, token.value, cursor.text)
    if token.kind == "STRING":
        return token.value[1:-1]
    if token.kind == "NUMBER":
        return float(token.value) if "." in token.value else int(token.value)
    if token.kind == "OP" and token.value == "[":
        values = []
        while not cursor.at_op("]"):
            values.append(_literal_value(cursor.next(), cursor))
            if cursor.at_op(","):
                cursor.next()
        cursor.expect_op("]")
        return tuple(values)
    raise ParseError("expected a literal value", position=token.start, text=cursor.text)


def _int_value(cursor: _Cursor, what: str) -> int:
    """The integer at the cursor: a number literal or an inlined ``$param``."""
    at_number = cursor.at_number()
    token = cursor.next()
    value = _literal_value(token, cursor) if at_number else None
    if not isinstance(value, int) or isinstance(value, bool):
        raise ParseError("%s expects a number" % (what,), position=token.start, text=cursor.text)
    return value


def _parse_relationship(cursor: _Cursor) -> RelPattern:
    direction = "out"
    incoming = False
    if cursor.at_op("<-"):
        cursor.next()
        incoming = True
    elif cursor.at_op("<"):
        cursor.next()
        cursor.expect_op("-")
        incoming = True
    else:
        cursor.expect_op("-")

    alias = None
    types: Tuple[str, ...] = ()
    min_hops, max_hops, is_path = 1, 1, False
    properties: Tuple[Tuple[str, object], ...] = ()
    if cursor.at_op("["):
        cursor.next()
        token = cursor.peek()
        if token is not None and token.kind == "IDENT":
            alias = cursor.next().value
        if cursor.at_op(":"):
            cursor.next()
            types = _parse_label_union(cursor)
        if cursor.at_op("*"):
            cursor.next()
            is_path = True
            min_hops, max_hops = _parse_hop_range(cursor)
        if cursor.at_op("{"):
            properties = _parse_property_map(cursor)
        cursor.expect_op("]")

    if incoming:
        cursor.expect_op("-")
        direction = "in"
    else:
        if cursor.at_op("->"):
            cursor.next()
            direction = "out"
        elif cursor.at_op("-"):
            cursor.next()
            direction = "both"
        else:
            token = cursor.peek()
            raise ParseError("expected '->' or '-' after relationship",
                             position=token.start if token else None, text=cursor.text)
    return RelPattern(alias=alias, types=types, direction=direction,
                      min_hops=min_hops, max_hops=max_hops, is_path=is_path,
                      properties=properties)


def _parse_hop_range(cursor: _Cursor) -> Tuple[int, int]:
    min_hops, max_hops = 1, 4
    if cursor.at_number():
        min_hops = max_hops = _int_value(cursor, "a hop range")
    if cursor.at_op(".."):
        cursor.next()
        if cursor.at_number():
            max_hops = _int_value(cursor, "a hop range")
        else:
            max_hops = max(min_hops, 4)
    return min_hops, max_hops


# -- projection clauses ------------------------------------------------------------

def _parse_with(cursor: _Cursor) -> WithClause:
    distinct = False
    if cursor.at_keyword("DISTINCT"):
        cursor.next()
        distinct = True
    items = _parse_items(cursor)
    where = None
    if cursor.at_keyword("WHERE"):
        cursor.next()
        where = _parse_embedded_expression(cursor)
    order_by, limit = _parse_order_limit(cursor)
    return WithClause(items=items, distinct=distinct, where=where,
                      order_by=order_by, limit=limit)


def _parse_return(cursor: _Cursor) -> ReturnClause:
    distinct = False
    if cursor.at_keyword("DISTINCT"):
        cursor.next()
        distinct = True
    items = _parse_items(cursor)
    order_by, limit = _parse_order_limit(cursor)
    return ReturnClause(items=items, distinct=distinct, order_by=order_by, limit=limit)


def _parse_order_limit(cursor: _Cursor) -> Tuple[List[OrderItem], Optional[int]]:
    order_by: List[OrderItem] = []
    limit: Optional[int] = None
    if cursor.at_keyword("ORDER"):
        cursor.next()
        cursor.expect_keyword("BY")
        order_by.append(_parse_order_item(cursor))
        while cursor.at_op(","):
            cursor.next()
            order_by.append(_parse_order_item(cursor))
    if cursor.at_keyword("SKIP"):
        cursor.next()
        cursor.next()  # the skip count (ignored: not needed by the workloads)
    if cursor.at_keyword("LIMIT"):
        cursor.next()
        limit = _int_value(cursor, "LIMIT")
    return order_by, limit


def _parse_order_item(cursor: _Cursor) -> OrderItem:
    text = _collect_expression_text(cursor, stop_keywords={"ASC", "DESC", "LIMIT", "SKIP", "UNION"},
                                    stop_at_comma=True)
    ascending = True
    if cursor.at_keyword("ASC"):
        cursor.next()
    elif cursor.at_keyword("DESC"):
        cursor.next()
        ascending = False
    return OrderItem(expression=_parse_item_expression(text, cursor.parameters)[0], ascending=ascending)


def _parse_items(cursor: _Cursor) -> List[ReturnItem]:
    items: List[ReturnItem] = []
    while True:
        text = _collect_expression_text(
            cursor,
            stop_keywords={"AS", "WHERE", "ORDER", "LIMIT", "SKIP", "UNION", "MATCH", "RETURN", "WITH", "OPTIONAL"},
            stop_at_comma=True,
        )
        alias = None
        if cursor.at_keyword("AS"):
            cursor.next()
            alias_token = cursor.next()
            alias = alias_token.value
        expr, aggregate, distinct = _parse_item_expression(text, cursor.parameters)
        items.append(ReturnItem(expression=expr, alias=alias, aggregate=aggregate, distinct=distinct))
        if cursor.at_op(","):
            cursor.next()
            continue
        break
    return items


def _parse_item_expression(
    text: str, parameters: Optional[Dict[str, object]]
) -> Tuple[Expr, Optional[str], bool]:
    """Parse one projection item; returns (expr, aggregate function, distinct)."""
    stripped = text.strip()
    distinct = False
    match = re.match(r"(?is)^(count|sum|min|max|avg|collect)\s*\(\s*distinct\b(.*)\)\s*$", stripped)
    if match:
        distinct = True
        stripped = "%s(%s)" % (match.group(1), match.group(2))
    if re.match(r"(?is)^count\s*\(\s*\*\s*\)$", stripped):
        return FunctionCall("count", ()), "count", distinct
    expr = parse_expression(stripped, parameters)
    aggregate = None
    if isinstance(expr, FunctionCall) and expr.name.lower() in _AGGREGATES:
        aggregate = expr.name.lower()
    return expr, aggregate, distinct


# -- expression text extraction -------------------------------------------------------

def _collect_expression_text(cursor: _Cursor, stop_keywords, stop_at_comma: bool) -> str:
    depth = 0
    start_token = cursor.peek()
    if start_token is None:
        raise ParseError("expected an expression", text=cursor.text)
    start = start_token.start
    end = start
    while True:
        token = cursor.peek()
        if token is None:
            break
        if token.kind == "OP" and token.value in "([{":
            depth += 1
        elif token.kind == "OP" and token.value in ")]}":
            if depth == 0:
                break
            depth -= 1
        elif depth == 0:
            if stop_at_comma and token.kind == "OP" and token.value == ",":
                break
            if token.kind == "KEYWORD" and token.value in stop_keywords:
                break
            if token.kind == "KEYWORD" and token.value in _CLAUSE_BOUNDARIES:
                break
        end = token.end
        cursor.next()
    if end <= start:
        raise ParseError("empty expression", position=start, text=cursor.text)
    return cursor.text[start:end]


def _parse_embedded_expression(cursor: _Cursor) -> Expr:
    text = _collect_expression_text(
        cursor,
        stop_keywords={"MATCH", "OPTIONAL", "WITH", "RETURN", "ORDER", "LIMIT", "SKIP", "UNION"},
        stop_at_comma=False,
    )
    return parse_expression(text, cursor.parameters)
