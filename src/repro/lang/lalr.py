"""A small LALR(1) parser generator.

The paper generates its XQuery/XPath parser with an LALR(k) generator and
notes that "in our case LALR(1) is used with a much simpler lexical scanner
than what is described in the W3C specification, achieved by rewriting the
BNF production rules" (§4).  This module provides that machinery from
scratch: grammars are lists of productions with semantic actions; tables are
built from LR(1) item sets whose states with equal LR(0) cores are merged
as they are found (the same tables as canonical LR(1) followed by merging,
without holding the canonical states); conflicts are reported at build
time.

The generator is deliberately general — nothing in it knows about XPath —
and is exercised independently by the test suite.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Callable, Iterable, Sequence

from repro.errors import QueryError


class GrammarError(QueryError):
    """Grammar construction or table conflict error."""


class ParseError(QueryError):
    """Input rejected by the generated parser."""


#: End-of-input terminal.
EOF = "$end"
#: Internal augmented start symbol.
_START = "$start"


@dataclass(frozen=True)
class Production:
    """One grammar production ``lhs -> rhs`` with a semantic action.

    The action receives one argument per RHS symbol (terminal token values
    or nonterminal results) and returns the LHS value.
    """

    index: int
    lhs: str
    rhs: tuple[str, ...]
    action: Callable[..., object]


@dataclass(frozen=True)
class Token:
    """Lexer output: a terminal with its semantic value and position."""

    type: str
    value: object = None
    pos: int = 0


class Grammar:
    """A context-free grammar under construction."""

    def __init__(self, start: str) -> None:
        self.start = start
        self.productions: list[Production] = []
        self.nonterminals: set[str] = set()

    def rule(self, lhs: str, rhs: Sequence[str],
             action: Callable[..., object] | None = None) -> None:
        """Add ``lhs -> rhs``.  Default action returns the sole child (or a
        tuple of children)."""
        if action is None:
            if len(rhs) == 1:
                action = lambda x: x  # noqa: E731
            else:
                action = lambda *xs: tuple(xs)  # noqa: E731
        self.productions.append(
            Production(len(self.productions), lhs, tuple(rhs), action))
        self.nonterminals.add(lhs)

    @property
    def terminals(self) -> set[str]:
        used = {sym for p in self.productions for sym in p.rhs}
        return used - self.nonterminals


# ---------------------------------------------------------------------------
# Table construction
# ---------------------------------------------------------------------------

_Item = tuple[int, int, str]  # (production index, dot position, lookahead)


class ParserTables:
    """ACTION/GOTO tables plus the production list."""

    def __init__(self, grammar: Grammar) -> None:
        self.grammar = grammar
        augmented = Production(-1, _START, (grammar.start,), lambda x: x)
        self._productions: dict[int, Production] = {-1: augmented}
        for production in grammar.productions:
            self._productions[production.index] = production
        self._by_lhs: dict[str, list[Production]] = {}
        for production in grammar.productions:
            self._by_lhs.setdefault(production.lhs, []).append(production)
        if grammar.start not in self._by_lhs:
            raise GrammarError(f"start symbol {grammar.start!r} has no rules")
        self._nonterminals = grammar.nonterminals
        self._first = self._compute_first()
        self.action: list[dict[str, tuple[str, int]]] = []
        self.goto: list[dict[str, int]] = []
        self._build()

    # -- FIRST sets -----------------------------------------------------------

    def _compute_first(self) -> dict[str, set[str | None]]:
        first: dict[str, set[str | None]] = {
            nt: set() for nt in self._nonterminals}
        changed = True
        while changed:
            changed = False
            for production in self.grammar.productions:
                target = first[production.lhs]
                before = len(target)
                nullable_so_far = True
                for symbol in production.rhs:
                    if symbol in self._nonterminals:
                        target |= (first[symbol] - {None})
                        if None not in first[symbol]:
                            nullable_so_far = False
                            break
                    else:
                        target.add(symbol)
                        nullable_so_far = False
                        break
                if nullable_so_far:
                    target.add(None)
                if len(target) != before:
                    changed = True
        return first

    def _first_of_sequence(self, symbols: Iterable[str],
                           lookahead: str) -> set[str]:
        out: set[str] = set()
        for symbol in symbols:
            if symbol in self._nonterminals:
                out |= {t for t in self._first[symbol] if t is not None}
                if None not in self._first[symbol]:
                    return out
            else:
                out.add(symbol)
                return out
        out.add(lookahead)
        return out

    # -- item sets ----------------------------------------------------------------

    def _closure(self, items: frozenset[_Item]) -> frozenset[_Item]:
        closure = set(items)
        work = list(items)
        while work:
            prod_index, dot, lookahead = work.pop()
            production = self._productions[prod_index]
            if dot >= len(production.rhs):
                continue
            symbol = production.rhs[dot]
            if symbol not in self._nonterminals:
                continue
            rest = production.rhs[dot + 1:]
            lookaheads = self._first_of_sequence(rest, lookahead)
            for candidate in self._by_lhs.get(symbol, ()):
                for la in lookaheads:
                    item = (candidate.index, 0, la)
                    if item not in closure:
                        closure.add(item)
                        work.append(item)
        return frozenset(closure)

    def _goto_set(self, items: frozenset[_Item],
                  symbol: str) -> frozenset[_Item]:
        moved = {
            (prod_index, dot + 1, la)
            for prod_index, dot, la in items
            if dot < len(self._productions[prod_index].rhs)
            and self._productions[prod_index].rhs[dot] == symbol
        }
        return self._closure(frozenset(moved)) if moved else frozenset()

    @staticmethod
    def _core(items: frozenset[_Item]) -> frozenset[tuple[int, int]]:
        return frozenset((p, d) for p, d, _ in items)

    def _build(self) -> None:
        # LR(1) item sets, merged by LR(0) core as they are found: the
        # result equals canonical LR(1) followed by merging (goto and
        # closure distribute over union), but only the LALR states are
        # ever held.  A state whose lookaheads grow is processed again so
        # they reach its successors.
        start_set = self._closure(frozenset({(-1, 0, EOF)}))
        merged_items: list[set[_Item]] = [set(start_set)]
        core_index: dict[frozenset[tuple[int, int]], int] = {
            self._core(start_set): 0}
        merged_transitions: dict[tuple[int, str], int] = {}
        work = [0]
        while work:
            state_no = work.pop()
            items = frozenset(merged_items[state_no])
            symbols = {
                self._productions[p].rhs[d]
                for p, d, _ in items
                if d < len(self._productions[p].rhs)
            }
            for symbol in sorted(symbols):
                target = self._goto_set(items, symbol)
                if not target:
                    continue
                core = self._core(target)
                target_no = core_index.get(core)
                if target_no is None:
                    target_no = core_index[core] = len(merged_items)
                    merged_items.append(set(target))
                    work.append(target_no)
                elif not target <= merged_items[target_no]:
                    merged_items[target_no] |= target
                    work.append(target_no)
                merged_transitions[(state_no, symbol)] = target_no

        # Fill ACTION/GOTO.
        self.action = [dict() for _ in merged_items]
        self.goto = [dict() for _ in merged_items]
        for (state_no, symbol), target in merged_transitions.items():
            if symbol in self._nonterminals:
                self.goto[state_no][symbol] = target
            else:
                self.action[state_no][symbol] = ("shift", target)
        for state_no, items in enumerate(merged_items):
            for prod_index, dot, lookahead in items:
                production = self._productions[prod_index]
                if dot != len(production.rhs):
                    continue
                if prod_index == -1:
                    self._set_action(state_no, EOF, ("accept", 0))
                    continue
                self._set_action(state_no, lookahead, ("reduce", prod_index))

    def _set_action(self, state_no: int, terminal: str,
                    action: tuple[str, int]) -> None:
        existing = self.action[state_no].get(terminal)
        if existing is not None and existing != action:
            kind_a, kind_b = existing[0], action[0]
            raise GrammarError(
                f"{kind_a}/{kind_b} conflict in state {state_no} "
                f"on {terminal!r}: {existing} vs {action}")
        self.action[state_no][terminal] = action

    @property
    def state_count(self) -> int:
        return len(self.action)

    def production(self, index: int) -> Production:
        return self._productions[index]


class Parser:
    """Table-driven LALR(1) parser."""

    def __init__(self, tables: ParserTables) -> None:
        self.tables = tables

    def parse(self, tokens: Iterable[Token]) -> object:
        """Parse a token stream (EOF is appended automatically)."""
        stack: list[int] = [0]
        values: list[object] = []
        stream = list(tokens)
        stream.append(Token(EOF, None, stream[-1].pos if stream else 0))
        pos = 0
        while True:
            state = stack[-1]
            token = stream[pos]
            action = self.tables.action[state].get(token.type)
            if action is None:
                expected = sorted(self.tables.action[state])
                raise ParseError(
                    f"unexpected {token.type} "
                    f"({token.value!r}) at offset {token.pos}; "
                    f"expected one of: {', '.join(expected)}")
            kind, arg = action
            if kind == "shift":
                stack.append(arg)
                values.append(token.value)
                pos += 1
            elif kind == "reduce":
                production = self.tables.production(arg)
                arity = len(production.rhs)
                children = values[len(values) - arity:] if arity else []
                del stack[len(stack) - arity:]
                del values[len(values) - arity:]
                result = production.action(*children)
                goto_state = self.tables.goto[stack[-1]].get(production.lhs)
                if goto_state is None:  # pragma: no cover - table invariant
                    raise ParseError(f"no goto for {production.lhs}")
                stack.append(goto_state)
                values.append(result)
            else:  # accept
                return values[-1]


def build_parser(grammar: Grammar) -> Parser:
    """Construct tables (raising :class:`GrammarError` on conflicts)."""
    return Parser(ParserTables(grammar))
