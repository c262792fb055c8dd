"""Recursive-descent parser for CSL and MF-CSL formulas.

Grammar (precedence: ``!`` binds tightest, then ``&``, then ``|``)::

    mfcsl   := mf_or
    mf_or   := mf_and ('|' mf_and)*
    mf_and  := mf_not ('&' mf_not)*
    mf_not  := '!' mf_not | 'tt' | 'ff'
             | 'E'  bound '(' csl ')'
             | 'ES' bound '(' csl ')'
             | 'EP' bound '(' path ')'
             | '(' mfcsl ')'

    csl     := csl_or
    csl_or  := csl_and ('|' csl_and)*
    csl_and := csl_not ('&' csl_not)*
    csl_not := '!' csl_not | 'tt' | 'ff' | IDENT
             | 'P' bound '(' path ')'
             | 'S' bound '(' csl ')'
             | '(' csl ')'

    path    := 'X' interval? csl_not
             | csl 'U' interval? csl
    bound   := '[' ('<'|'<='|'>'|'>=') NUMBER ']'
    interval:= '[' NUMBER ',' (NUMBER | 'inf') ']'

``ff`` desugars to ``!tt``; an omitted until/next interval means
``[0, inf]`` (accepted syntactically; the bounded-time checkers reject it
later with :class:`~repro.exceptions.UnsupportedFormulaError`).
"""

from __future__ import annotations

import math
from typing import List

from repro.exceptions import ParseError
from repro.logic.ast import (
    And,
    Atomic,
    Bound,
    CslFormula,
    CslTrue,
    Expectation,
    ExpectedProbability,
    ExpectedSteadyState,
    MfAnd,
    MfCslFormula,
    MfNot,
    MfOr,
    MfTrue,
    Next,
    Not,
    Or,
    PathFormula,
    Probability,
    SteadyState,
    TimeInterval,
    Until,
)
from repro.logic.lexer import (
    KIND_END,
    KIND_IDENT,
    KIND_NUMBER,
    KIND_RESERVED,
    KIND_SYMBOL,
    Token,
    tokenize,
)


class _Parser:
    """Shared token-stream machinery for both formula families."""

    def __init__(self, source: str):
        self.source = source
        self.tokens: List[Token] = tokenize(source)
        self.pos = 0

    # -- token helpers -------------------------------------------------

    def peek(self) -> Token:
        return self.tokens[self.pos]

    def advance(self) -> Token:
        tok = self.tokens[self.pos]
        if tok.kind != KIND_END:
            self.pos += 1
        return tok

    def expect_symbol(self, text: str) -> Token:
        tok = self.peek()
        if tok.kind != KIND_SYMBOL or tok.text != text:
            raise ParseError(
                f"expected {text!r} but found {tok}", position=tok.position
            )
        return self.advance()

    def at_symbol(self, text: str) -> bool:
        tok = self.peek()
        return tok.kind == KIND_SYMBOL and tok.text == text

    def at_reserved(self, text: str) -> bool:
        tok = self.peek()
        return tok.kind == KIND_RESERVED and tok.text == text

    def expect_end(self) -> None:
        tok = self.peek()
        if tok.kind != KIND_END:
            raise ParseError(
                f"unexpected trailing input starting at {tok}",
                position=tok.position,
            )

    # -- shared pieces ---------------------------------------------------

    def parse_bound(self) -> Bound:
        self.expect_symbol("[")
        tok = self.peek()
        if tok.kind != KIND_SYMBOL or tok.text not in ("<", "<=", ">", ">="):
            raise ParseError(
                f"expected a comparator (<, <=, >, >=) but found {tok}",
                position=tok.position,
            )
        comparator = self.advance().text
        position = self.peek().position
        threshold = self.parse_number()
        self.expect_symbol("]")
        try:
            return Bound(comparator, threshold)
        except Exception as exc:
            raise ParseError(str(exc), position=position) from exc

    def parse_number(self) -> float:
        tok = self.peek()
        if tok.kind == KIND_RESERVED and tok.text == "inf":
            self.advance()
            return math.inf
        if tok.kind != KIND_NUMBER:
            raise ParseError(
                f"expected a number but found {tok}", position=tok.position
            )
        self.advance()
        return float(tok.text)

    def parse_interval(self) -> TimeInterval:
        self.expect_symbol("[")
        lower = self.parse_number()
        self.expect_symbol(",")
        upper = self.parse_number()
        self.expect_symbol("]")
        try:
            return TimeInterval(lower, upper)
        except Exception as exc:
            raise ParseError(str(exc), position=self.peek().position) from exc

    # -- CSL ------------------------------------------------------------

    def parse_csl(self) -> CslFormula:
        return self._csl_or()

    def _csl_or(self) -> CslFormula:
        left = self._csl_and()
        while self.at_symbol("|"):
            self.advance()
            left = Or(left, self._csl_and())
        return left

    def _csl_and(self) -> CslFormula:
        left = self._csl_not()
        while self.at_symbol("&"):
            self.advance()
            left = And(left, self._csl_not())
        return left

    def _csl_not(self) -> CslFormula:
        if self.at_symbol("!"):
            self.advance()
            return Not(self._csl_not())
        return self._csl_primary()

    def _csl_primary(self) -> CslFormula:
        tok = self.peek()
        if self.at_reserved("tt"):
            self.advance()
            return CslTrue()
        if self.at_reserved("ff"):
            self.advance()
            return Not(CslTrue())
        if self.at_reserved("P"):
            self.advance()
            bound = self.parse_bound()
            self.expect_symbol("(")
            path = self.parse_path()
            self.expect_symbol(")")
            return Probability(bound, path)
        if self.at_reserved("S"):
            self.advance()
            bound = self.parse_bound()
            self.expect_symbol("(")
            operand = self.parse_csl()
            self.expect_symbol(")")
            return SteadyState(bound, operand)
        if tok.kind == KIND_IDENT:
            self.advance()
            return Atomic(tok.text)
        if self.at_symbol("("):
            self.advance()
            inner = self.parse_csl()
            self.expect_symbol(")")
            return inner
        raise ParseError(
            f"expected a CSL formula but found {tok}", position=tok.position
        )

    # -- path formulas ----------------------------------------------------

    def parse_path(self) -> PathFormula:
        if self.at_reserved("X"):
            self.advance()
            interval = (
                self.parse_interval()
                if self.at_symbol("[")
                else TimeInterval(0.0, math.inf)
            )
            return Next(interval, self._csl_not())
        left = self.parse_csl()
        if not self.at_reserved("U"):
            tok = self.peek()
            raise ParseError(
                f"expected 'U' in path formula but found {tok}",
                position=tok.position,
            )
        self.advance()
        interval = (
            self.parse_interval()
            if self.at_symbol("[")
            else TimeInterval(0.0, math.inf)
        )
        right = self.parse_csl()
        return Until(interval, left, right)

    # -- MF-CSL -----------------------------------------------------------

    def parse_mfcsl(self) -> MfCslFormula:
        return self._mf_or()

    def _mf_or(self) -> MfCslFormula:
        left = self._mf_and()
        while self.at_symbol("|"):
            self.advance()
            left = MfOr(left, self._mf_and())
        return left

    def _mf_and(self) -> MfCslFormula:
        left = self._mf_not()
        while self.at_symbol("&"):
            self.advance()
            left = MfAnd(left, self._mf_not())
        return left

    def _mf_not(self) -> MfCslFormula:
        if self.at_symbol("!"):
            self.advance()
            return MfNot(self._mf_not())
        return self._mf_primary()

    def _mf_primary(self) -> MfCslFormula:
        tok = self.peek()
        if self.at_reserved("tt"):
            self.advance()
            return MfTrue()
        if self.at_reserved("ff"):
            self.advance()
            return MfNot(MfTrue())
        if self.at_reserved("E"):
            self.advance()
            bound = self.parse_bound()
            self.expect_symbol("(")
            operand = self.parse_csl()
            self.expect_symbol(")")
            return Expectation(bound, operand)
        if self.at_reserved("ES"):
            self.advance()
            bound = self.parse_bound()
            self.expect_symbol("(")
            operand = self.parse_csl()
            self.expect_symbol(")")
            return ExpectedSteadyState(bound, operand)
        if self.at_reserved("EP"):
            self.advance()
            bound = self.parse_bound()
            self.expect_symbol("(")
            path = self.parse_path()
            self.expect_symbol(")")
            return ExpectedProbability(bound, path)
        if self.at_symbol("("):
            self.advance()
            inner = self.parse_mfcsl()
            self.expect_symbol(")")
            return inner
        raise ParseError(
            f"expected an MF-CSL formula but found {tok}",
            position=tok.position,
        )


def _parse(source: str, rule):
    parser = _Parser(source)
    try:
        formula = rule(parser)
    except RecursionError:
        # Each '(' or '!' costs a few descent frames: input nested past
        # the interpreter's recursion limit is a formula error, not a
        # crash.
        raise ParseError("formula is nested too deeply to parse") from None
    parser.expect_end()
    return formula


def parse_csl(source: str) -> CslFormula:
    """Parse a CSL *state* formula from text."""
    return _parse(source, _Parser.parse_csl)


def parse_path(source: str) -> PathFormula:
    """Parse a CSL *path* formula (``X``/``U``) from text."""
    return _parse(source, _Parser.parse_path)


def parse_mfcsl(source: str) -> MfCslFormula:
    """Parse an MF-CSL formula from text."""
    return _parse(source, _Parser.parse_mfcsl)
