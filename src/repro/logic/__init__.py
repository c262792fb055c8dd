"""The CSL and MF-CSL logics (Definitions 3 and 5 of the paper).

- :mod:`repro.logic.ast` — immutable abstract-syntax nodes for both the
  local logic (CSL state and path formulas) and the global logic (MF-CSL);
- :mod:`repro.logic.lexer` / :mod:`repro.logic.parser` — a
  recursive-descent parser for a human-friendly textual syntax;
- :mod:`repro.logic.printer` — the inverse pretty-printer (parse/print
  round-trips are property-tested).

Textual syntax examples::

    EP[<0.3](not_infected U[0,1] infected)
    E[>0.8](P[>0.9](infected U[0,15] (P[>0.8](tt U[0,0.5] infected))))
    ES[>=0.1](infected) & !E[<0.1](active)
"""

from repro.logic.ast import (
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
    And,
    Or,
    PathFormula,
    Probability,
    SteadyState,
    TimeInterval,
    Until,
    atomic_propositions,
    until_nesting_depth,
)
from repro.logic.parser import parse_csl, parse_mfcsl, parse_path
from repro.logic.printer import format_formula
from repro.logic.rewrite import RewriteReport, optimize

__all__ = [
    "Atomic",
    "Bound",
    "CslFormula",
    "CslTrue",
    "Expectation",
    "ExpectedProbability",
    "ExpectedSteadyState",
    "MfAnd",
    "MfCslFormula",
    "MfNot",
    "MfOr",
    "MfTrue",
    "Next",
    "Not",
    "And",
    "Or",
    "PathFormula",
    "Probability",
    "SteadyState",
    "TimeInterval",
    "Until",
    "atomic_propositions",
    "until_nesting_depth",
    "parse_csl",
    "parse_mfcsl",
    "parse_path",
    "format_formula",
    "RewriteReport",
    "optimize",
]
