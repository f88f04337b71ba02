"""SQL-subset query layer: AST, lexer/parser and predicate evaluation.

Execution lives in :mod:`repro.session` (``session.sql(text).run()``).
"""

from repro.query.ast import (
    Aggregate,
    And,
    Between,
    Comparison,
    InList,
    Not,
    Or,
    Predicate,
    Query,
)
from repro.query.parser import ParseError, parse_predicate, parse_query
from repro.query.predicates import (
    predicate_bitvector,
    predicate_columns,
    predicate_mask,
)

__all__ = [
    "Aggregate",
    "And",
    "Between",
    "Comparison",
    "InList",
    "Not",
    "Or",
    "Predicate",
    "Query",
    "ParseError",
    "parse_predicate",
    "parse_query",
    "predicate_bitvector",
    "predicate_columns",
    "predicate_mask",
]
