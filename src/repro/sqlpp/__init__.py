"""SQL++ substrate: lexer, parser, analysis, evaluation."""

from .analysis import (
    dataset_references,
    free_vars,
    is_stateful,
    split_conjuncts,
)
from .ast import Expr, FunctionDefinition, SelectBlock
from .evaluator import EvaluationContext, Env, Evaluator
from .functions import BUILTINS, edit_distance
from .parser import (
    Parser,
    parse_expression,
    parse_function,
    parse_statement,
    parse_statements,
)

__all__ = [
    "BUILTINS",
    "EvaluationContext",
    "Env",
    "Evaluator",
    "Expr",
    "FunctionDefinition",
    "Parser",
    "SelectBlock",
    "dataset_references",
    "edit_distance",
    "free_vars",
    "is_stateful",
    "parse_expression",
    "parse_function",
    "parse_statement",
    "parse_statements",
    "split_conjuncts",
]
