"""Functional intermediate representation (Figures 6 and 7 of the paper).

Public surface:

* :mod:`repro.ir.nodes` — AST node classes;
* :mod:`repro.ir.dsl` — concise builders for writing programs in Python;
* :mod:`repro.ir.parser` / :mod:`repro.ir.pretty` — concrete syntax;
* :mod:`repro.ir.evaluator` — the definitional interpreter;
* :mod:`repro.ir.compile` — the closure-compilation backend (native Python
  closures for fixed trees; the interpreter stays the ground truth), and
  :func:`expr_evaluator`, the entry point for evaluating one expression
  many times;
* :mod:`repro.ir.traversal` — structural utilities (substitution, AST size,
  list-expression discovery).
"""

from .nodes import (
    Call,
    Const,
    Expr,
    Filter,
    Fold,
    Hole,
    If,
    Lambda,
    Let,
    ListVar,
    MakeTuple,
    Map,
    OnlineProgram,
    Program,
    Proj,
    Snoc,
    Var,
    const,
)
from .compile import (
    IRCompileError,
    compile_expr,
    compile_online_step,
    expr_evaluator,
)
from .evaluator import EvaluationError, evaluate, run_offline, step_online
from .parser import ParseError, parse_expr, parse_online_program, parse_program
from .pretty import (
    online_program_to_sexpr,
    pretty,
    pretty_online,
    pretty_program,
    program_to_sexpr,
    to_sexpr,
)
from .traversal import (
    ast_size,
    fill_holes,
    free_vars,
    inline_lets,
    is_list_expr,
    list_exprs,
    substitute,
    substitute_list_var,
    validate_online_expr,
)

__all__ = [
    "Call",
    "Const",
    "EvaluationError",
    "Expr",
    "IRCompileError",
    "Filter",
    "Fold",
    "Hole",
    "If",
    "Lambda",
    "Let",
    "ListVar",
    "MakeTuple",
    "Map",
    "OnlineProgram",
    "ParseError",
    "Program",
    "Proj",
    "Snoc",
    "Var",
    "ast_size",
    "compile_expr",
    "compile_online_step",
    "const",
    "evaluate",
    "expr_evaluator",
    "fill_holes",
    "free_vars",
    "inline_lets",
    "is_list_expr",
    "list_exprs",
    "online_program_to_sexpr",
    "parse_expr",
    "parse_online_program",
    "parse_program",
    "pretty",
    "pretty_online",
    "pretty_program",
    "program_to_sexpr",
    "run_offline",
    "step_online",
    "substitute",
    "substitute_list_var",
    "to_sexpr",
    "validate_online_expr",
]
