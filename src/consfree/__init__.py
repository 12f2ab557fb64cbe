"""Toolkit for a higher-order cons-free language: parsing, type checking,
restriction analysis, call-by-value enumeration, saturation-based
terminating evaluation, counting-module generation and a Turing machine
compiler."""

from .lang import (
    Arrow, Con, Fun, LangError, Pair, Product, Program, Rule, Sort,
    SymbolTable, Term, Type, Var, data_order, is_data_term, is_value,
    type_check, type_order,
)
from .parser import ParseError, parse_data_term, parse_program, print_program, print_term
from .analysis import AnalysisReport, allowed_data_terms, classify
from .interp import Budget, EvalBudget, EvalResult, EvalStuck, eval_all, eval_deterministic
# `saturate` the function is not re-exported: as a package attribute it
# would shadow the submodule, and `import consfree.saturate as m` would bind
# the function
from .saturate import DomainCapExceeded, SaturationEngine, SaturationPrecondition
from .counting import (
    CountingModule, gen_bincount, gen_lincount, gen_nondetcount, gen_polycount,
)
from .turing import TuringMachine, compile_tm, parse_tm, simulate_tm
