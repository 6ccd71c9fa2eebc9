"""Exact comparison of finite multisets of angles, plus a proof checker for
Euclid-style derivations over them and a randomized model checker for the
rule set."""

from .kernel import (
    AngleLit,
    AngleOverflow,
    AngleSum,
    DegenerateAngle,
    Ordering,
    add_two,
    angle_from_slope_vector,
    compare_multisets,
    compare_sums,
    right_angle,
    sum_multiset,
)
from .calculus import (
    Congr,
    Context,
    Derivation,
    Eq,
    Falsum,
    Hypothesis,
    Judgment,
    Lt,
    MultisetExpr,
    Rule,
    Split,
    Step,
    StepError,
    Term,
    check_derivation,
    check_step,
    format_judgment,
)
from .dsl import ParseError, SourceSpan, parse_expr, parse_proof
from .semantics import (
    Counterexample,
    ModelCheckReport,
    SamplingPlan,
    UnboundVariable,
    Unsatisfied,
    Valuation,
    eval_judgment,
    model_check_derivation,
)

__version__ = "0.1.0"
