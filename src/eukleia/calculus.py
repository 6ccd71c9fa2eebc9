"""Multiset judgments over angle terms, the inference rules, and the checker.

A term is a variable name (a ``str`` declared by the script's ``vars``
header) or a concrete ``AngleLit``; a multiset expression is a canonically
sorted tuple of terms, variables first.

The judgment language has no connectives: a proof is a straight sequence of
Eq/Lt/Split/Congr/False claims, each justified by one rule applied to earlier
lines.  Each claim compares two groups of angles by total measure
(:func:`comparison`): a Split equates the whole with its two parts, a Congr
two singletons, and False puts the empty group below itself.  Three-way
comparisons are eliminated with a dedicated Cases step carrying one
sub-derivation per branch; the absurd judgment False, once established,
yields any goal through the Hypothesis rule.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from enum import Enum
from itertools import compress, count
from operator import attrgetter, ne
from typing import TYPE_CHECKING, NoReturn, Optional, Union

from .kernel import _EQUAL, _LESS, _RIGHT, AngleLit, Ordering, compare_multisets

if TYPE_CHECKING:
    from .dsl import SourceSpan


# ---------------------------------------------------------------------------
# Terms and multiset expressions

# A variable name or a concrete angle.
Term = Union[str, AngleLit]

_BY_COORDS = attrgetter("x", "y")


def format_term(t: Term) -> str:
    if isinstance(t, str):
        return t
    if t == _RIGHT:
        return "R"
    return str(t)


@dataclass(frozen=True, init=False)
class MultisetExpr:
    """Finite multiset of terms, kept in a canonical sorted order: the names
    sorted, then the angles by their coordinates.

    Two expressions are equal exactly when they contain the same terms with
    the same multiplicities; the listed order never matters.  Their term
    tuples are then equal too, and one multiset contains another exactly when
    its tuple has the other's as a subsequence.
    """

    terms: tuple[Term, ...] = ()

    def __init__(self, terms: tuple[Term, ...] = ()):
        names = sorted([t for t in terms if isinstance(t, str)])
        if len(names) < len(terms):
            names += sorted([t for t in terms if not isinstance(t, str)], key=_BY_COORDS)
        self.__dict__["terms"] = tuple(names)  # written once, directly, as Step's fields are

    @classmethod
    def _of(cls, names: list[str], angles: list[AngleLit]) -> "MultisetExpr":
        """``MultisetExpr((*names, *angles))``, sorting both lists in place."""
        expr = object.__new__(cls)
        names.sort()
        angles.sort(key=_BY_COORDS)
        expr.__dict__["terms"] = (*names, *angles)
        return expr

    def __len__(self) -> int:
        return len(self.terms)

    def __str__(self) -> str:
        return "{" + ", ".join(format_term(t) for t in self.terms) + "}"


# ---------------------------------------------------------------------------
# Judgments

@dataclass(frozen=True)
class Eq:
    lhs: MultisetExpr
    rhs: MultisetExpr


@dataclass(frozen=True)
class Lt:
    lhs: MultisetExpr
    rhs: MultisetExpr


@dataclass(frozen=True)
class Split:
    """Hypothesis form: a ray divides ``whole`` into the two parts."""

    whole: Term
    part1: Term
    part2: Term


@dataclass(frozen=True)
class Congr:
    """Hypothesis form: the two angles coincide when applied to each other."""

    a: Term
    b: Term


@dataclass(frozen=True)
class Falsum:
    """The absurd judgment; no valuation models it."""


Judgment = Union[Eq, Lt, Split, Congr, Falsum]


def case_hypotheses(m: MultisetExpr, n: MultisetExpr) -> tuple[Lt, Eq, Lt]:
    """What the three branches of ``cases m n`` assume, in branch order."""
    return (Lt(m, n), Eq(m, n), Lt(n, m))


def format_judgment(j: Judgment) -> str:
    if isinstance(j, Eq):
        return f"Eq {j.lhs} {j.rhs}"
    if isinstance(j, Lt):
        return f"Lt {j.lhs} {j.rhs}"
    if isinstance(j, Split):
        return f"Split {format_term(j.whole)} {format_term(j.part1)} {format_term(j.part2)}"
    if isinstance(j, Congr):
        return f"Congr {format_term(j.a)} {format_term(j.b)}"
    return "False"


def comparison(j: Judgment) -> tuple[tuple[Term, ...], tuple[Term, ...], Ordering]:
    """What ``j`` asserts: the terms of two groups of angles and the order
    their total measures must stand in.  ``Split W p q`` is ``Eq {W} {p, q}``
    (a whole below pi equals the sum of two parts exactly when they compose
    to it), ``Congr a b`` is ``Eq {a} {b}`` and False is ``Lt {} {}``.
    """
    if isinstance(j, Eq):
        return j.lhs.terms, j.rhs.terms, _EQUAL
    if isinstance(j, Lt):
        return j.lhs.terms, j.rhs.terms, _LESS
    if isinstance(j, Split):
        return (j.whole,), (j.part1, j.part2), _EQUAL
    if isinstance(j, Congr):
        return (j.a,), (j.b,), _EQUAL
    return (), (), _LESS


# ---------------------------------------------------------------------------
# Rules and derivations

class Rule(Enum):
    """The closed set of inference rules a step may cite.

    A member's value is the rule's name as a script cites it, and its
    ``premise_count`` is how many premise labels a step citing it gives.
    """

    EQ_REFL = "eqrefl", 0
    EQ_SYM = "eqsym", 1
    EQ_TRANS = "eqtrans", 2
    SUBST_LEFT = "substleft", 2
    SUBST_RIGHT = "substright", 2
    LT_TRANS = "lttrans", 2
    ADD_BOTH = "addboth", 1
    SINGLETON_POS = "singletonpos", 0
    WHOLE_PART = "wholepart", 0
    SPLIT_EQ = "spliteq", 1
    CONGR_EQ = "congreq", 1
    LT_IRREFL = "ltirrefl", 1
    LT_ASYM = "ltasym", 2
    EQ_LT_CLASH = "eqltclash", 2
    CASES = "cases", 0
    HYPOTHESIS = "hypothesis", 1
    KERNEL_EVAL = "kerneleval", 0

    def __new__(cls, name: str, premise_count: int):
        rule = object.__new__(cls)
        rule._value_ = name
        rule.premise_count = premise_count
        return rule


@dataclass(frozen=True)
class Hypothesis:
    label: str
    judgment: Judgment


@dataclass(frozen=True, init=False)
class Step:
    """One proof line: a judgment, the rule that licenses it, and the cited
    premise labels.  A Cases step additionally carries the compared pair and
    its three branch sub-derivations."""

    label: str
    judgment: Judgment
    rule: Rule
    premises: tuple[str, ...] = ()
    case_pair: Optional[tuple[MultisetExpr, MultisetExpr]] = None
    branches: tuple[tuple["Step", ...], ...] = ()
    span: Optional["SourceSpan"] = field(default=None, compare=False, repr=False)

    def __init__(self, label: str, judgment: Judgment, rule: Rule, premises: tuple[str, ...] = (),
                 case_pair: Optional[tuple[MultisetExpr, MultisetExpr]] = None,
                 branches: tuple[tuple["Step", ...], ...] = (), span: Optional["SourceSpan"] = None):
        # Written directly, as kernel._reduced does: the frozen class's
        # __setattr__ refuses, and the generated __init__'s call of
        # object.__setattr__ per field is slower.
        fields = self.__dict__
        fields["label"] = label
        fields["judgment"] = judgment
        fields["rule"] = rule
        fields["premises"] = premises
        fields["case_pair"] = case_pair
        fields["branches"] = branches
        fields["span"] = span


@dataclass(frozen=True)
class Derivation:
    variables: tuple[str, ...] = ()
    hypotheses: tuple[Hypothesis, ...] = ()
    steps: tuple[Step, ...] = ()


class StepError(Exception):
    """A proof step that its cited rule does not license."""

    def __init__(self, label: str, reason: str, span: Optional["SourceSpan"] = None):
        super().__init__(f"step {label}: {reason}")
        self.label = label
        self.reason = reason
        self.span = span


class Context:
    """Judgments visible to a step: hypotheses and earlier steps, chained
    through enclosing Cases branches, and the variables ``declared`` for the
    whole derivation, which every judgment's names must be among."""

    def __init__(self, parent: Optional["Context"] = None, declared: Optional[frozenset[str]] = None):
        self._entries: dict[str, Judgment] = {}
        self._parent = parent
        self.declared: frozenset[str] = parent.declared if parent is not None else frozenset(declared or ())

    def lookup(self, label: str) -> Optional[Judgment]:
        ctx: Optional[Context] = self
        while ctx is not None:
            j = ctx._entries.get(label)
            if j is not None:
                return j
            ctx = ctx._parent
        return None

    def bind(self, label: str, judgment: Judgment) -> None:
        self._entries[label] = judgment

    def undeclared(self, j: Judgment) -> Optional[str]:
        """The least name in ``j``'s :func:`comparison` that is not declared, or None."""
        lhs, rhs, _ = comparison(j)
        stray = {t for t in lhs + rhs if t.__class__ is str} - self.declared
        return min(stray) if stray else None


# ---------------------------------------------------------------------------
# Checking

def _single_added(base: MultisetExpr, extended: MultisetExpr) -> Optional[Term]:
    """The one term whose addition turns ``base`` into ``extended``, if any:
    the first term of ``extended`` that differs from ``base`` at the same
    place, when the terms after it are all of ``base``'s from there on."""
    b, e = base.terms, extended.terms
    if len(e) != len(b) + 1:
        return None
    at = next(compress(count(), map(ne, b, e)), len(b))  # the first place they differ
    return e[at] if b[at:] == e[at + 1:] else None


def check_step(step: Step, context: Context) -> None:
    """Validate one step against its cited rule; raises StepError on failure.

    The step's judgment must be exactly what the rule produces from the
    cited premises; multiset sides match up to multiplicity, never by the
    order terms were written in.
    """

    def fail(reason: str) -> NoReturn:
        raise StepError(step.label, reason, step.span)

    if context.lookup(step.label) is not None:
        fail("duplicate label")
    stray = context.undeclared(step.judgment)
    if stray is not None:
        fail(f"undeclared variable {stray!r}")

    premises: list[Judgment] = []
    for ref in step.premises:
        j = context.lookup(ref)
        if j is None:
            fail(f"unknown premise {ref!r}")
        premises.append(j)

    # Dispatched on the rule's name: on Python 3.11 each Rule.X runs
    # EnumType.__getattr__, and Enum.__hash__ is a Python function.
    name = step.rule._value_
    if name != "cases" and (step.branches or step.case_pair is not None):
        fail("case blocks are only meaningful under the cases rule")
    expected = step.rule.premise_count
    if len(premises) != expected:
        fail(f"rule {name} takes {expected} premise(s), got {len(premises)}")

    goal = step.judgment

    if name == "eqrefl":
        if not (isinstance(goal, Eq) and goal.lhs == goal.rhs):
            fail("conclusion is not of the form Eq(M, M)")

    elif name == "eqsym":
        (p,) = premises
        if not isinstance(p, Eq):
            fail("premise is not an equality")
        if not (type(goal) is Eq and goal.lhs == p.rhs and goal.rhs == p.lhs):
            fail("conclusion is not the mirrored premise")

    elif name in ("eqtrans", "lttrans"):
        kind, kinds = (Eq, "equalities") if name == "eqtrans" else (Lt, "strict comparisons")
        p1, p2 = premises
        if not (isinstance(p1, kind) and isinstance(p2, kind)):
            fail(f"both premises must be {kinds}")
        if p1.rhs != p2.lhs:
            fail("middle expressions differ")
        if not (type(goal) is kind and goal.lhs == p1.lhs and goal.rhs == p2.rhs):
            fail("conclusion does not chain the premises")

    elif name in ("substleft", "substright"):
        eq, k = premises
        if not isinstance(eq, Eq):
            fail("first premise must be an equality")
        if not isinstance(k, (Eq, Lt)):
            fail("second premise must be a comparison")
        if name == "substleft":
            if k.lhs != eq.rhs:
                fail("left side of the comparison does not match the equality")
            lhs, rhs = eq.lhs, k.rhs
        else:
            if k.rhs != eq.rhs:
                fail("right side of the comparison does not match the equality")
            lhs, rhs = k.lhs, eq.lhs
        if not (type(goal) is type(k) and goal.lhs == lhs and goal.rhs == rhs):
            fail("conclusion is not the substituted comparison")

    elif name == "addboth":
        (p,) = premises
        if not isinstance(p, (Eq, Lt)):
            fail("premise must be a comparison")
        if type(goal) is not type(p):
            fail("conclusion must be the same kind of comparison as the premise")
        assert isinstance(goal, (Eq, Lt))
        added_l = _single_added(p.lhs, goal.lhs)
        added_r = _single_added(p.rhs, goal.rhs)
        if added_l is None or added_r is None:
            fail("each side must gain exactly one term")
        if added_l != added_r:
            fail("the two sides gained different terms")

    elif name == "singletonpos":
        if not (isinstance(goal, Lt) and not goal.lhs.terms and len(goal.rhs) == 1):
            fail("conclusion is not of the form Lt({}, {t})")

    elif name == "wholepart":
        if not isinstance(goal, Lt):
            fail("conclusion must be a strict comparison")
        rest = iter(goal.rhs.terms)
        if not (len(goal.lhs) < len(goal.rhs) and all(t in rest for t in goal.lhs.terms)):
            fail("right side must extend the left side by a nonempty part")

    elif name in ("spliteq", "congreq"):
        (p,) = premises
        kind, noun, equated = ((Split, "split", "the whole with its two parts") if name == "spliteq"
                               else (Congr, "congruence", "the congruent singletons"))
        if not isinstance(p, kind):
            fail(f"premise is not a {noun}")
        lhs, rhs, _ = comparison(p)
        # The goal's sides are sorted, so they are p's sides exactly when
        # they list the one or two terms of each in either order.
        if not (type(goal) is Eq and goal.lhs.terms == lhs and goal.rhs.terms in (rhs, rhs[::-1])):
            fail(f"conclusion does not equate {equated}")

    elif name == "ltirrefl":
        (p,) = premises
        if not (isinstance(p, Lt) and p.lhs == p.rhs):
            fail("premise is not of the form Lt(M, M)")

    elif name == "ltasym":
        p1, p2 = premises
        if not (isinstance(p1, Lt) and isinstance(p2, Lt)):
            fail("both premises must be strict comparisons")
        if not (p1.lhs == p2.rhs and p1.rhs == p2.lhs):
            fail("premises are not mirrored comparisons")

    elif name == "eqltclash":
        eq, lt = premises
        if not (isinstance(eq, Eq) and isinstance(lt, Lt)):
            fail("premises must be one equality and one strict comparison")
        same = lt.lhs == eq.lhs and lt.rhs == eq.rhs
        mirrored = lt.lhs == eq.rhs and lt.rhs == eq.lhs
        if not (same or mirrored):
            fail("the comparison does not relate the equated expressions")

    elif name == "hypothesis":
        (p,) = premises
        if not isinstance(p, Falsum) and goal != p:
            fail("conclusion neither restates the premise nor follows from False")

    elif name == "kerneleval":
        lhs, rhs, wanted = comparison(goal)
        if any(isinstance(t, str) for t in lhs + rhs):
            fail("kernel evaluation needs a variable-free judgment")
        if isinstance(goal, Falsum):
            fail("kernel evaluation cannot produce False")
        if compare_multisets(lhs, rhs) is not wanted:
            fail("kernel refutes this judgment")

    elif name == "cases":
        _check_cases(step, context, fail)

    else:  # pragma: no cover - Rule is a closed enumeration
        fail(f"unhandled rule {name}")

    # Each of these rules refutes its premises.
    if name in ("ltirrefl", "ltasym", "eqltclash") and not isinstance(goal, Falsum):
        fail("conclusion must be False")


def _check_cases(step: Step, context: Context, fail) -> None:
    if step.case_pair is None:
        fail("cases needs the pair of expressions being compared")
    if len(step.branches) != 3:
        fail("cases needs exactly three branches")
    m, n = step.case_pair
    stray = context.undeclared(Eq(m, n))
    if stray is not None:
        fail(f"undeclared variable {stray!r}")
    for idx, (branch, hyp) in enumerate(zip(step.branches, case_hypotheses(m, n)), start=1):
        if not branch:
            fail(f"branch {idx} is empty")
        child = Context(parent=context)
        child.bind("case", hyp)
        for sub in branch:
            check_step(sub, child)
            child.bind(sub.label, sub.judgment)
        if branch[-1].judgment != step.judgment:
            fail(f"branch {idx} concludes {format_judgment(branch[-1].judgment)}, not the goal")


def check_derivation(derivation: Derivation) -> None:
    """Check every step in order; raises StepError at the first failure."""
    ctx = Context(declared=frozenset(derivation.variables))
    for h in derivation.hypotheses:
        if ctx.lookup(h.label) is not None:
            raise StepError(h.label, "duplicate label")
        stray = ctx.undeclared(h.judgment)
        if stray is not None:
            raise StepError(h.label, f"undeclared variable {stray!r}")
        ctx.bind(h.label, h.judgment)
    for s in derivation.steps:
        check_step(s, ctx)
        ctx.bind(s.label, s.judgment)
