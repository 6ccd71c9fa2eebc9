"""Model side: proof variables valued as concrete angles.

A judgment, a comparison of two groups of angles, becomes true or false once
every variable denotes an angle.  It is evaluated directly: a variable term
is looked up and a literal term gives its own angle, with no substituted
expression built.  The checker's rules are exercised against this model by
drawing randomized valuations that satisfy a derivation's hypotheses and
asserting every step's judgment; a failure is a counterexample to the rule
set, not an exception.

Valuations are generated by construction rather than by filtering: a
:class:`SamplingPlan`, built once per hypothesis set, solves each equality
it can for a variable occurring once, as the other side's total minus the
rest of its own side, and substitutes that into the comparisons left.  The
other variables are drawn.  A comparison without names, or with an empty
side, is decided when the plan is built; a candidate is checked only
against the rest.

The plan is compiled, when it is built, into a slot program that runs every
candidate on plain integers: one list of ``(x, y)`` pairs, a slot per
variable and then one per literal, with actions and open checks that read
slot indices.  A sum is a running product of Gaussian integers with a count
of straight angles, and a solved value is reduced by one gcd at the end; an
open check between two one-term sides is one cross product.  ``AngleLit``
values are built only for the candidate that is accepted.

A derivation's steps are compiled once per model check.  The measure is
additive, so every judgment compares the same way once the terms common to
both sides are cancelled; each distinct cancelled side and each distinct
comparison is interned in a table.  Under one valuation every side is
totalled at most once, and only when a test that is reached needs it, as an
integer triple ``(straights, x, y)``: straight angles plus the primitive
vector of one angle below pi.  Two totals are ordered by the kernel's rule
with no ``AngleSum`` built.
"""

from __future__ import annotations

import random
from dataclasses import dataclass
from math import gcd
from typing import Callable, Dict, Iterable, Mapping, Optional, Sequence

from .calculus import (
    Derivation,
    Judgment,
    Rule,
    Step,
    Term,
    case_hypotheses,
    comparison,
    format_judgment,
    judgment_truth,
)
from .kernel import AngleLit, Ordering, _order, _reduced, _total, angle_from_slope_vector

__all__ = [
    "Counterexample",
    "ModelCheckReport",
    "SamplingPlan",
    "Unsatisfied",
    "UnboundVariable",
    "Valuation",
    "eval_judgment",
    "model_check_derivation",
    "random_valuation",
]

Valuation = Dict[str, AngleLit]

DEFAULT_BUDGET = 10_000

# Trials in a row whose budget ran out, with none satisfied before them, after
# which a model-check run gives up as vacuous.
VACUOUS_STREAK = 3


class UnboundVariable(KeyError):
    """A judgment mentions a variable the valuation does not cover."""


class Unsatisfied(Exception):
    """No valuation met the hypotheses.

    ``attempts`` candidates were rejected: the hypothesis set resisted
    sampling, which does not show it unsatisfiable.  0 attempts means the
    hypotheses were proven unsatisfiable when the sampling plan was built.
    """

    def __init__(self, attempts: int):
        super().__init__(f"no satisfying valuation found in {attempts} attempts")
        self.attempts = attempts


def eval_judgment(j: Judgment, valuation: Mapping[str, AngleLit]) -> bool:
    """Truth of a judgment once its variables denote concrete angles.

    Both sides are summed from ``valuation`` by
    :func:`eukleia.calculus.judgment_truth`; no expression is rebuilt.
    Raises UnboundVariable for a variable missing from the valuation.
    """
    try:
        return judgment_truth(j, valuation)
    except KeyError as exc:
        raise UnboundVariable(exc.args[0]) from None


def _check_declared(terms: Iterable[Term], declared: set[str]) -> None:
    """Raises UnboundVariable for the least name in ``terms`` not declared."""
    stray = [t for t in terms if isinstance(t, str) and t not in declared]
    if stray:
        raise UnboundVariable(min(stray))


def _cancel(lhs: Sequence, rhs: Sequence) -> tuple[tuple, tuple]:
    """``lhs`` and ``rhs`` with each term of ``lhs`` cancelled against one
    equal term of ``rhs``, if any is left; the kept terms stay in order."""
    kept, rest = [], list(rhs)
    for t in lhs:
        if t in rest:
            rest.remove(t)
        else:
            kept.append(t)
    return tuple(kept), tuple(rest)


def _triples(terms: Iterable[Term]) -> tuple:
    """The terms with names kept and literals as ``(0, x, y)`` triples."""
    return tuple(t if isinstance(t, str) else (0, t.x, t.y) for t in terms)


def _side_total(terms: Sequence, valuation: Mapping[str, AngleLit]) -> tuple[int, int, int]:
    """The ``(straights, x, y)`` total of a side from :func:`_triples`, its
    names valued by ``valuation``; a list is built only for two or more terms."""
    if len(terms) == 1:
        t = terms[0]
        if isinstance(t, str):
            angle = valuation[t]
            return (0, angle.x, angle.y)
        return t
    level = []  # a loop, which is cheaper than a comprehension for a few terms
    for t in terms:
        if isinstance(t, str):
            angle = valuation[t]
            t = (0, angle.x, angle.y)
        level.append(t)
    return _total(level)


class _Comparisons:
    """Judgments interned as comparisons of cancelled sides, evaluated on
    ``(straights, x, y)`` totals.

    A judgment comparing ``A`` with ``B`` (:func:`eukleia.calculus.comparison`)
    compares ``A - B`` with ``B - A`` (multiset differences): the common
    terms add the same measure to both sides.  ``sides`` holds each distinct
    cancelled side once, its names kept and its literals as ``(0, x, y)``
    triples, and ``tests`` each distinct ``(wanted order, lhs, rhs)`` once.
    A side without names is totalled here, once: an empty side is
    ``(0, 1, 0)``.  Raises UnboundVariable for an undeclared variable.
    """

    def __init__(self, declared: Iterable[str]):
        self._declared = set(declared)
        self._side_index: dict[tuple, int] = {}
        # Keyed on the wanted order's value: Ordering's __hash__ is a Python function.
        self._test_index: dict[tuple[int, int, str], int] = {}
        self.sides: list[tuple] = []
        self.tests: list[tuple[Ordering, int, int]] = []
        self._fixed: list = []  # the total of each side without names, None for the others

    def intern(self, j: Judgment) -> int:
        """The index of ``j``'s comparison in ``tests``."""
        lhs, rhs, wanted = comparison(j)
        _check_declared(lhs + rhs, self._declared)
        lhs, rhs = _cancel(lhs, rhs)
        lhs, rhs = self._side(lhs), self._side(rhs)
        key = (lhs, rhs, wanted._value_)
        if key not in self._test_index:
            self._test_index[key] = len(self.tests)
            self.tests.append((wanted, lhs, rhs))
        return self._test_index[key]

    def _side(self, terms: Sequence[Term]) -> int:
        # The side in MultisetExpr's order: the names sorted, then the
        # literals, as (0, x, y) triples, by their coordinates.
        names = [t for t in terms if isinstance(t, str)]
        key = (*sorted(names), *sorted([(0, t.x, t.y) for t in terms if not isinstance(t, str)]))
        if key not in self._side_index:
            self._side_index[key] = len(self.sides)
            self.sides.append(key)
            self._fixed.append(_total(list(key)) if not names else None)
        return self._side_index[key]

    def evaluator(self, valuation: Mapping[str, AngleLit]) -> Callable[[int], bool]:
        """``holds(test)``: whether a test holds under ``valuation``.  Under
        one evaluator each side is totalled, and each test decided, at most
        once, and only when asked for."""
        sides, tests = self.sides, self.tests
        totals = self._fixed.copy()
        truth: list = [None] * len(tests)

        def total(i: int) -> tuple[int, int, int]:
            t = totals[i]
            if t is None:
                t = totals[i] = _side_total(sides[i], valuation)
            return t

        def holds(test: int) -> bool:
            verdict = truth[test]
            if verdict is None:
                wanted, lhs, rhs = tests[test]
                verdict = truth[test] = _order(total(lhs), total(rhs)) is wanted
            return verdict

        return holds


# ---------------------------------------------------------------------------
# Randomized valuations

_COORD_RANGE = 20
_SPAN = 2 * _COORD_RANGE + 1  # coordinates per axis
_BITS = _SPAN.bit_length()
# _ANGLES[x][y - 1] is the canonical angle of the vector (x - 20, y); building
# the 41 x 20 table once costs about half a millisecond.
_ANGLES = tuple(tuple(angle_from_slope_vector(x - _COORD_RANGE, y) for y in range(1, _COORD_RANGE + 1))
                for x in range(_SPAN))


def _random_angle(rng: random.Random) -> AngleLit:
    # Coordinates uniform in [-20, 20], rejecting the closed lower half-plane;
    # canonicalization folds non-reduced duplicates.  The draws are those of
    # rng.randint(-20, 20) for x and then y: randint takes _BITS random bits
    # until they fall below _SPAN (random.Random._randbelow), so the stream,
    # and every valuation drawn from a seed, stays the same.
    getrandbits = rng.getrandbits
    while True:
        x = getrandbits(_BITS)
        while x >= _SPAN:
            x = getrandbits(_BITS)
        y = getrandbits(_BITS)
        while y >= _SPAN:
            y = getrandbits(_BITS)
        if y > _COORD_RANGE:
            return _ANGLES[x][y - _COORD_RANGE - 1]


def _unknown(lhs: tuple, rhs: tuple, written: tuple[tuple, tuple], names: Sequence[str]
             ) -> Optional[tuple[int, str, tuple, tuple]]:
    """What the cancelled equality ``lhs = rhs`` is solved for, as
    ``(preference, variable, terms summed, terms subtracted)``, or None.

    It is a variable that occurs once, ranked by the equality as ``written``
    (cancelled, with nothing substituted).  A lone variable side comes first,
    ranked 0 when the other side has no names, 1 when it has several terms
    and 2 when it has one; of two, the later in ``names`` is set to the
    earlier.  Otherwise (3) it is the last variable written once, and after
    those the last that substitution brought in.
    """
    terms, spelled = lhs + rhs, written[0] + written[1]
    once = [k for k, t in enumerate(terms) if isinstance(t, str) and terms.count(t) == 1]
    if not once:
        return None
    lone = {side[0]: other for side, other in (written, written[::-1]) if len(side) == 1}

    def rank(k: int) -> tuple:  # the least is solved for
        t = terms[k]
        if t in lone:
            named = any(isinstance(u, str) for u in lone[t])
            return (1 if len(lone[t]) > 1 else 2) if named else 0, -names.index(t)
        return 3, -spelled.index(t) if spelled.count(t) == 1 else 1, -k

    (preference, *_), k = min((rank(k), k) for k in once)
    own, other, k = (lhs, rhs, k) if k < len(lhs) else (rhs, lhs, k - len(lhs))
    return preference, own[k], other, own[:k] + own[k + 1:]


def _substituted(lhs: tuple, rhs: tuple, target: str, summed: tuple, subtracted: tuple) -> tuple[tuple, tuple]:
    """``lhs`` and ``rhs`` with each ``target`` replaced by ``summed`` and
    ``subtracted`` added to the other side, which keeps the order of their
    totals, and cancelled again."""
    m, n = lhs.count(target), rhs.count(target)
    return _cancel(tuple(t for t in lhs if t != target) + summed * m + subtracted * n,
                   tuple(t for t in rhs if t != target) + summed * n + subtracted * m)


def _decided(lhs: tuple, rhs: tuple, wanted: Ordering) -> Optional[bool]:
    """The truth of the cancelled comparison of ``lhs`` with ``rhs`` under
    every valuation, or None when it depends on the valuation.  Without
    names the literals decide.  Every angle is positive, so a side with
    names totals above an empty side: of the comparisons with an empty
    side, only Lt {} X holds."""
    if not any(isinstance(t, str) for t in lhs + rhs):
        return _order(_side_total(lhs, {}), _side_total(rhs, {})) is wanted
    if lhs and rhs:
        return None
    return wanted is Ordering.LESS and not lhs


def _apply(actions: Iterable[tuple[str, tuple, tuple]], values: dict) -> bool:
    """Set each action's target to the total of its summed terms minus the
    total of its subtracted ones; False, at the first that is not an angle
    in (0, pi).  The remainders' difference is their product with the
    conjugate, in (-pi, pi); below zero it borrows one straight angle."""
    for target, summed, subtracted in actions:
        straights, x, y = _side_total(summed, values)
        if subtracted:
            s, x2, y2 = _side_total(subtracted, values)
            straights, x, y = straights - s, x * x2 + y * y2, y * x2 - x * y2
            if y < 0:
                straights, x, y = straights - 1, -x, -y
        if straights or y <= 0:
            return False
        # Only a difference needs reducing: a total's remainder is primitive.
        values[target] = angle_from_slope_vector(x, y) if subtracted else _reduced(x, y)
    return True


def _act(action: tuple, values: list) -> bool:
    """Run one action of a :class:`SamplingPlan`'s slot program on a
    candidate's ``(x, y)`` pairs: set slot ``target`` to the sum of slots
    ``head`` and ``tail`` minus the sum of slots ``subtracted``.  False, at
    once, when that cannot be an angle: a sum with nothing subtracted that
    reaches pi, or a difference that drops below zero.  The sum is a running
    product of Gaussian integers with a count of straight angles, reduced
    by one gcd at the end: its sign tests do not change under positive
    scaling."""
    target, head, tail, subtracted = action
    x, y = values[head]
    straights = 0
    for k in tail:
        u, v = values[k]
        x, y = x * u - y * v, x * v + y * u
        if y <= 0:  # at pi or past it: a remainder plus an angle never turns to 0
            if not subtracted:
                return False
            straights, x, y = straights + 1, -x, -y
    for k in subtracted:
        u, v = values[k]
        x, y = x * u + y * v, y * u - x * v  # the product with the conjugate
        if y < 0:  # below zero: borrow a straight angle
            if not straights:
                return False
            straights, x, y = straights - 1, -x, -y
    if straights or y <= 0:
        return False
    g = gcd(x, y)
    values[target] = (x // g, y // g) if g != 1 else (x, y)
    return True


class SamplingPlan:
    """How to construct valuations of ``variables`` that satisfy ``hypotheses``.

    Built once per hypothesis set, by elimination over each hypothesis's
    comparison (:func:`eukleia.calculus.comparison`) with its common terms
    cancelled.  Equalities are solved in hypothesis order, in passes of
    preference (see :func:`_unknown`): a lone variable side equal to
    literals only (a pin), then to several terms, then to one term, and then
    any variable that occurs once.  A solved variable is set to the other
    side's total minus the rest of its own side, and that is substituted
    into every comparison not yet solved, which is cancelled again.  Values
    are set in the reverse order of solving, each after its inputs, and a
    candidate is rejected unless each is an angle, in (0, pi).  The
    variables never solved are drawn, one draw each in the order of
    ``variables``.

    Values no draw affects are ``fixed`` when the plan is built.  So is the
    truth of a comparison as soon as it has no names or an empty side
    (:func:`_decided`), before a later substitution can fill that side; such
    an equality is never solved.  ``refuted`` is the first hypothesis found
    false, and a refuted plan draws nothing.  The rest, in ``checks``, must
    each hold, with the truth :func:`eval_judgment` gives, before a
    candidate is returned.  Candidates are built and tested on the plan's
    slot program (see :meth:`_compile`).
    """

    def __init__(self, variables: Iterable[str], hypotheses: Sequence[Judgment]):
        self.variables = names = tuple(dict.fromkeys(variables))
        self.hypotheses = tuple(hypotheses)
        declared = set(names)
        # Each hypothesis's cancelled comparison as written, and each one
        # neither solved for a variable nor decided, with every solved
        # variable substituted.
        written = []
        for lhs, rhs, wanted in map(comparison, self.hypotheses):
            _check_declared(lhs + rhs, declared)
            written.append((*_cancel(_triples(lhs), _triples(rhs)), wanted))
        unsolved: dict[int, tuple] = {}
        refuted: list[int] = []

        def settle(i: int, form: tuple) -> None:
            truth = _decided(*form)
            if truth is None:
                unsolved[i] = form
            else:
                unsolved.pop(i, None)
                if not truth:
                    refuted.append(i)

        for i, form in enumerate(written):
            settle(i, form)
        solved = {}  # target: (hypothesis index, terms summed, terms subtracted), in order of solving
        for preference in range(4):
            for i in range(len(written)):
                form = unsolved.get(i)
                if form is None:
                    continue
                lhs, rhs, wanted = form
                found = _unknown(lhs, rhs, written[i][:2], names) if wanted is Ordering.EQUAL else None
                if found is not None and found[0] <= preference:
                    _, target, summed, subtracted = found
                    solved[target] = (i, summed, subtracted)
                    del unsolved[i]
                    for k, (lhs, rhs, wanted) in list(unsolved.items()):
                        settle(k, (*_substituted(lhs, rhs, target, summed, subtracted), wanted))

        # A target's inputs are drawn or solved after it; a target whose
        # inputs are all fixed is fixed too.
        fixed: dict[str, AngleLit] = {}
        actions = []
        for target, (i, summed, subtracted) in reversed(solved.items()):
            if any(isinstance(t, str) and t not in fixed for t in summed + subtracted):
                actions.append((target, summed, subtracted))
            elif not _apply([(target, summed, subtracted)], fixed):
                refuted.append(i)
        self.draws = tuple(n for n in names if n not in solved)
        self.actions = tuple(actions)
        self.fixed = fixed
        self.refuted = self.hypotheses[min(refuted)] if refuted else None
        # The rest are checked, on their sides as written; neither is empty.
        self.checks = tuple(self.hypotheses[i] for i in unsolved)
        self._compile([written[i] for i in unsolved])
        self._rng = random.Random(0)  # re-seeded by every sample

    def _compile(self, checks: Sequence[tuple]) -> None:
        """The slot program: a candidate's values are one list of ``(x, y)``
        pairs, a slot per variable in the order of ``variables`` and then
        one per literal read.  ``start`` holds the fixed values and the
        literals; every other slot a candidate reads, it has written first,
        so one list serves all candidates.  An action that copies one term
        is resolved here, its target reading its source's slot.  An open
        ``Lt`` between two one-term sides is one cross product."""
        slot = {n: k for k, n in enumerate(self.variables)}
        start = [(a.x, a.y) if (a := self.fixed.get(n)) is not None else None for n in self.variables]

        def read(terms: tuple) -> tuple:
            for t in terms:
                if t not in slot:  # a literal, (0, x, y)
                    slot[t] = len(start)
                    start.append(t[1:])
            return tuple(slot[t] for t in terms)

        actions = []
        for target, summed, subtracted in self.actions:
            head, *tail = read(summed)
            if tail or subtracted:
                actions.append((slot[target], head, tuple(tail), read(subtracted)))
            else:
                slot[target] = head
        lts, others = [], []
        for lhs, rhs, wanted in checks:
            if len(lhs) == len(rhs) == 1 and wanted is Ordering.LESS:
                lts.append((*read(lhs), *read(rhs)))
            else:
                others.append((read(lhs), read(rhs), wanted))
        self._program = (start, tuple(slot[n] for n in self.draws), tuple(actions), tuple(lts), tuple(others))
        self._drawn = tuple((n, slot[n]) for n in self.draws)
        self._solved = tuple((target, slot[target]) for target, _, _ in self.actions)
        self._start = {n: self.fixed.get(n) for n in self.variables}  # a valuation's keys in the order of the variables

    def sample(self, seed: int = 0, *, budget: int = DEFAULT_BUDGET) -> Valuation:
        """Propose up to ``budget`` candidates, at least one; return the first
        satisfying one."""
        if budget < 1:
            raise ValueError(f"a sampling budget must be at least 1, not {budget}")
        if self.refuted is not None:
            raise Unsatisfied(0)
        rng = self._rng
        rng.seed(seed)
        start, drawn, actions, lts, checks = self._program
        values = start.copy()
        for _ in range(budget):
            for k in drawn:
                angle = _random_angle(rng)
                values[k] = (angle.x, angle.y)
            for action in actions:
                if not _act(action, values):
                    break
            else:
                for i, j in lts:
                    (x1, y1), (x2, y2) = values[i], values[j]
                    if x1 * y2 <= y1 * x2:  # the cross product: i's angle is not below j's
                        break
                else:
                    for lhs, rhs, wanted in checks:
                        if _order(_total([(0, *values[k]) for k in lhs]),
                                  _total([(0, *values[k]) for k in rhs])) is not wanted:
                            break
                    else:
                        return self._valuation(values)
        raise Unsatisfied(budget)

    def _valuation(self, values: list) -> Valuation:
        """The accepted candidate: a drawn angle is the table's, a solved one built."""
        valuation = self._start.copy()
        for name, k in self._drawn:
            x, y = values[k]
            valuation[name] = _ANGLES[x + _COORD_RANGE][y - 1]
        for name, k in self._solved:
            valuation[name] = _reduced(*values[k])
        return valuation


def random_valuation(
    variables: Iterable[str],
    hypotheses: Sequence[Judgment],
    seed: int = 0,
    *,
    budget: int = DEFAULT_BUDGET,
    plan: Optional[SamplingPlan] = None,
) -> Valuation:
    """Draw a valuation of ``variables`` satisfying every hypothesis.

    Deterministic for a fixed seed.  Candidates are constructed by a
    :class:`SamplingPlan`: each equality (a Split, Congr or Eq) solved for
    one variable sets it to the other side's total minus the rest of its own
    side, with the variables solved before it substituted, which composes
    split wholes, splits parts off known wholes and pins or aliases by
    Congr; the remaining variables are drawn at random.  A candidate is
    rejected when a solved value is not an angle (a sum at or past pi, a
    difference at or below zero) or when it fails a hypothesis construction
    does not guarantee (an Lt, or an equality no variable was solved from);
    every hypothesis holds for the valuation returned.  Raises Unsatisfied
    once ``budget`` candidates have been rejected, and at once, drawing
    nothing, with ``attempts`` 0, when the plan refuted a hypothesis as it
    was built.  Raises ValueError for a ``budget`` below 1.

    ``plan`` is a plan already built from these variables and hypotheses;
    passing one saves rebuilding it on every call.
    """
    if plan is None:
        plan = SamplingPlan(variables, hypotheses)
    return plan.sample(seed, budget=budget)


# ---------------------------------------------------------------------------
# Model checking derivations

@dataclass(frozen=True)
class Counterexample:
    trial: int
    step: str
    judgment: Judgment
    valuation: Valuation


@dataclass(frozen=True)
class ModelCheckReport:
    """Outcome of model-checking a derivation.

    ``trials`` counts attempts made (the full request, unless a
    counterexample or a vacuous start stopped the run early); ``satisfied``
    counts attempts whose sampled valuation met the hypotheses.
    """

    trials: int
    satisfied: int
    counterexample: Optional[Counterexample]

    @property
    def vacuous(self) -> bool:
        """No valuation met the hypotheses, or none was drawn, so nothing was checked."""
        return self.satisfied == 0

    def to_dict(self) -> dict:
        cx = None
        if self.counterexample is not None:
            cx = {
                "trial": self.counterexample.trial,
                "step": self.counterexample.step,
                "judgment": format_judgment(self.counterexample.judgment),
                "valuation": {k: str(v) for k, v in sorted(self.counterexample.valuation.items())},
            }
        return {"trials": self.trials, "satisfied": self.satisfied, "counterexample": cx}


class _CompiledSteps:
    """A derivation's steps with every judgment interned in one
    :class:`_Comparisons` table.

    ``steps`` mirrors the step tree as ``(step, test, branches)``, with
    ``test`` the index of the step's comparison and ``branches`` a ``(test,
    compiled branch)`` pair per case of a ``cases`` step.  Raises
    UnboundVariable for an undeclared variable in any of them.
    """

    def __init__(self, derivation: Derivation):
        self.table = _Comparisons(derivation.variables)
        self.steps = self._compile(derivation.steps)

    def _compile(self, steps: Sequence[Step]) -> tuple:
        compiled = []
        for step in steps:
            branches = ()
            if step.rule is Rule.CASES and step.case_pair is not None:
                cases = [self.table.intern(h) for h in case_hypotheses(*step.case_pair)]
                branches = tuple(zip(cases, map(self._compile, step.branches)))
            compiled.append((step, self.table.intern(step.judgment), branches))
        return tuple(compiled)

    def first_false(self, valuation: Valuation) -> Optional[Step]:
        """The first step, in proof order, whose judgment fails under
        ``valuation``; a branch is entered only when its case holds."""
        return _walk(self.steps, self.table.evaluator(valuation))


def _walk(steps: tuple, holds: Callable[[int], bool]) -> Optional[Step]:
    # A function, not a closure: a recursive closure made per trial would be
    # a reference cycle, left to the cyclic garbage collector.
    for step, test, branches in steps:
        for case, branch in branches:
            if holds(case):
                bad = _walk(branch, holds)
                if bad is not None:
                    return bad
                break
        if not holds(test):
            return step
    return None


def model_check_derivation(derivation: Derivation, trials: int, seed: int = 0) -> ModelCheckReport:
    """Assert every step's judgment over hypothesis-satisfying valuations.

    Steps inside a Cases branch are checked only when that branch's
    comparison holds under the valuation.  The first counterexample (lowest
    trial index) stops the run, and so do the first ``VACUOUS_STREAK``
    trials when none of them met the hypotheses.  The sampling plan is built
    once for all trials, and so are the compiled steps: judgments with
    their common terms cancelled and their distinct sides interned, so that
    a trial sums each distinct side at most once.  A counterexample still
    names the first false step and its judgment as written.  Identical
    inputs produce identical reports.  Raises UnboundVariable when a
    hypothesis, step or case comparison mentions an undeclared variable.
    """
    hyp_judgments = [h.judgment for h in derivation.hypotheses]
    plan = SamplingPlan(derivation.variables, hyp_judgments)
    compiled = _CompiledSteps(derivation)
    satisfied = 0
    for i in range(trials):
        try:
            valuation = random_valuation(derivation.variables, hyp_judgments, seed=seed * 1_000_003 + i,
                                         plan=plan)
        except Unsatisfied:
            if satisfied == 0 and i + 1 >= VACUOUS_STREAK:
                return ModelCheckReport(trials=i + 1, satisfied=0, counterexample=None)
            continue
        satisfied += 1
        bad = compiled.first_false(valuation)
        if bad is not None:
            return ModelCheckReport(
                trials=i + 1,
                satisfied=satisfied,
                counterexample=Counterexample(i, bad.label, bad.judgment, dict(valuation)),
            )
    return ModelCheckReport(trials=trials, satisfied=satisfied, counterexample=None)
