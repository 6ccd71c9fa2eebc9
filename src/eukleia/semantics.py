"""Model side: proof variables valued as concrete angles.

A judgment, a comparison of two groups of angles, becomes true or false once
every variable denotes an angle.  It is evaluated directly: a variable term
is looked up and a literal term gives its own angle, with no substituted
expression built.  The
checker's rules are exercised against this model by drawing randomized
valuations that satisfy a derivation's hypotheses and asserting every step's
judgment; a failure is a counterexample to the rule set, not an exception.

Valuations are generated by construction rather than by filtering: a
:class:`SamplingPlan`, built once per hypothesis set, draws some variables
and derives the rest.  Splitting is the inverse of ``add_two``, so a split
onto a known whole is satisfied by drawing one part and solving for the
other; Eq hypotheses with a lone variable side are solved by composition.
A candidate is then checked only against the hypotheses construction does
not guarantee (Lt, unsolved and cycle-broken ones) before it is used.

A derivation's steps are compiled once per model check.  The measure is
additive, so every judgment compares the same way once the terms common to
both sides are cancelled; each distinct cancelled side and each distinct
comparison is interned in a table, and the sampler keeps its open checks in
a table of the same kind.  Under one valuation every side is totalled at
most once, and only when a test that is reached needs it, as an integer
triple ``(straights, x, y)``: straight angles plus the primitive vector of
one angle below pi.  Two totals are ordered by the kernel's rule with no
``AngleSum`` built.
"""

from __future__ import annotations

import random
from dataclasses import dataclass
from typing import Callable, Dict, Iterable, Mapping, Optional, Sequence

from .calculus import (
    Congr,
    Derivation,
    Eq,
    Falsum,
    Judgment,
    MultisetExpr,
    Rule,
    Split,
    Step,
    Term,
    case_hypotheses,
    comparison,
    format_judgment,
    judgment_truth,
    judgment_variables,
)
from .kernel import AngleLit, AngleOverflow, Ordering, _order, _total, add_two, angle_from_slope_vector

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
    """The retry budget ran out before the hypotheses held.

    Signals that the hypothesis set resisted sampling, not that it is
    unsatisfiable.
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
        self._side_index: dict[tuple[Term, ...], int] = {}
        self._test_index: dict[tuple[Ordering, int, int], int] = {}
        self.sides: list[tuple] = []
        self.tests: list[tuple[Ordering, int, int]] = []
        self._fixed: list = []  # the total of each side without names, None for the others

    def intern(self, j: Judgment) -> int:
        """The index of ``j``'s comparison in ``tests``."""
        stray = judgment_variables(j) - self._declared
        if stray:
            raise UnboundVariable(sorted(stray)[0])
        lhs, rhs, wanted = comparison(j)
        if not set(lhs).isdisjoint(rhs):  # each term of lhs cancels one equal term of rhs, if any is left
            kept, rhs = [], list(rhs)
            for t in lhs:
                if t in rhs:
                    rhs.remove(t)
                else:
                    kept.append(t)
            lhs = kept
        test = (wanted, self._side(lhs), self._side(rhs))
        if test not in self._test_index:
            self._test_index[test] = len(self.tests)
            self.tests.append(test)
        return self._test_index[test]

    def _side(self, terms: Sequence[Term]) -> int:
        key = MultisetExpr(tuple(terms)).terms
        if key not in self._side_index:
            self._side_index[key] = len(self.sides)
            side = tuple(t if isinstance(t, str) else (0, t.x, t.y) for t in key)
            self.sides.append(side)
            self._fixed.append(None if any(isinstance(t, str) for t in side) else _total(list(side)))
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
                terms = sides[i]
                if len(terms) == 1:
                    angle = valuation[terms[0]]
                    t = (0, angle.x, angle.y)
                else:
                    t = _total([(0, (angle := valuation[n]).x, angle.y) if isinstance(n, str) else n
                                for n in terms])
                totals[i] = t
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


def _split_off(whole: AngleLit, part: AngleLit) -> Optional[AngleLit]:
    """The angle ``c`` with ``add_two(part, c) == whole``, or None if none exists.

    ``whole * conj(part)`` has the difference of the two measures as its
    argument, which is an angle exactly when it lies in (0, pi).
    """
    x = whole.x * part.x + whole.y * part.y
    y = whole.y * part.x - whole.x * part.y
    return angle_from_slope_vector(x, y) if y > 0 else None


_COMPOSE = "compose"  # the target is the sum of the inputs, rejected on overflow
_SOLVE = "solve"  # the target is inputs[0] split off by inputs[1], rejected unless positive


class SamplingPlan:
    """How to construct valuations of ``variables`` that satisfy ``hypotheses``.

    Built once per hypothesis set.  Congr aliases variables (union-find) or
    pins them to a literal.  Each remaining root is either drawn at random or
    derived from values already known, in an order the plan fixes:

    - ``Split W p1 p2`` onto a variable whole composes ``W = p1 + p2``;
    - ``Split W p1 p2`` whose whole is a literal, pinned, or derived by
      another hypothesis solves its undetermined part as ``W`` minus the
      other part (drawn if it has no other source);
    - ``Eq {v} {t1, ..., tk}`` with a lone undetermined variable side
      composes ``v = t1 + ... + tk``.

    Roots on a dependency cycle are drawn instead, leaving their hypothesis
    to the final check.  Congr hypotheses and those whose rule is applied
    hold for every candidate that construction completes; the rest, in
    ``checks`` (Lt hypotheses, anything not solved and the cycle-broken
    ones), are interned in the plan's own comparison table, and each must
    hold there, with the truth :func:`eval_judgment` gives, before a
    candidate is returned.
    """

    def __init__(self, variables: Iterable[str], hypotheses: Sequence[Judgment]):
        names = list(dict.fromkeys(variables))
        self.hypotheses = tuple(hypotheses)
        declared = set(names)
        for h in self.hypotheses:
            stray = judgment_variables(h) - declared
            if stray:
                raise UnboundVariable(sorted(stray)[0])

        parent: dict[str, str] = {n: n for n in names}

        def find(n: str) -> str:
            while parent[n] != n:
                parent[n] = parent[parent[n]]
                n = parent[n]
            return n

        self.impossible = False
        for h in self.hypotheses:
            if isinstance(h, Congr):
                if isinstance(h.a, str) and isinstance(h.b, str):
                    parent[find(h.b)] = find(h.a)
                elif isinstance(h.a, AngleLit) and isinstance(h.b, AngleLit) and h.a != h.b:
                    self.impossible = True
            elif isinstance(h, Falsum):
                self.impossible = True
        pinned: dict[str, AngleLit] = {}
        for h in self.hypotheses:
            if isinstance(h, Congr) and isinstance(h.a, str) != isinstance(h.b, str):
                var, lit = (h.a, h.b) if isinstance(h.a, str) else (h.b, h.a)
                root = find(var)
                if pinned.get(root, lit) != lit:
                    self.impossible = True
                pinned[root] = lit

        # A value's key while sampling: a union-find root for a variable, the
        # angle itself for a literal.
        def key(t: Term) -> Term:
            return find(t) if isinstance(t, str) else t

        # rules[root] = (action, inputs, index of the hypothesis it comes from)
        rules: dict[Term, tuple[str, tuple[Term, ...], int]] = {}
        for i, h in enumerate(self.hypotheses):
            if isinstance(h, Split) and isinstance(h.whole, str):
                whole = key(h.whole)
                if whole not in pinned and whole not in rules:
                    rules[whole] = (_COMPOSE, (key(h.part1), key(h.part2)), i)

        def free(t: Term) -> bool:
            return isinstance(t, str) and key(t) not in pinned and key(t) not in rules

        for i, h in enumerate(self.hypotheses):
            if isinstance(h, Split):
                whole = key(h.whole)
                if whole in rules and rules[whole][2] == i:
                    continue
                if free(h.part2):
                    rules[key(h.part2)] = (_SOLVE, (whole, key(h.part1)), i)
                elif free(h.part1):
                    rules[key(h.part1)] = (_SOLVE, (whole, key(h.part2)), i)
            elif isinstance(h, Eq):
                for lone, other in ((h.lhs, h.rhs), (h.rhs, h.lhs)):
                    if len(lone.terms) == 1 and free(lone.terms[0]) and other.terms:
                        rules[key(lone.terms[0])] = (_COMPOSE, tuple(key(t) for t in other.terms), i)
                        break

        # Order the rules so that every input is known before it is used.
        drawn = {find(n) for n in names} - pinned.keys() - rules.keys()
        known = set(drawn) | pinned.keys()
        pending = list(rules)
        actions = []
        # Hypotheses every constructed candidate satisfies: a Congr (aliases
        # and pins make its sides equal; a conflict is impossible), and the
        # source of each rule that is applied, whose target it computes exactly.
        exact = {i for i, h in enumerate(self.hypotheses) if isinstance(h, Congr)}
        while pending:
            ready = [r for r in pending
                     if all(isinstance(k, AngleLit) or k in known for k in rules[r][1])]
            if not ready:
                # Every unknown input is a pending root; following unknown
                # inputs from any pending root must enter a cycle.
                r, seen = pending[0], set()
                while r not in seen:
                    seen.add(r)
                    r = next(k for k in rules[r][1] if k in rules and k not in known)
                drawn.add(r)
                known.add(r)
                pending.remove(r)
                continue
            for r in ready:
                action, inputs, i = rules[r]
                actions.append((action, r, inputs))
                exact.add(i)
                known.add(r)
            pending = [r for r in pending if r not in known]

        self.roots = tuple((n, find(n)) for n in names)
        # One draw per drawn root, in the order of the variables, so that a
        # seed keeps drawing the same valuations for hypothesis sets whose
        # drawn roots are unchanged.
        self.draws = tuple(r for r in dict.fromkeys(find(n) for n in names) if r in drawn)
        self.actions = tuple(actions)
        literals = {k: k for _, _, inputs in actions for k in inputs if isinstance(k, AngleLit)}
        self.fixed: dict[Term, AngleLit] = {**literals, **pinned}
        self.checks = tuple(h for i, h in enumerate(self.hypotheses) if i not in exact)
        self._table = _Comparisons(names)
        self._tests = tuple(map(self._table.intern, self.checks))

    def sample(self, seed: int = 0, *, budget: int = DEFAULT_BUDGET) -> Valuation:
        """Propose up to ``budget`` candidates; return the first satisfying one."""
        if self.impossible:
            raise Unsatisfied(budget)
        rng = random.Random(seed)
        for _ in range(budget):
            values = dict(self.fixed)
            for root in self.draws:
                values[root] = _random_angle(rng)
            if not self._derive(values):
                continue
            valuation = {n: values[r] for n, r in self.roots}
            if all(map(self._table.evaluator(valuation), self._tests)):
                return valuation
        raise Unsatisfied(budget)

    def _derive(self, values: dict) -> bool:
        for action, target, inputs in self.actions:
            if action is _SOLVE:
                angle = _split_off(values[inputs[0]], values[inputs[1]])
                if angle is None:
                    return False
            else:
                angle = values[inputs[0]]
                try:
                    for k in inputs[1:]:
                        angle = add_two(angle, values[k])
                except AngleOverflow:
                    return False
            values[target] = angle
        return True


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
    :class:`SamplingPlan`: split wholes are composed from their parts, parts
    of splits onto known wholes are solved from the whole, ``Eq`` with a lone
    variable side is solved by composition, and Congr aliases or pins; the
    remaining variables are drawn at random.  A candidate is rejected when
    construction fails (an overflow, a negative remainder) or when it fails a
    hypothesis construction does not guarantee (an Lt, an unsolved or
    cycle-broken one); every hypothesis holds for the valuation returned.
    Raises Unsatisfied once ``budget`` candidates have been rejected.

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
