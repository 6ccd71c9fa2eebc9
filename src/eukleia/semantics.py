"""Model side: proof variables valued as concrete angles.

A judgment, a comparison of two groups of angles, becomes true or false once
every variable denotes an angle.  :func:`eval_judgment` evaluates it
directly: a variable term is looked up and a literal term gives its own
angle, with no substituted expression built.  The checker's rules are
exercised against this model by drawing randomized valuations that satisfy
a derivation's hypotheses and asserting every step's judgment; a failure is
a counterexample to the rule set, not an exception.

The measure is additive, so a judgment compares the same way once the terms
common to both sides are cancelled.  Hypotheses, steps and cases are all
read in one form (:func:`_form`): the comparison cancelled, the rest of
each side as written.

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
open check between two one-term sides is one cross product.  One action
computes every solved value: a value no draw affects is set by it once, as
the plan is compiled, and read back as the plan's fixed values.

A derivation's steps are compiled once per model check, onto the slots of
its plan, and every trial runs from draw to verdict on the accepted
candidate's pairs.  Each distinct cancelled side and each distinct
comparison is interned once.  A side is read as the slots of its names and
the total of its literals, computed once.  The step tree is flattened into
one jump program: a case that fails jumps to the next case, the end of a
branch jumps past the other cases to the ``cases`` step's own judgment, and
a step whose comparison already held on the way there gets no entry.  Under
one candidate every side is totalled at most once, and only when a test
that is reached needs it, as an integer triple ``(straights, x, y)`` whose
remainder is a positive multiple of the primitive vector of one angle below
pi; two totals are ordered by the kernel's rule, which reads only signs.
``AngleLit`` values are built only for a valuation that is returned: a
sample, or a counterexample.
"""

from __future__ import annotations

import random
from dataclasses import dataclass
from math import gcd
from typing import Collection, Dict, Iterable, Mapping, Optional, Sequence

from .calculus import (
    Derivation,
    Eq,
    Judgment,
    Lt,
    Rule,
    Step,
    case_hypotheses,
    comparison,
    format_judgment,
    undeclared,
)
from .kernel import _EQUAL, _LESS, AngleLit, Ordering, _order, _total, compare_multisets

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

    The two sides of its :func:`eukleia.calculus.comparison` are summed and
    ordered exactly by the kernel: a literal term gives its own angle and a
    variable ``valuation[name]``; no expression is rebuilt.  Raises
    UnboundVariable for a variable missing from the valuation.
    """
    lhs, rhs, wanted = comparison(j)
    try:
        lhs = [valuation[t] if isinstance(t, str) else t for t in lhs]
        rhs = [valuation[t] if isinstance(t, str) else t for t in rhs]
    except KeyError as exc:
        raise UnboundVariable(exc.args[0]) from None
    return compare_multisets(lhs, rhs) is wanted


def _cancel(lhs: Sequence, rhs: Sequence) -> tuple[tuple, tuple]:
    """``lhs`` and ``rhs`` with each term of ``lhs`` cancelled against one
    equal term of ``rhs``, if any is left; the kept terms stay in order.  A
    term written ``m`` times in ``lhs`` and ``n`` times in ``rhs`` loses its
    first ``min(m, n)`` from each side, found by counting, not by a search
    per term."""
    left: dict = {}  # each term of rhs, by how many of it are not cancelled
    for t in rhs:
        left[t] = left.get(t, 0) + 1
    kept = []
    for t in lhs:
        n = left.get(t)
        if n:
            left[t] = n - 1
        else:
            kept.append(t)
    rest = []  # the last ones of each term of rhs are kept, so it is read backwards
    for t in reversed(rhs):
        n = left[t]
        if n:
            left[t] = n - 1
            rest.append(t)
    rest.reverse()
    return tuple(kept), tuple(rest)


def _side_sum(side: tuple, values: list) -> tuple[int, int, int]:
    """The ``(straights, x, y)`` total of a side from :func:`_compiled_side`
    on a candidate's ``(x, y)`` pairs: the total of its literals, taken when
    it was compiled, times the pair in each of its slots.  A running product
    of Gaussian integers with a count of straight angles and no gcd, so the
    remainder is a positive multiple of the primitive one: :func:`_order`
    reads only the signs of the counts and of a cross product, which
    positive scaling does not change."""
    literals, slots = side
    if literals is None:  # no literals: the product starts at the first slot's pair
        straights, (x, y), slots = 0, values[slots[0]], slots[1:]
    else:
        straights, x, y = literals
    for k in slots:
        u, v = values[k]
        x, y = x * u - y * v, x * v + y * u
        if y <= 0:  # at pi or past it: a remainder in [0, pi) plus an angle never turns to 0
            straights, x, y = straights + 1, -x, -y
    return straights, x, y


def _compiled_side(terms: Sequence, slot: Mapping[str, int]) -> tuple:
    """A side of names and ``(0, x, y)`` literal triples as :func:`_side_sum`
    reads it: ``(literals, slots)``, the literals' total, None for a side
    with names and no literals, and the slots of the names."""
    literals = [t for t in terms if not isinstance(t, str)]
    slots = tuple(slot[t] for t in terms if isinstance(t, str))
    return _total(literals) if literals or not slots else None, slots


def _form(j: Judgment, declared: Collection[str]) -> tuple[tuple, tuple, Ordering]:
    """``j``'s comparison (:func:`eukleia.calculus.comparison`) with each
    term common to both sides dropped once from each, the rest as written:
    names, and literals as ``(0, x, y)`` triples.  Raises UnboundVariable
    for the name :func:`eukleia.calculus.undeclared` finds, before anything
    is cancelled.  A Split's or Congr's terms, two at most a side, stay in
    the order written.  The sides of an Eq or Lt are in MultisetExpr's
    order, the names sorted and then the literals by their coordinates, so
    they are cancelled by one merge."""
    stray = undeclared(j, declared)
    if stray is not None:
        raise UnboundVariable(stray)
    lhs, rhs, wanted = comparison(j)
    lhs = [t if isinstance(t, str) else (0, t.x, t.y) for t in lhs]
    rhs = [t if isinstance(t, str) else (0, t.x, t.y) for t in rhs]
    if not isinstance(j, (Eq, Lt)):
        return (*_cancel(lhs, rhs), wanted)
    kept_l, kept_r = [], []
    i = k = 0
    n, m = len(lhs), len(rhs)
    while i < n and k < m:
        s, t = lhs[i], rhs[k]
        if s == t:
            i += 1
            k += 1
        elif s < t if s.__class__ is t.__class__ else s.__class__ is str:  # a name before a literal
            kept_l.append(s)
            i += 1
        else:
            kept_r.append(t)
            k += 1
    return (*kept_l, *lhs[i:]), (*kept_r, *rhs[k:]), wanted


# ---------------------------------------------------------------------------
# Randomized valuations

_COORD_RANGE = 20
_SPAN = 2 * _COORD_RANGE + 1  # coordinates per axis
_BITS = _SPAN.bit_length()
# _PAIRS[x][y - 1] is the reduced pair of the vector (x - 20, y), as a slot
# holds it.
_PAIRS = tuple(tuple((x // gcd(x, y), y // gcd(x, y)) for y in range(1, _COORD_RANGE + 1))
               for x in range(-_COORD_RANGE, _COORD_RANGE + 1))


def _random_pair(rng: random.Random) -> tuple[int, int]:
    # The reduced pair of a canonical angle: coordinates uniform in
    # [-20, 20], rejecting the closed lower half-plane; canonicalization
    # folds non-reduced duplicates.  The draws are those of
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
            return _PAIRS[x][y - _COORD_RANGE - 1]


def _ranks(lhs: tuple, rhs: tuple, position: Mapping[str, int]) -> dict[str, tuple]:
    """How :func:`_unknown` ranks each name of the cancelled equality ``lhs =
    rhs``, as written with nothing substituted; the least is solved for.  A
    lone variable side comes first, ranked 0 when the other side has no
    names, 1 when it has several terms and 2 when it has one; of two, the
    later in ``position`` is set to the earlier.  Then (3) the last variable
    written once, and after those (3, 1) the rest."""
    ranks = {}
    for k, t in enumerate(lhs + rhs):
        if isinstance(t, str):
            ranks[t] = (3, 1) if t in ranks else (3, -k)
    for side, other in ((lhs, rhs), (rhs, lhs)):
        if len(side) == 1 and isinstance(side[0], str):
            named = any(isinstance(u, str) for u in other)
            ranks[side[0]] = (1 if len(other) > 1 else 2) if named else 0, -position[side[0]]
    return ranks


def _unknown(lhs: tuple, rhs: tuple, ranks: Mapping[str, tuple]) -> Optional[tuple[int, str, tuple, tuple]]:
    """What the cancelled equality ``lhs = rhs`` is solved for, as
    ``(preference, variable, terms summed, terms subtracted)``, or None.

    It is the variable that occurs once with the least rank in ``ranks``
    (see :func:`_ranks`), a name substitution brought in ranking (3, 1); of
    equal ranks, the later term.
    """
    terms = lhs + rhs
    once = [k for k, t in enumerate(terms) if isinstance(t, str) and terms.count(t) == 1]
    if not once:
        return None
    rank, k = min((ranks.get(terms[k], (3, 1)) + (-k,), k) for k in once)
    own, other, k = (lhs, rhs, k) if k < len(lhs) else (rhs, lhs, k - len(lhs))
    return rank[0], own[k], other, own[:k] + own[k + 1:]


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
        return _order(_total(list(lhs)), _total(list(rhs))) is wanted
    if lhs and rhs:
        return None
    return wanted is _LESS and not lhs


def _act(action: tuple, values: list) -> bool:
    """Run one action of a :class:`SamplingPlan`'s slot program on a
    candidate's ``(x, y)`` pairs, or, for a value no draw affects, once on
    the plan's ``start`` list: set slot ``target`` to the sum of slots
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

    Values no draw affects are ``fixed`` when the plan is built, by the
    action that sets the others on every candidate.  So is the truth of a
    comparison as soon as it has no names or an empty side
    (:func:`_decided`), before a later substitution can fill that side; such
    an equality is never solved.  ``refuted`` is the first hypothesis found
    false, and a refuted plan draws nothing.  The rest, in ``checks``, must
    each hold, with the truth :func:`eval_judgment` gives, before a
    candidate is returned.  Candidates are built and tested on the plan's
    slot program (see :meth:`_compile`).  Valuations are drawn by
    :meth:`sample`.
    """

    def __init__(self, variables: Iterable[str], hypotheses: Sequence[Judgment]):
        self.variables = names = tuple(dict.fromkeys(variables))
        self.hypotheses = tuple(hypotheses)
        # Each hypothesis's cancelled comparison as written, with the ranks
        # of an equality's names, and each one neither solved for a variable
        # nor decided, with every solved variable substituted.
        position = {n: k for k, n in enumerate(names)}
        written = [_form(h, position) for h in self.hypotheses]
        ranks = [_ranks(lhs, rhs, position) if wanted is _EQUAL else None
                 for lhs, rhs, wanted in written]
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
                found = _unknown(lhs, rhs, ranks[i]) if wanted is _EQUAL else None
                if found is not None and found[0] <= preference:
                    _, target, summed, subtracted = found
                    solved[target] = (i, summed, subtracted)
                    del unsolved[i]
                    for k, (lhs, rhs, wanted) in list(unsolved.items()):
                        settle(k, (*_substituted(lhs, rhs, target, summed, subtracted), wanted))

        self.draws = tuple(n for n in names if n not in solved)
        self._compile(solved, [written[i] for i in unsolved], refuted)
        self.refuted = self.hypotheses[min(refuted)] if refuted else None
        # The rest are checked, on their sides as written; neither is empty.
        self.checks = tuple(self.hypotheses[i] for i in unsolved)
        self._rng = random.Random.__new__(random.Random)  # unseeded: Random() would read the system's entropy

    def _compile(self, solved: Mapping[str, tuple], checks: Sequence[tuple], refuted: list) -> None:
        """The slot program: a candidate's values are one list of ``(x, y)``
        pairs, a slot per variable in the order of ``variables`` and then
        one per literal.  ``solved`` maps each target, in the order of
        solving, to its ``(hypothesis index, terms summed, terms
        subtracted)``; targets are set in the reverse order, each after its
        inputs.  A target whose inputs are all literals or fixed is fixed:
        its action runs once, here, by :func:`_act` on ``start``, and when
        that gives no angle its hypothesis index goes on ``refuted``.
        ``fixed`` is read back from those slots, and ``actions`` keeps the
        rest.  Of those, an action that copies one term is resolved here,
        its target reading its source's slot; ``_slots`` is the slot each
        variable is read from.  ``start`` holds the literals and the fixed
        values; every other slot a candidate reads, it has written first, so
        one list serves all candidates.  An open ``Lt`` between two one-term
        sides is one cross product, any other open check orders two sides
        compiled for :func:`_side_sum`."""
        slot = {n: k for k, n in enumerate(self.variables)}
        start: list = [None] * len(slot)
        constant = set()  # the slots that hold the same pair in every candidate

        def read(terms: tuple) -> tuple:
            for t in terms:
                if t not in slot:  # a literal, (0, x, y)
                    constant.add(len(start))
                    slot[t] = len(start)
                    start.append(t[1:])
            return tuple(slot[t] for t in terms)

        actions, kept = [], []
        for target, (i, summed, subtracted) in reversed(solved.items()):
            (head, *tail), minus = read(summed), read(subtracted)
            if not constant.issuperset((head, *tail, *minus)):
                kept.append((target, summed, subtracted))
                if tail or minus:
                    actions.append((slot[target], head, tuple(tail), minus))
                else:  # a copy: the target reads its source's slot
                    slot[target] = head
            elif _act((slot[target], head, tail, minus), start):  # no draw affects it: set once, here
                constant.add(slot[target])
            else:
                refuted.append(i)
        self.actions = tuple(kept)
        self.fixed = {n: AngleLit(*start[slot[n]]) for n in self.variables if slot[n] in constant}
        lts, others = [], []
        for lhs, rhs, wanted in checks:
            if len(lhs) == len(rhs) == 1 and wanted is _LESS:
                lts.append((*read(lhs), *read(rhs)))
            else:
                others.append((_compiled_side(lhs, slot), _compiled_side(rhs, slot), wanted))
        self._program = (start, tuple(slot[n] for n in self.draws), tuple(actions), tuple(lts), tuple(others))
        self._slots = {n: slot[n] for n in self.variables}

    def sample(self, seed: int = 0, *, budget: int = DEFAULT_BUDGET) -> Valuation:
        """Propose up to ``budget`` candidates, at least one; return the first
        satisfying one, the same for the same seed.  Raises Unsatisfied once
        ``budget`` are rejected, at once with ``attempts`` 0 when the plan is
        refuted, and ValueError for a ``budget`` below 1."""
        if budget < 1:
            raise ValueError(f"a sampling budget must be at least 1, not {budget}")
        return self._valuation(self._accepted(seed, budget))

    def _accepted(self, seed: int, budget: int) -> list:
        """The slot list of the first of up to ``budget`` candidates that
        satisfies the hypotheses.  A plan that draws nothing proposes the
        same candidate for every seed, and never seeds the generator."""
        if self.refuted is not None:
            raise Unsatisfied(0)
        rng = self._rng
        start, drawn, actions, lts, checks = self._program
        if drawn:
            rng.seed(seed)
        values = start.copy()
        for _ in range(budget):
            for k in drawn:
                values[k] = _random_pair(rng)
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
                        if _order(_side_sum(lhs, values), _side_sum(rhs, values)) is not wanted:
                            break
                    else:
                        return values
        raise Unsatisfied(budget)

    def _valuation(self, values: list) -> Valuation:
        """An accepted candidate's valuation, in the order of the variables."""
        return {n: AngleLit(*values[k]) for n, k in self._slots.items()}


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
    """A derivation's steps compiled onto the slots of its sampling plan.

    ``plan`` is the :class:`SamplingPlan` of the derivation's hypotheses.
    Every judgment, case comparisons too, is interned as a comparison of
    cancelled sides: a judgment comparing ``A`` with ``B``
    (:func:`eukleia.calculus.comparison`) compares ``A - B`` with ``B - A``
    (multiset differences), since the common terms add the same measure to
    both sides.  ``_side_index`` numbers each distinct cancelled side as
    :func:`_form` writes it, the form the sampling plan solves; a test is
    its own key, ``(wanted order, lhs, rhs)`` with the sides' numbers.  Each
    side is read as the slots of its names and the total of its literals
    (:func:`_side_sum`).  The step tree is flattened into ``program``, one
    ``(wanted, lhs, rhs, then, orelse)`` entry per test: when the sides'
    totals stand in the ``wanted`` order, the walk goes on at entry
    ``then``; otherwise ``orelse`` is the step that failed, or, for a case,
    the entry of the next case (after the last, the ``cases`` step's own
    judgment).  A branch's last entry goes on past the other cases, and a
    step whose test already held on the way gets no entry.  Raises
    UnboundVariable for an undeclared variable in a hypothesis, a step or a
    case.
    """

    def __init__(self, derivation: Derivation):
        self.plan = SamplingPlan(derivation.variables, [h.judgment for h in derivation.hypotheses])
        self._side_index: dict[tuple, int] = {}
        entries: list[list] = []
        self._emit(derivation.steps, entries, set())
        self.program = tuple((*test, then, orelse) for test, then, orelse in entries)
        self.sides = [_compiled_side(side, self.plan._slots) for side in self._side_index]
        # Each side's total where no name needs a slot, None where it does.
        self._fixed = [None if slots else literals for literals, slots in self.sides]

    def _intern(self, j: Judgment) -> tuple[Ordering, int, int]:
        """``j``'s test: the ``(wanted, lhs, rhs)`` key of its cancelled
        comparison (:func:`_form`), each side numbered in ``_side_index``."""
        # The plan's slot map has one key per declared variable, and a dict,
        # unlike the tuple of names, answers each name in one lookup.
        lhs, rhs, wanted = _form(j, self.plan._slots)
        sides = self._side_index
        return wanted, sides.setdefault(lhs, len(sides)), sides.setdefault(rhs, len(sides))

    def _emit(self, steps: Sequence[Step], entries: list, known: set) -> None:
        """Append ``[test, then, orelse]`` entries for ``steps``, each going
        on at the next entry until patched.  ``known``, a set of this call's
        own, holds the tests that hold wherever ``steps`` are reached, a case
        entered or a step passed on the way; a step whose test is known
        cannot fail, and gets no entry."""
        for step in steps:
            if step.rule is Rule.CASES and step.case_pair is not None:
                ends = []  # the last entry of each branch: it goes on at this step's own test
                for case, branch in zip(case_hypotheses(*step.case_pair), step.branches):
                    test = self._intern(case)
                    entry = [test, len(entries) + 1, None]
                    entries.append(entry)
                    self._emit(branch, entries, known | {test})
                    entry[2] = len(entries)  # a case that fails goes on at the next case
                    ends.append(entries[-1])
                for end in ends:
                    end[1] = len(entries)
            test = self._intern(step.judgment)
            if test not in known:
                entries.append([test, len(entries) + 1, step])
                known.add(test)

    def first_false(self, values: list) -> Optional[Step]:
        """The first step, in proof order, whose judgment fails on a
        candidate's slot list ``values``; a branch is entered only when its
        case holds.  Each side is totalled at most once, when first read."""
        program, sides = self.program, self.sides
        totals = self._fixed.copy()
        pc, end = 0, len(program)
        while pc < end:
            wanted, lhs, rhs, then, orelse = program[pc]
            a = totals[lhs]
            if a is None:
                a = totals[lhs] = _side_sum(sides[lhs], values)
            b = totals[rhs]
            if b is None:
                b = totals[rhs] = _side_sum(sides[rhs], values)
            if _order(a, b) is wanted:
                pc = then
            elif isinstance(orelse, int):
                pc = orelse
            else:
                return orelse
        return None


def model_check_derivation(derivation: Derivation, trials: int, seed: int = 0) -> ModelCheckReport:
    """Assert every step's judgment over hypothesis-satisfying valuations.

    Steps inside a Cases branch are checked only when that branch's
    comparison holds under the valuation.  The first counterexample (lowest
    trial index) stops the run, and so do the first ``VACUOUS_STREAK``
    trials when none of them met the hypotheses.  The sampling plan is built
    once for all trials, and so are the compiled steps: judgments with
    their common terms cancelled and their distinct sides interned, read on
    the plan's slots, so that a trial sums each distinct side at most once
    and builds no angle.  Trial ``i`` draws what ``SamplingPlan.sample(seed
    * 1_000_003 + i)`` draws, and a counterexample carries the valuation
    that call returns; it names the first false step and its judgment as
    written.  Identical inputs produce identical reports.  Raises
    UnboundVariable when a hypothesis, step or case comparison mentions an
    undeclared variable, and ValueError for ``trials`` below 0.
    """
    if trials < 0:
        raise ValueError(f"a model check's trial count must be at least 0, not {trials}")
    compiled = _CompiledSteps(derivation)
    plan = compiled.plan
    satisfied = 0
    for i in range(trials):
        try:
            values = plan._accepted(seed * 1_000_003 + i, DEFAULT_BUDGET)
        except Unsatisfied:
            if satisfied == 0 and i + 1 >= VACUOUS_STREAK:
                return ModelCheckReport(trials=i + 1, satisfied=0, counterexample=None)
            continue
        satisfied += 1
        bad = compiled.first_false(values)
        if bad is not None:
            return ModelCheckReport(
                trials=i + 1,
                satisfied=satisfied,
                counterexample=Counterexample(i, bad.label, bad.judgment, plan._valuation(values)),
            )
    return ModelCheckReport(trials=trials, satisfied=satisfied, counterexample=None)
