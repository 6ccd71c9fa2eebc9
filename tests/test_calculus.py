import ast
import collections
import dataclasses
import inspect
import random
import textwrap

import pytest
from hypothesis import given, settings, strategies as st

from eukleia import calculus
from eukleia.calculus import (
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
    check_derivation,
    check_step,
    comparison,
)
from eukleia.dsl import parse_proof
from eukleia.kernel import compare_multisets, right_angle

from conftest import ang, multiset, random_angle

R = right_angle()
a, b, c, d, t = "a", "b", "c", "d", "t"


def ctx(*judgments, declared=("a", "b", "c", "d", "t")):
    context = Context(declared=frozenset(declared))
    for i, j in enumerate(judgments, start=1):
        context.bind(f"H{i}", j)
    return context


def check(step, context):
    check_step(step, context)


def fails(step, context, fragment):
    with pytest.raises(StepError) as err:
        check_step(step, context)
    assert fragment in err.value.reason
    return err.value


class TestMultisetExpr:
    def test_order_never_matters(self):
        assert multiset(a, b, R) == multiset(R, a, b) == multiset(b, R, a)

    def test_multiplicity_matters(self):
        assert multiset(a, a) != multiset(a)
        assert multiset(a, a, b) == multiset(a, b, a)

    def test_rendering_is_canonical(self):
        assert str(multiset(R, b, a, a)) == "{a, a, b, R}"
        assert str(MultisetExpr()) == "{}"
        assert str(multiset(ang(3, 4))) == "{ang(3/4)}"


class TestEqualityRules:
    def test_eqrefl(self):
        check(Step("s", Eq(multiset(a, b), multiset(b, a)), Rule.EQ_REFL), ctx())
        fails(Step("s", Eq(multiset(a), multiset(b)), Rule.EQ_REFL), ctx(), "Eq(M, M)")

    def test_eqsym(self):
        context = ctx(Eq(multiset(a), multiset(b, c)))
        check(Step("s", Eq(multiset(b, c), multiset(a)), Rule.EQ_SYM, ("H1",)), context)
        fails(Step("s", Eq(multiset(a), multiset(b, c)), Rule.EQ_SYM, ("H1",)), context, "mirrored")

    def test_eqtrans_through_shared_middle(self):
        context = ctx(Eq(multiset(a), multiset(b, c)), Eq(multiset(b, c), multiset(d)))
        check(Step("s", Eq(multiset(a), multiset(d)), Rule.EQ_TRANS, ("H1", "H2")), context)

    def test_eqtrans_requires_matching_middle(self):
        context = ctx(Eq(multiset(a), multiset(b, c)), Eq(multiset(d), multiset(b, c)))
        fails(Step("s", Eq(multiset(a), multiset(d)), Rule.EQ_TRANS, ("H1", "H2")), context, "middle")

    def test_adjacent_angles_pattern(self):
        # Eq({a},{b,c}) and Eq({d},{b,c}) combine through an explicit EqSym.
        context = ctx(Eq(multiset(a), multiset(b, c)), Eq(multiset(d), multiset(b, c)))
        check(Step("s1", Eq(multiset(b, c), multiset(d)), Rule.EQ_SYM, ("H2",)), context)
        context.bind("s1", Eq(multiset(b, c), multiset(d)))
        check(Step("s2", Eq(multiset(a), multiset(d)), Rule.EQ_TRANS, ("H1", "s1")), context)


class TestSubstitution:
    def test_subst_right_replaces_upper_bound(self):
        context = ctx(Eq(multiset(a), multiset(b)), Lt(multiset(c), multiset(b)))
        check(Step("s", Lt(multiset(c), multiset(a)), Rule.SUBST_RIGHT, ("H1", "H2")), context)

    def test_subst_left_replaces_lower_bound(self):
        context = ctx(Eq(multiset(a), multiset(b)), Lt(multiset(b), multiset(d)))
        check(Step("s", Lt(multiset(a), multiset(d)), Rule.SUBST_LEFT, ("H1", "H2")), context)

    def test_subst_applies_to_equalities_too(self):
        context = ctx(Eq(multiset(a), multiset(b)), Eq(multiset(b), multiset(c, d)))
        check(Step("s", Eq(multiset(a), multiset(c, d)), Rule.SUBST_LEFT, ("H1", "H2")), context)

    def test_subst_side_must_match(self):
        context = ctx(Eq(multiset(a), multiset(b)), Lt(multiset(c), multiset(d)))
        fails(Step("s", Lt(multiset(c), multiset(a)), Rule.SUBST_RIGHT, ("H1", "H2")), context, "match")
        err = fails(Step("s", Lt(multiset(a), multiset(d)), Rule.SUBST_LEFT, ("H1", "H2")), context, "match")
        assert err.reason == "left side of the comparison does not match the equality"

    # The parser reads these steps; the checker refuses the premises' kinds.
    @pytest.mark.parametrize("rule", [Rule.SUBST_LEFT, Rule.SUBST_RIGHT])
    @pytest.mark.parametrize("premises, reason", [
        ([Lt(multiset(a), multiset(b)), Lt(multiset(b), multiset(c))], "first premise must be an equality"),
        ([Eq(multiset(a), multiset(b)), Split(a, b, c)], "second premise must be a comparison"),
        ([Eq(multiset(a), multiset(b)), Falsum()], "second premise must be a comparison"),
    ])
    def test_premise_kinds(self, rule, premises, reason):
        err = fails(Step("s", Lt(multiset(a), multiset(c)), rule, ("H1", "H2")), ctx(*premises), reason)
        assert err.reason == reason


class TestConclusionKind:
    # A conclusion with the sides the rule produces, but of the other kind.
    @pytest.mark.parametrize("rule, premises, goal, reason", [
        (Rule.EQ_SYM, [Eq(multiset(a), multiset(b))], Lt(multiset(b), multiset(a)),
         "conclusion is not the mirrored premise"),
        (Rule.EQ_TRANS, [Eq(multiset(a), multiset(b)), Eq(multiset(b), multiset(c))], Lt(multiset(a), multiset(c)),
         "conclusion does not chain the premises"),
        (Rule.LT_TRANS, [Lt(multiset(a), multiset(b)), Lt(multiset(b), multiset(c))], Eq(multiset(a), multiset(c)),
         "conclusion does not chain the premises"),
        (Rule.SUBST_LEFT, [Eq(multiset(a), multiset(b)), Lt(multiset(b), multiset(c))], Eq(multiset(a), multiset(c)),
         "conclusion is not the substituted comparison"),
        (Rule.SUBST_RIGHT, [Eq(multiset(a), multiset(b)), Eq(multiset(c), multiset(b))], Lt(multiset(c), multiset(a)),
         "conclusion is not the substituted comparison"),
        (Rule.SPLIT_EQ, [Split(a, b, c)], Lt(multiset(a), multiset(b, c)),
         "conclusion does not equate the whole with its two parts"),
        (Rule.CONGR_EQ, [Congr(a, b)], Lt(multiset(a), multiset(b)),
         "conclusion does not equate the congruent singletons"),
    ])
    def test_other_kind_rejected(self, rule, premises, goal, reason):
        refs = tuple(f"H{i}" for i in range(1, len(premises) + 1))
        err = fails(Step("s", goal, rule, refs), ctx(*premises), reason)
        assert err.reason == reason
        # The same sides with the kind the rule produces are accepted.
        check(Step("s", (Eq if isinstance(goal, Lt) else Lt)(goal.lhs, goal.rhs), rule, refs), ctx(*premises))


class TestOrderRules:
    def test_lttrans(self):
        context = ctx(Lt(multiset(a), multiset(b)), Lt(multiset(b), multiset(c)))
        check(Step("s", Lt(multiset(a), multiset(c)), Rule.LT_TRANS, ("H1", "H2")), context)
        fails(Step("s", Lt(multiset(c), multiset(a)), Rule.LT_TRANS, ("H1", "H2")), context, "chain")

    def test_singleton_pos(self):
        check(Step("s", Lt(MultisetExpr(), multiset(t)), Rule.SINGLETON_POS), ctx())
        check(Step("s", Lt(MultisetExpr(), multiset(R)), Rule.SINGLETON_POS), ctx())
        fails(Step("s", Lt(MultisetExpr(), multiset(t, t)), Rule.SINGLETON_POS), ctx(), "Lt({}, {t})")
        fails(Step("s", Lt(multiset(a), multiset(t)), Rule.SINGLETON_POS), ctx(), "Lt({}, {t})")

    def test_whole_part(self):
        check(Step("s", Lt(multiset(a), multiset(a, b)), Rule.WHOLE_PART), ctx())
        check(Step("s", Lt(MultisetExpr(), multiset(b)), Rule.WHOLE_PART), ctx())
        check(Step("s", Lt(multiset(a, a), multiset(a, a, a)), Rule.WHOLE_PART), ctx())
        fails(Step("s", Lt(multiset(a), multiset(a)), Rule.WHOLE_PART), ctx(), "nonempty")
        fails(Step("s", Lt(multiset(a), multiset(b, b)), Rule.WHOLE_PART), ctx(), "extend")


class TestAddBoth:
    def test_adds_one_term_to_both_sides(self):
        context = ctx(Eq(multiset(a), multiset(b, c)))
        check(Step("s", Eq(multiset(a, t), multiset(b, c, t)), Rule.ADD_BOTH, ("H1",)), context)

    def test_preserves_strictness_kind(self):
        context = ctx(Lt(multiset(a), multiset(b)))
        check(Step("s", Lt(multiset(a, R), multiset(b, R)), Rule.ADD_BOTH, ("H1",)), context)
        fails(Step("s", Eq(multiset(a, R), multiset(b, R)), Rule.ADD_BOTH, ("H1",)), context, "same kind")

    def test_rejects_multi_term_addition(self):
        context = ctx(Eq(multiset(a), multiset(b)))
        fails(Step("s", Eq(multiset(a, t, t), multiset(b, t, t)), Rule.ADD_BOTH, ("H1",)), context, "exactly one")

    def test_rejects_unequal_terms(self):
        context = ctx(Eq(multiset(a), multiset(b)))
        fails(Step("s", Eq(multiset(a, c), multiset(b, d)), Rule.ADD_BOTH, ("H1",)), context, "different")


class TestHypothesisForms:
    def test_split_eq(self):
        context = ctx(Split(a, b, c))
        check(Step("s", Eq(multiset(a), multiset(b, c)), Rule.SPLIT_EQ, ("H1",)), context)
        fails(Step("s", Eq(multiset(b, c), multiset(a)), Rule.SPLIT_EQ, ("H1",)), context, "whole")

    def test_split_eq_with_equal_parts(self):
        context = ctx(Split(a, b, b))
        check(Step("s", Eq(multiset(a), multiset(b, b)), Rule.SPLIT_EQ, ("H1",)), context)

    @pytest.mark.parametrize("split", [Split(a, c, b), Split(a, R, b), Split(R, a, R)], ids=str)
    def test_split_eq_whatever_order_the_parts_are_written_in(self, split):
        goal = Eq(multiset(split.whole), multiset(split.part2, split.part1))
        check(Step("s", goal, Rule.SPLIT_EQ, ("H1",)), ctx(split))
        fails(Step("s", Eq(goal.rhs, goal.lhs), Rule.SPLIT_EQ, ("H1",)), ctx(split), "whole")

    def test_congr_eq(self):
        context = ctx(Congr(a, b))
        check(Step("s", Eq(multiset(a), multiset(b)), Rule.CONGR_EQ, ("H1",)), context)
        fails(Step("s", Eq(multiset(a), multiset(c)), Rule.CONGR_EQ, ("H1",)), context, "congruent")

    @pytest.mark.parametrize("rule, premise, goal, reason", [
        (Rule.SPLIT_EQ, Congr(a, b), Eq(multiset(a), multiset(b)), "premise is not a split"),
        (Rule.SPLIT_EQ, Split(a, b, c), Eq(multiset(a), multiset(b)),
         "conclusion does not equate the whole with its two parts"),
        (Rule.CONGR_EQ, Split(a, b, c), Eq(multiset(a), multiset(b, c)), "premise is not a congruence"),
        (Rule.CONGR_EQ, Congr(a, b), Eq(multiset(b), multiset(a)),
         "conclusion does not equate the congruent singletons"),
    ])
    def test_reasons(self, rule, premise, goal, reason):
        err = fails(Step("s", goal, rule, ("H1",)), ctx(premise), reason)
        assert err.reason == reason

    def test_hypothesis_restates(self):
        context = ctx(Lt(multiset(a), multiset(b)))
        check(Step("s", Lt(multiset(a), multiset(b)), Rule.HYPOTHESIS, ("H1",)), context)
        fails(Step("s", Lt(multiset(b), multiset(a)), Rule.HYPOTHESIS, ("H1",)), context, "restates")

    def test_false_proves_anything(self):
        context = ctx(Falsum())
        check(Step("s", Lt(multiset(a), multiset(a)), Rule.HYPOTHESIS, ("H1",)), context)
        check(Step("s", Eq(multiset(a), multiset(b)), Rule.HYPOTHESIS, ("H1",)), context)


class TestClashRules:
    def test_irreflexivity_cannot_be_asserted(self):
        # Lt({R},{R}) is not producible by any rule from an empty context.
        goal = Lt(multiset(R), multiset(R))
        for rule in Rule:
            if rule is Rule.CASES:
                continue
            with pytest.raises(StepError):
                check_step(Step("s", goal, rule), ctx())

    def test_ltirrefl(self):
        context = ctx(Lt(multiset(a), multiset(a)))
        check(Step("s", Falsum(), Rule.LT_IRREFL, ("H1",)), context)
        context = ctx(Lt(multiset(a), multiset(b)))
        fails(Step("s", Falsum(), Rule.LT_IRREFL, ("H1",)), context, "Lt(M, M)")

    def test_ltasym(self):
        context = ctx(Lt(multiset(a), multiset(b)), Lt(multiset(b), multiset(a)))
        check(Step("s", Falsum(), Rule.LT_ASYM, ("H1", "H2")), context)
        context = ctx(Lt(multiset(a), multiset(b)), Lt(multiset(a), multiset(b)))
        fails(Step("s", Falsum(), Rule.LT_ASYM, ("H1", "H2")), context, "mirrored")

    def test_eqltclash_both_orientations(self):
        for lt in (Lt(multiset(a), multiset(b)), Lt(multiset(b), multiset(a))):
            context = ctx(Eq(multiset(a), multiset(b)), lt)
            check(Step("s", Falsum(), Rule.EQ_LT_CLASH, ("H1", "H2")), context)
        context = ctx(Eq(multiset(a), multiset(b)), Lt(multiset(a), multiset(c)))
        fails(Step("s", Falsum(), Rule.EQ_LT_CLASH, ("H1", "H2")), context, "relate")

    @pytest.mark.parametrize("rule, premises, reason", [
        (Rule.LT_IRREFL, [Lt(multiset(a), multiset(a))], "conclusion must be False"),
        (Rule.LT_IRREFL, [Lt(multiset(a), multiset(b))], "premise is not of the form Lt(M, M)"),
        (Rule.LT_ASYM, [Lt(multiset(a), multiset(b)), Lt(multiset(b), multiset(a))], "conclusion must be False"),
        (Rule.LT_ASYM, [Lt(multiset(a), multiset(b)), Lt(multiset(a), multiset(b))],
         "premises are not mirrored comparisons"),
        (Rule.EQ_LT_CLASH, [Eq(multiset(a), multiset(b)), Lt(multiset(b), multiset(a))], "conclusion must be False"),
        (Rule.EQ_LT_CLASH, [Eq(multiset(a), multiset(b)), Lt(multiset(a), multiset(c))],
         "the comparison does not relate the equated expressions"),
    ])
    def test_conclusion_must_be_false(self, rule, premises, reason):
        # A goal other than False is refused, but only once the premises
        # pass: bad premises are reported first.
        labels = tuple(f"H{i}" for i in range(1, len(premises) + 1))
        err = fails(Step("s", Lt(multiset(a), multiset(b)), rule, labels), ctx(*premises), reason)
        assert err.reason == reason


class TestKernelEval:
    def test_true_literal_judgments(self):
        check(Step("s", Eq(multiset(ang(1, 1), ang(1, 1)), multiset(R)), Rule.KERNEL_EVAL), ctx())
        check(Step("s", Lt(multiset(ang(3, 4), ang(1, 1)), multiset(R, R)), Rule.KERNEL_EVAL), ctx())
        check(Step("s", Split(R, ang(4, 3), ang(3, 4)), Rule.KERNEL_EVAL), ctx())
        check(Step("s", Congr(R, ang(0, 1)), Rule.KERNEL_EVAL), ctx())

    def test_refuted_judgment(self):
        fails(Step("s", Lt(multiset(R, R), multiset(R)), Rule.KERNEL_EVAL), ctx(), "refutes")
        err = fails(Step("s", Lt(multiset(R, R), multiset(ang(3, 4), ang(1, 1))), Rule.KERNEL_EVAL), ctx(),
                    "refutes")
        assert err.reason == "kernel refutes this judgment"

    def test_variables_rejected(self):
        fails(Step("s", Eq(multiset(a), multiset(a)), Rule.KERNEL_EVAL), ctx(), "variable-free")
        # Reported before the kernel is asked, for a judgment it would refute.
        fails(Step("s", Lt(multiset(R, R, a), multiset(R)), Rule.KERNEL_EVAL), ctx(), "variable-free")

    def test_false_not_producible(self):
        fails(Step("s", Falsum(), Rule.KERNEL_EVAL), ctx(), "cannot produce")


# A branch that concludes Lt({b}, {a}) from the context's H1.
CONCLUDE = (Step("x", Lt(multiset(b), multiset(a)), Rule.HYPOTHESIS, ("H1",)),)


class TestCases:
    def goal_step(self, branches):
        return Step(
            "s",
            Lt(multiset(b), multiset(a)),
            Rule.CASES,
            case_pair=(multiset(a), multiset(b)),
            branches=branches,
        )

    def test_well_formed(self):
        context = ctx(Lt(multiset(b), multiset(a)))
        refute = lambda lbl, clash_rule, refs: Step(lbl, Falsum(), clash_rule, refs)
        branches = (
            (
                Step("x1", Falsum(), Rule.LT_ASYM, ("case", "H1")),
                Step("x2", Lt(multiset(b), multiset(a)), Rule.HYPOTHESIS, ("x1",)),
            ),
            (
                Step("x3", Falsum(), Rule.EQ_LT_CLASH, ("case", "H1")),
                Step("x4", Lt(multiset(b), multiset(a)), Rule.HYPOTHESIS, ("x3",)),
            ),
            (Step("x5", Lt(multiset(b), multiset(a)), Rule.HYPOTHESIS, ("case",)),),
        )
        check(self.goal_step(branches), context)

    def test_branch_must_conclude_goal(self):
        context = ctx(Lt(multiset(b), multiset(a)))
        branches = (
            (Step("x1", Lt(multiset(b), multiset(a)), Rule.HYPOTHESIS, ("H1",)),),
            (Step("x2", Eq(multiset(a), multiset(a)), Rule.EQ_REFL),),
            (Step("x3", Lt(multiset(b), multiset(a)), Rule.HYPOTHESIS, ("case",)),),
        )
        err = fails(self.goal_step(branches), context, "branch 2 concludes")
        assert err.label == "s"

    def test_requires_three_branches(self):
        context = ctx(Lt(multiset(b), multiset(a)))
        branches = ((Step("x1", Lt(multiset(b), multiset(a)), Rule.HYPOTHESIS, ("H1",)),),) * 2
        fails(self.goal_step(branches), context, "three branches")

    def test_branch_labels_leave_scope(self):
        context = ctx(Lt(multiset(b), multiset(a)))
        branches = (
            (Step("x1", Lt(multiset(b), multiset(a)), Rule.HYPOTHESIS, ("H1",)),),
            (Step("x2", Lt(multiset(b), multiset(a)), Rule.HYPOTHESIS, ("H1",)),),
            (Step("x3", Lt(multiset(b), multiset(a)), Rule.HYPOTHESIS, ("case",)),),
        )
        check(self.goal_step(branches), context)
        context.bind("s", Lt(multiset(b), multiset(a)))
        with pytest.raises(StepError) as err:
            check_step(Step("y", Lt(multiset(b), multiset(a)), Rule.HYPOTHESIS, ("x3",)), context)
        assert "unknown premise" in err.value.reason

    # The parser builds none of these steps, so each is built directly.
    @pytest.mark.parametrize("step, reason", [
        (Step("s", Lt(multiset(b), multiset(a)), Rule.HYPOTHESIS, ("H1",), branches=(CONCLUDE,) * 3),
         "case blocks are only meaningful under the cases rule"),
        (Step("s", Lt(multiset(b), multiset(a)), Rule.HYPOTHESIS, ("H1",), case_pair=(multiset(a), multiset(b))),
         "case blocks are only meaningful under the cases rule"),
        (Step("s", Lt(multiset(b), multiset(a)), Rule.CASES, case_pair=(multiset("z", a), multiset(b)),
              branches=(CONCLUDE,) * 3), "undeclared variable 'z'"),
        (Step("s", Lt(multiset(b), multiset(a)), Rule.CASES, case_pair=(multiset(a), multiset(b)),
              branches=((), CONCLUDE, CONCLUDE)), "branch 1 is empty"),
        (Step("s", Lt(multiset(b), multiset(a)), Rule.CASES, case_pair=(multiset(a), multiset(b)),
              branches=(CONCLUDE, CONCLUDE, ())), "branch 3 is empty"),
    ], ids=["branches-elsewhere", "pair-elsewhere", "undeclared-pair", "first-empty", "last-empty"])
    def test_malformed_blocks(self, step, reason):
        err = fails(step, ctx(Lt(multiset(b), multiset(a))), reason)
        assert (err.label, err.reason) == ("s", reason)

    def test_case_reference_invalid_outside(self):
        fails(Step("s", Lt(multiset(a), multiset(b)), Rule.HYPOTHESIS, ("case",)), ctx(), "unknown premise")


class TestDerivationChecking:
    def test_empty_derivation(self):
        check_derivation(Derivation())

    def test_duplicate_labels_rejected(self):
        d = Derivation(
            variables=("a",),
            steps=(
                Step("S1", Eq(multiset(a), multiset(a)), Rule.EQ_REFL),
                Step("S1", Eq(multiset(a), multiset(a)), Rule.EQ_REFL),
            ),
        )
        with pytest.raises(StepError) as err:
            check_derivation(d)
        assert err.value.reason == "duplicate label"

    @pytest.mark.parametrize("hypotheses, label, reason", [
        ((Hypothesis("H1", Split(a, b, b)), Hypothesis("H1", Congr(a, b))), "H1", "duplicate label"),
        ((Hypothesis("H1", Split(a, b, b)), Hypothesis("H2", Lt(multiset(a), multiset("z", b)))), "H2",
         "undeclared variable 'z'"),
    ], ids=["duplicate", "undeclared"])
    def test_bad_hypothesis_rejected(self, hypotheses, label, reason):
        with pytest.raises(StepError) as err:
            check_derivation(Derivation(variables=("a", "b"), hypotheses=hypotheses))
        assert (err.value.label, err.value.reason) == (label, reason)

    def test_undeclared_variable_rejected(self):
        d = Derivation(variables=("a",), steps=(Step("S1", Eq(multiset(b), multiset(b)), Rule.EQ_REFL),))
        with pytest.raises(StepError) as err:
            check_derivation(d)
        assert "undeclared" in err.value.reason

    def test_undeclared_variable_named_is_the_least_of_the_judgment(self):
        d = Derivation(variables=("a",), steps=(Step("S1", Eq(multiset(a, "z"), multiset("y", a)), Rule.EQ_REFL),))
        with pytest.raises(StepError) as err:
            check_derivation(d)
        assert err.value.reason == "undeclared variable 'y'"

    def test_a_side_found_declared_is_so_only_for_its_own_derivation(self):
        # One expression object in two derivations: declared in the first,
        # not in the second, and cited again after the first finds it clean.
        side = multiset(a, b)
        steps = (Step("S1", Eq(side, side), Rule.EQ_REFL), Step("S2", Lt(MultisetExpr(), side), Rule.WHOLE_PART))
        check_derivation(Derivation(variables=(a, b), steps=steps))
        with pytest.raises(StepError) as err:
            check_derivation(Derivation(variables=(a,), steps=steps))
        assert (err.value.label, err.value.reason) == ("S1", "undeclared variable 'b'")
        with pytest.raises(StepError) as err:
            check_derivation(Derivation(variables=(a,), steps=steps[1:]))
        assert (err.value.label, err.value.reason) == ("S2", "undeclared variable 'b'")

    def test_step_keeps_its_dataclass_behaviour(self):
        step = Step("S1", Eq(multiset(a), multiset(a)), Rule.EQ_SYM, ("H1",), span=(1, 1, 2))
        same = Step("S1", Eq(multiset(a), multiset(a)), Rule.EQ_SYM, premises=("H1",))
        assert step == same and hash(step) == hash(same)
        assert repr(step) == repr(same) == ("Step(label='S1', judgment=Eq(lhs=MultisetExpr(terms=('a',)), "
                                            "rhs=MultisetExpr(terms=('a',))), rule=<Rule.EQ_SYM: 'eqsym'>, "
                                            "premises=('H1',), case_pair=None, branches=())")
        assert (step.span, same.span, same.case_pair, same.branches) == ((1, 1, 2), None, None, ())
        assert dataclasses.replace(step, label="S2") == Step("S2", step.judgment, Rule.EQ_SYM, ("H1",))
        assert [f.name for f in dataclasses.fields(Step)] == list(vars(step))
        with pytest.raises(dataclasses.FrozenInstanceError):
            step.label = "S2"
        assert Step("S1", step.judgment, Rule.EQ_SYM) != Step("S1", step.judgment, Rule.EQ_REFL)

    def test_unknown_premise_rejected(self):
        d = Derivation(variables=("a",), steps=(Step("S1", Eq(multiset(a), multiset(a)), Rule.EQ_SYM, ("S9",)),))
        with pytest.raises(StepError) as err:
            check_derivation(d)
        assert "unknown premise" in err.value.reason

    def test_deterministic(self):
        d = Derivation(
            variables=("a", "b"),
            hypotheses=(Hypothesis("H1", Split(a, b, b)),),
            steps=(Step("S1", Eq(multiset(a), multiset(b, b)), Rule.SPLIT_EQ, ("H1",)),),
        )
        for _ in range(3):
            check_derivation(d)


class EmptyPart(ValueError):
    """derive_whole_part was asked to add an empty part."""


def derive_whole_part(m: MultisetExpr, n: MultisetExpr, label_prefix: str = "wp") -> tuple[Step, ...]:
    """Steps concluding Lt(m, m + n), built from SingletonPos, AddBoth and LtTrans.

    The returned fragment is self-contained: every premise cites one of its
    own labels, so it checks inside any derivation whose label space does
    not collide with ``label_prefix``.  Raises EmptyPart when ``n`` is empty.
    So wholepart is a derived rule: these three rules license each instance.
    """
    if not n.terms:
        raise EmptyPart("the added part must be nonempty")
    steps: list[Step] = []
    counter = 0

    def emit(judgment: Judgment, rule: Rule, *premises: str) -> str:
        nonlocal counter
        counter += 1
        label = f"{label_prefix}{counter}"
        steps.append(Step(label, judgment, rule, tuple(premises)))
        return label

    base = m
    total_label = total = None
    for t in n.terms:
        cur = Lt(MultisetExpr(), multiset(t))
        label = emit(cur, Rule.SINGLETON_POS)
        for u in base.terms:
            cur = Lt(MultisetExpr(cur.lhs.terms + (u,)), MultisetExpr(cur.rhs.terms + (u,)))
            label = emit(cur, Rule.ADD_BOTH, label)
        if total is None:
            total_label, total = label, cur
        else:
            total = Lt(total.lhs, cur.rhs)
            total_label = emit(total, Rule.LT_TRANS, total_label, label)
        base = MultisetExpr(base.terms + (t,))
    return tuple(steps)


class TestDeriveWholePart:
    def test_single_part_from_empty(self):
        steps = derive_whole_part(MultisetExpr(), multiset(a))
        assert len(steps) == 1
        assert steps[0].rule is Rule.SINGLETON_POS
        assert steps[0].judgment == Lt(MultisetExpr(), multiset(a))

    def test_one_each(self):
        steps = derive_whole_part(multiset(a), multiset(b))
        assert [s.rule for s in steps] == [Rule.SINGLETON_POS, Rule.ADD_BOTH]
        assert steps[-1].judgment == Lt(multiset(a), multiset(a, b))

    def test_empty_part_rejected(self):
        with pytest.raises(EmptyPart):
            derive_whole_part(MultisetExpr(), MultisetExpr())

    def test_fragments_check_and_conclude(self):
        rng = random.Random(71)
        terms = [a, b, c, R, ang(2, 5)]
        for _ in range(60):
            m = multiset(*(rng.choice(terms) for _ in range(rng.randint(0, 4))))
            n = multiset(*(rng.choice(terms) for _ in range(rng.randint(1, 4))))
            steps = derive_whole_part(m, n)
            assert steps[-1].judgment == Lt(m, MultisetExpr(m.terms + n.terms))
            check_derivation(Derivation(variables=("a", "b", "c"), steps=steps))


class TestLocality:
    def test_deleting_unreferenced_steps_preserves_acceptance(self):
        d = Derivation(
            variables=("a", "b", "c"),
            hypotheses=(Hypothesis("H1", Split(a, b, c)),),
            steps=(
                Step("S1", Eq(multiset(a), multiset(b, c)), Rule.SPLIT_EQ, ("H1",)),
                Step("S2", Eq(multiset(a), multiset(a)), Rule.EQ_REFL),
                Step("S3", Eq(multiset(b, c), multiset(a)), Rule.EQ_SYM, ("S1",)),
            ),
        )
        check_derivation(d)
        referenced = {ref for s in d.steps for ref in s.premises}
        for i, step in enumerate(d.steps):
            if step.label in referenced:
                continue
            pruned = Derivation(d.variables, d.hypotheses, d.steps[:i] + d.steps[i + 1:])
            check_derivation(pruned)


class TestLiteralTruth:
    def test_falsum_is_false(self):
        lhs, rhs, wanted = comparison(Falsum())
        assert compare_multisets(lhs, rhs) is not wanted


# ---------------------------------------------------------------------------
# The checker compares sorted term tuples.  The references: the sort key the
# canonical order was first defined by, and multiset arithmetic on Counters.

def _reference_key(t):
    if isinstance(t, str):
        return (0, t, 0, 0)
    return (1, "", t.x, t.y)


def _reference_single_added(base, extended):
    if len(extended) != len(base) + 1:
        return None
    bc, ec = collections.Counter(base.terms), collections.Counter(extended.terms)
    if not bc <= ec:
        return None
    (extra,) = ec - bc
    return extra


# Few terms, so that draws repeat them: names that sort apart by case and
# prefix, and angles whose coordinates interleave.
_TERMS = st.sampled_from(["a", "b", "c", "t", "ab", "B", R, ang(3, 4), ang(-1, 2), ang(1, 1), ang(1, 2), ang(-5, 7)])
_TERM_LISTS = st.lists(_TERMS, max_size=8)


@st.composite
def _multiset_pairs(draw):
    """A multiset and either one drawn on its own or the first with up to
    three terms added, one of its terms sometimes replaced."""
    base = draw(_TERM_LISTS)
    if draw(st.booleans()):
        return MultisetExpr(tuple(base)), MultisetExpr(tuple(draw(_TERM_LISTS)))
    extended = base + draw(st.lists(_TERMS, max_size=3))
    if base and draw(st.integers(0, 3)) == 0:
        extended[draw(st.integers(0, len(base) - 1))] = draw(_TERMS)
    return MultisetExpr(tuple(base)), MultisetExpr(tuple(draw(st.permutations(extended))))


class TestSortedTuples:
    @settings(max_examples=500)
    @given(_TERM_LISTS)
    def test_order_matches_the_reference_key(self, terms):
        assert MultisetExpr(tuple(terms)).terms == tuple(sorted(terms, key=_reference_key))

    @settings(max_examples=1000)
    @given(_multiset_pairs())
    def test_single_added_matches_counters(self, pair):
        base, extended = pair
        assert calculus._single_added(base, extended) == _reference_single_added(base, extended)

    @settings(max_examples=1000)
    @given(_multiset_pairs())
    def test_wholepart_matches_counters(self, pair):
        part, whole = pair
        step = Step("s", Lt(part, whole), Rule.WHOLE_PART)
        try:
            check_step(step, ctx(declared=("a", "b", "c", "t", "ab", "B")))
            licensed = True
        except StepError:
            licensed = False
        assert licensed == (collections.Counter(part.terms) < collections.Counter(whole.terms))

    def test_checking_builds_no_counter(self, monkeypatch, corpus_dir):
        paths = sorted(corpus_dir.glob("*.eap")) + sorted((corpus_dir / "mutations").glob("*.eap"))
        derivations = [parse_proof(path.read_text(encoding="utf-8")) for path in paths]
        fragment = Derivation(("a", "b", "c"), (), derive_whole_part(multiset(a, b), multiset(c, R, c)))

        def refuse(self, *args, **kwargs):
            raise AssertionError("a Counter was built while checking")

        monkeypatch.setattr(collections.Counter, "__init__", refuse)
        for derivation in [*derivations, fragment]:
            try:
                check_derivation(derivation)
            except StepError:
                pass

    @settings(max_examples=500)
    @given(_TERM_LISTS)
    def test_built_from_names_and_angles_apart(self, terms):
        names = [t for t in terms if isinstance(t, str)]
        angles = [t for t in terms if not isinstance(t, str)]
        assert MultisetExpr._of(names, angles) == MultisetExpr(tuple(terms))
        assert MultisetExpr._of(names, angles).terms == MultisetExpr(tuple(terms)).terms


# How many premises each rule cites: the table check_step read, keyed by
# Rule members, before it dispatched on rule names.
PREMISE_COUNTS = {
    Rule.EQ_REFL: 0, Rule.EQ_SYM: 1, Rule.EQ_TRANS: 2, Rule.SUBST_LEFT: 2, Rule.SUBST_RIGHT: 2, Rule.LT_TRANS: 2,
    Rule.ADD_BOTH: 1, Rule.SINGLETON_POS: 0, Rule.WHOLE_PART: 0, Rule.SPLIT_EQ: 1, Rule.CONGR_EQ: 1,
    Rule.LT_IRREFL: 1, Rule.LT_ASYM: 2, Rule.EQ_LT_CLASH: 2, Rule.CASES: 0, Rule.HYPOTHESIS: 1, Rule.KERNEL_EVAL: 0,
}


def _dispatched_names() -> list[str]:
    """The rule names that check_step's if/elif chain on ``name`` tests, in
    order, one entry per name a test lists."""
    (func,) = ast.parse(textwrap.dedent(inspect.getsource(check_step))).body

    def names(test):
        if not (isinstance(test, ast.Compare) and isinstance(test.left, ast.Name) and test.left.id == "name"):
            return None
        (op,), (right,) = test.ops, test.comparators
        if isinstance(op, ast.Eq):
            return [right.value]
        assert isinstance(op, ast.In) and isinstance(right, ast.Tuple)
        return [elt.value for elt in right.elts]

    node = next(node for node in func.body if isinstance(node, ast.If) and names(node.test) is not None)
    dispatched = []
    while True:
        dispatched += names(node.test)
        if not (len(node.orelse) == 1 and isinstance(node.orelse[0], ast.If)):
            break
        node = node.orelse[0]
    assert "unhandled rule" in ast.unparse(node.orelse)  # the chain ends in the branch no rule may reach
    return dispatched


class TestRuleDispatch:
    def test_every_rule_is_dispatched_exactly_once(self):
        dispatched = _dispatched_names()
        assert sorted(dispatched) == sorted(rule.value for rule in Rule)

    def test_premise_counts_are_unchanged(self):
        assert {rule: rule.premise_count for rule in Rule} == PREMISE_COUNTS

    @pytest.mark.parametrize("rule", list(Rule), ids=lambda rule: rule.value)
    def test_no_rule_is_unhandled(self, rule):
        # Cited with too many premises, a rule reports its count; with the
        # right number, of any form, its own branch decides.
        n = PREMISE_COUNTS[rule]
        context = ctx(*[Falsum()] * (n + 1))
        labels = tuple(f"H{i}" for i in range(1, n + 2))
        fails(Step("s", Falsum(), rule, labels), context, f"rule {rule.value} takes {n} premise(s), got {n + 1}")
        try:
            check_step(Step("s", Falsum(), rule, labels[:n]), context)
        except StepError as err:
            assert "unhandled rule" not in err.reason
