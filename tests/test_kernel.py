import math
import random
from collections import Counter
from math import gcd

import pytest
from hypothesis import example, given, settings, strategies as st

from eukleia.kernel import (
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
    _reduced,
)

from conftest import ang, random_angle


def radians(a: AngleLit) -> float:
    return math.atan2(a.y, a.x)


def total_radians(s: AngleSum) -> float:
    # Remainders too long for float are shifted down first; shifting both
    # coordinates by the same amount keeps the direction.
    if s.rest is None:
        return math.pi * s.straights
    shift = max(0, max(abs(s.rest.x).bit_length(), s.rest.y.bit_length()) - 64)
    return math.pi * s.straights + math.atan2(s.rest.y >> shift, s.rest.x >> shift)


# The reference below works on plain integer pairs, independently of the
# kernel's straight-angle tree: a direction is a primitive (x, y) with its
# argument in [0, 2*pi), and a sum is a winding count plus a direction.

def _compare_directions(u: tuple, v: tuple) -> Ordering:
    """Order two primitive directions by argument in [0, 2*pi): the upper
    half-plane [0, pi) first, then within one half by the cross product."""
    upper_u = u[1] > 0 or (u[1] == 0 and u[0] > 0)
    upper_v = v[1] > 0 or (v[1] == 0 and v[0] > 0)
    if upper_u != upper_v:
        return Ordering.LESS if upper_u else Ordering.GREATER
    cross = u[0] * v[1] - u[1] * v[0]
    return Ordering.LESS if cross > 0 else Ordering.GREATER if cross < 0 else Ordering.EQUAL


def _fold_sum(angles) -> tuple:
    """Reference sum ``(windings, x, y)``: a left fold of Gaussian-integer
    products that counts a winding whenever the product's direction falls
    below the accumulator's, the kernel's algorithm before the pairwise tree."""
    windings, acc = 0, (1, 0)
    for a in angles:
        x, y = acc[0] * a.x - acc[1] * a.y, acc[0] * a.y + acc[1] * a.x
        g = gcd(x, y)
        composed = (x // g, y // g)
        if _compare_directions(composed, acc) is Ordering.LESS:
            windings += 1
        acc = composed
    return (windings, *acc)


def _matches_fold(items) -> bool:
    """The kernel's total renders as the reference's winding count and direction."""
    windings, x, y = _fold_sum(items)
    total = sum_multiset(items)
    return total.turns_and_vector() == (windings, x, y) and str(total) == f"turns={windings}, rep=({x},{y})"


def _below_a_turn(u: tuple) -> list:
    """A multiset whose total is the primitive direction ``u``'s argument in
    [0, 2*pi): none, one angle, two rights, or two rights and one angle."""
    x, y = u
    if y < 0 or (y == 0 and x < 0):
        return [right_angle(), right_angle()] + _below_a_turn((-x, -y))
    return [AngleLit(x, y)] if y else []


nonzero_upper = st.tuples(st.integers(-200, 200), st.integers(1, 200))
wide_angles = st.builds(angle_from_slope_vector, st.integers(-10**6, 10**6), st.integers(1, 10**6))
# Random lists, lists drawn from a few repeated angles, and lists of only R or
# only ang(1/1), whose partial products all land on the axes.
lengths = st.integers(0, 300)
angle_lists = st.one_of(
    lengths.flatmap(lambda n: st.lists(wide_angles, min_size=n, max_size=n)),
    st.tuples(st.lists(wide_angles, min_size=1, max_size=4), lengths).flatmap(
        lambda pool_n: st.lists(st.sampled_from(pool_n[0]), min_size=pool_n[1], max_size=pool_n[1])),
    lengths.map(lambda n: [right_angle()] * n),
    lengths.map(lambda n: [AngleLit(1, 1)] * n),
)


class TestConstructors:
    def test_right_angle_from_axis_vector(self):
        assert angle_from_slope_vector(0, 1) == AngleLit(0, 1)

    def test_gcd_reduction(self):
        assert angle_from_slope_vector(2, 2) == AngleLit(1, 1)
        assert angle_from_slope_vector(-10, 15) == AngleLit(-2, 3)

    def test_lower_half_plane_rejected(self):
        with pytest.raises(DegenerateAngle):
            angle_from_slope_vector(5, -1)
        with pytest.raises(DegenerateAngle):
            angle_from_slope_vector(3, 0)
        with pytest.raises(DegenerateAngle):
            angle_from_slope_vector(0, 0)

    def test_invariant_enforced_on_raw_construction(self):
        with pytest.raises(ValueError):
            AngleLit(2, 4)
        with pytest.raises(DegenerateAngle):
            AngleLit(1, -1)

    def test_negative_straight_count_rejected(self):
        with pytest.raises(ValueError):
            AngleSum(-1, None)
        with pytest.raises(ValueError):
            AngleSum(-2, right_angle())
        assert AngleSum(0, None) == sum_multiset([])

    @given(st.integers(-10**30, 10**30), st.integers(1, 10**30))
    def test_unchecked_construction_equals_the_checked_one(self, x, y):
        # angle_from_slope_vector, add_two and sum_multiset build their
        # already-reduced results without the class's checks; the value must
        # not differ from a checked one.
        g = gcd(abs(x), y)
        checked, unchecked = AngleLit(x // g, y // g), _reduced(x // g, y // g)
        assert type(unchecked) is AngleLit
        assert (unchecked == checked, hash(unchecked) == hash(checked), repr(unchecked)) == (True, True, repr(checked))
        assert angle_from_slope_vector(x, y) == AngleLit(x // g, y // g)

    @given(nonzero_upper)
    def test_constructor_output_is_canonical(self, xy):
        a = angle_from_slope_vector(*xy)
        assert a.y > 0
        assert gcd(abs(a.x), a.y) == 1
        assert abs(radians(a) - math.atan2(xy[1], xy[0])) < 1e-12


class TestRightAngle:
    def test_canonical_form(self):
        assert right_angle() == AngleLit(0, 1)

    def test_two_rights_overflow(self):
        with pytest.raises(AngleOverflow):
            add_two(right_angle(), right_angle())


class TestCompareArgs:
    """Totals below a full turn ordered by argument, by the kernel and by the
    reference's direction order."""

    def test_quarter_below_half(self):
        assert compare_multisets([ang(1, 1)], [right_angle()]) is Ordering.LESS
        assert _compare_directions((1, 1), (0, 1)) is Ordering.LESS

    def test_identical(self):
        assert compare_sums(sum_multiset([ang(-1, 7)]), sum_multiset([ang(-1, 7)])) is Ordering.EQUAL
        assert _compare_directions((-1, 7), (-1, 7)) is Ordering.EQUAL

    def test_cross_product_within_quadrant(self):
        assert compare_multisets([ang(3, 4)], [ang(4, 3)]) is Ordering.GREATER
        assert _compare_directions((3, 4), (4, 3)) is Ordering.GREATER

    def test_rank_ordering_around_the_circle(self):
        around = [(1, 0), (2, 1), (0, 1), (-1, 2), (-1, 0), (-2, -1), (0, -1), (1, -2)]
        sums = [sum_multiset(_below_a_turn(u)) for u in around]
        assert [str(s) for s in sums] == [f"turns=0, rep=({x},{y})" for x, y in around]
        for i, a in enumerate(around):
            for j, b in enumerate(around):
                expected = Ordering.EQUAL if i == j else (Ordering.LESS if i < j else Ordering.GREATER)
                assert (compare_sums(sums[i], sums[j]), _compare_directions(a, b)) == (expected, expected)

    @given(st.tuples(st.integers(-60, 60), st.integers(-60, 60)).filter(lambda t: t != (0, 0)),
           st.tuples(st.integers(-60, 60), st.integers(-60, 60)).filter(lambda t: t != (0, 0)))
    def test_agrees_with_float_argument(self, u, v):
        gu, gv = gcd(*u), gcd(*v)
        a, b = (u[0] // gu, u[1] // gu), (v[0] // gv, v[1] // gv)
        fa, fb = math.atan2(a[1], a[0]) % (2 * math.pi), math.atan2(b[1], b[0]) % (2 * math.pi)
        got = compare_multisets(_below_a_turn(a), _below_a_turn(b))
        assert _compare_directions(a, b) is got
        if abs(fa - fb) > 1e-9:
            assert got is (Ordering.LESS if fa < fb else Ordering.GREATER)


class TestSumMultiset:
    def test_empty(self):
        s = sum_multiset([])
        assert (s.straights, s.rest) == (0, None)

    def test_four_right_angles_one_turn(self):
        R = right_angle()
        # every partial total lands on an axis
        assert sum_multiset([R]) == AngleSum(0, R)
        assert sum_multiset([R, R]) == AngleSum(1, None)
        assert sum_multiset([R, R, R]) == AngleSum(1, R)
        assert sum_multiset([R, R, R, R]) == AngleSum(2, None)

    def test_eight_half_rights_one_turn(self):
        assert sum_multiset([ang(1, 1)] * 8) == AngleSum(2, None)

    def test_permutation_invariance_bit_identical(self):
        rng = random.Random(123)
        for _ in range(200):
            items = [random_angle(rng, 30) for _ in range(rng.randint(0, 8))]
            reference = sum_multiset(items)
            shuffled = items[:]
            rng.shuffle(shuffled)
            assert sum_multiset(shuffled) == reference

    def test_measure_agreement(self):
        rng = random.Random(99)
        for _ in range(300):
            items = [random_angle(rng, 1000) for _ in range(rng.randint(0, 20))]
            expected = sum(math.atan2(a.y, a.x) for a in items)
            assert abs(total_radians(sum_multiset(items)) - expected) < 1e-9

    def test_total_below_n_pi(self):
        rng = random.Random(5)
        for _ in range(200):
            items = [random_angle(rng, 40) for _ in range(rng.randint(1, 12))]
            assert total_radians(sum_multiset(items)) < len(items) * math.pi + 1e-9


    @pytest.mark.parametrize("unit", [right_angle(), AngleLit(1, 1), AngleLit(-1, 1)], ids=str)
    def test_axis_lists_of_every_length_match_fold(self, unit):
        for n in range(40):
            assert _matches_fold([unit] * n), n

    @settings(deadline=None)
    @given(angle_lists)
    def test_matches_left_fold(self, items):
        assert _matches_fold(items)

    def test_large_multiset(self):
        rng = random.Random(16000)
        items = [random_angle(rng) for _ in range(16000)]
        shuffled = items[:]
        rng.shuffle(shuffled)
        total = sum_multiset(items)
        assert sum_multiset(shuffled) == total
        assert total.rest.y.bit_length() > 1024  # beyond float range: the shift is needed
        expected = math.fsum(math.atan2(a.y, a.x) for a in items)
        assert abs(total_radians(total) - expected) < 1e-9


# Count maps as ``eval`` and ``compare`` read their operands: reduced pairs
# (x, y) with y > 0, each with a positive count.
count_pairs = st.builds(lambda x, y: (x // gcd(x, y), y // gcd(x, y)), st.integers(-30, 30), st.integers(1, 30))


def _expanded(counts) -> list[AngleLit]:
    return [_reduced(x, y) for (x, y), n in counts.items() for _ in range(n)]


@st.composite
def operand_pairs(draw):
    """Two count maps: equal, differing in one angle, disjoint, one empty, or any two."""
    lhs = Counter(draw(st.dictionaries(count_pairs, st.integers(1, 40), max_size=6)))
    kind = draw(st.sampled_from(["equal", "one-angle", "disjoint", "empty", "any"]))
    if kind == "equal":
        rhs = Counter(lhs)
    elif kind == "one-angle":
        rhs = Counter(lhs)
        rhs[draw(count_pairs)] += draw(st.sampled_from([-1, 1, 2]))
        rhs = +rhs  # drops a count taken to 0
    elif kind == "disjoint":
        rhs = Counter({pair: n for pair, n in draw(st.dictionaries(count_pairs, st.integers(1, 40),
                                                                    max_size=6)).items() if pair not in lhs})
    elif kind == "empty":
        rhs = Counter()
    else:
        rhs = Counter(draw(st.dictionaries(count_pairs, st.integers(1, 40), max_size=6)))
    return (lhs, rhs) if draw(st.booleans()) else (rhs, lhs)


class TestSumCounts:
    @settings(max_examples=60, deadline=None)
    @example({(-20, 1): 9999})  # near pi, folding past it at almost every doubling
    @example({(-20, 1): 10**4, (0, 1): 3, (19, 20): 1})
    @example({(3, 4): 1})
    @example({(1, 1): 7})  # angles with the factor 1 + i
    @example({(1, 3): 13, (-1, 1): 6})
    @example({})
    @given(st.dictionaries(count_pairs, st.integers(1, 10**4), max_size=3))
    def test_equals_the_sum_of_the_expanded_list(self, counts):
        assert AngleSum._of_counts(Counter(counts)) == [sum_multiset(_expanded(counts))]

    def test_four_right_angles_one_turn(self):
        assert AngleSum._of_counts(Counter({(0, 1): 4})) == [AngleSum(2, None)]

    @settings(max_examples=300, deadline=None)
    @given(operand_pairs())
    def test_summing_the_common_part_once_gives_both_sums(self, sides):
        lhs, rhs = sides
        assert AngleSum._of_counts(lhs, rhs) == [sum_multiset(_expanded(lhs)), sum_multiset(_expanded(rhs))]


class TestCompareMultisets:
    def test_internal_angles_below_two_rights(self):
        R = right_angle()
        assert compare_multisets([ang(3, 4), ang(1, 1)], [R, R]) is Ordering.LESS

    def test_singleton_above_empty(self):
        rng = random.Random(3)
        for _ in range(50):
            assert compare_multisets([random_angle(rng)], []) is Ordering.GREATER
            assert compare_multisets([], [random_angle(rng)]) is Ordering.LESS

    def test_two_half_rights_equal_one_right(self):
        assert compare_multisets([ang(1, 1), ang(1, 1)], [right_angle()]) is Ordering.EQUAL

    def test_empty_vs_empty(self):
        assert compare_multisets([], []) is Ordering.EQUAL

    def test_winding_dominates(self):
        R = right_angle()
        # five rights exceed one tiny angle even though the tiny argument alone is larger
        assert compare_multisets([R] * 5, [ang(50, 1)] * 1) is Ordering.GREATER
        assert compare_multisets([R] * 4, [R] * 5) is Ordering.LESS

    def test_add_preservation(self):
        rng = random.Random(17)
        for _ in range(300):
            a = [random_angle(rng, 30) for _ in range(rng.randint(0, 5))]
            b = [random_angle(rng, 30) for _ in range(rng.randint(0, 5))]
            t = random_angle(rng, 30)
            assert compare_multisets(a + [t], b + [t]) is compare_multisets(a, b)

    def test_whole_greater_than_part(self):
        rng = random.Random(29)
        for _ in range(300):
            m = [random_angle(rng, 30) for _ in range(rng.randint(0, 5))]
            n = [random_angle(rng, 30) for _ in range(rng.randint(1, 5))]
            assert compare_multisets(m + n, m) is Ordering.GREATER

    def test_order_laws_small(self):
        rng = random.Random(41)
        flip = {Ordering.LESS: Ordering.GREATER, Ordering.GREATER: Ordering.LESS, Ordering.EQUAL: Ordering.EQUAL}
        for _ in range(200):
            a, b, c = ([random_angle(rng, 50) for _ in range(rng.randint(0, 6))] for _ in range(3))
            ab, ba = compare_multisets(a, b), compare_multisets(b, a)
            assert ba is flip[ab]
            assert compare_multisets(a, a) is Ordering.EQUAL
            ab, bc, ac = compare_multisets(a, b), compare_multisets(b, c), compare_multisets(a, c)
            if ab is bc:
                assert ac is ab
            if ab is Ordering.EQUAL:
                assert ac is bc


    @settings(deadline=None)
    @given(angle_lists, angle_lists)
    def test_compare_sums_agrees(self, a, b):
        verdict = compare_multisets(a, b)
        assert compare_sums(sum_multiset(a), sum_multiset(b)) is verdict
        (wa, *ua), (wb, *ub) = _fold_sum(a), _fold_sum(b)
        assert verdict is (_compare_directions(ua, ub) if wa == wb
                           else Ordering.LESS if wa < wb else Ordering.GREATER)


class TestAddTwo:
    def test_two_half_rights(self):
        assert add_two(ang(1, 1), ang(1, 1)) == right_angle()

    def test_complementary_slopes(self):
        assert add_two(ang(4, 3), ang(3, 4)) == right_angle()

    def test_overflow_at_pi(self):
        with pytest.raises(AngleOverflow):
            add_two(ang(0, 1), ang(0, 1))
        with pytest.raises(AngleOverflow):
            add_two(ang(-1, 1), ang(-1, 1))

    def test_overflow_message(self):
        # The message is formatted lazily from the two angles, to the text it
        # had when add_two formatted it on every overflow.
        with pytest.raises(AngleOverflow) as info:
            add_two(ang(-3, 4), ang(1, 2))
        assert str(info.value) == "ang(-3/4) + ang(1/2) measures at least pi"
        assert info.value.args == (ang(-3, 4), ang(1, 2))
        with pytest.raises(AngleOverflow, match=r"^ang\(0/1\) \+ ang\(0/1\) measures at least pi$"):
            add_two(right_angle(), right_angle())

    def test_split_soundness(self):
        rng = random.Random(53)
        checked = 0
        while checked < 500:
            b, c = random_angle(rng, 40), random_angle(rng, 40)
            try:
                a = add_two(b, c)
            except AngleOverflow:
                continue
            checked += 1
            assert compare_multisets([a], [b, c]) is Ordering.EQUAL

    @given(nonzero_upper, nonzero_upper)
    def test_matches_float_sum_when_defined(self, u, v):
        b, c = angle_from_slope_vector(*u), angle_from_slope_vector(*v)
        total = radians(b) + radians(c)
        try:
            a = add_two(b, c)
        except AngleOverflow:
            assert total > math.pi - 1e-9
        else:
            assert abs(radians(a) - total) < 1e-9


class TestCongruence:
    def test_equal_angles_have_identical_canonical_form(self):
        rng = random.Random(61)
        for _ in range(200):
            a, b = random_angle(rng, 40), random_angle(rng, 40)
            same_measure = abs(radians(a) - radians(b)) < 1e-12
            assert (a == b) == same_measure


class TestRendering:
    def test_angle_text(self):
        assert str(ang(3, 4)) == "ang(3/4)"
        assert str(ang(-2, 3)) == "ang(-2/3)"

    def test_sum_text(self):
        assert str(sum_multiset([right_angle()] * 4)) == "turns=1, rep=(1,0)"
        assert str(sum_multiset([])) == "turns=0, rep=(1,0)"

    def test_odd_straight_counts_print_rotated(self):
        # The text the kernel printed when a total was a winding count and a
        # direction in [0, 2*pi): an odd straight-angle count shows as the
        # remainder, or (1, 0), rotated by pi.
        R = right_angle()
        texts = [str(sum_multiset(items)) for items in ([], [R], [R, R], [R, R, R], [R] * 4, [R, R, ang(1, 1)])]
        assert texts == ["turns=0, rep=(1,0)", "turns=0, rep=(0,1)", "turns=0, rep=(-1,0)",
                         "turns=0, rep=(0,-1)", "turns=1, rep=(1,0)", "turns=0, rep=(-1,-1)"]
