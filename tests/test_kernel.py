import math
import random
from fractions import Fraction
from math import gcd

import pytest
from hypothesis import given, settings, strategies as st

from eukleia.kernel import (
    AngleLit,
    AngleOverflow,
    AngleSum,
    DegenerateAngle,
    Ordering,
    PlaneVector,
    add_two,
    angle_from_rays,
    angle_from_slope_vector,
    compare_args,
    compare_multisets,
    compare_sums,
    right_angle,
    sum_multiset,
    _reduced,
)

from conftest import ang, random_angle

# Frozen float oracles (math.acos / math.atan2 on the stated inputs).
ACOS_3_5 = 0.9272952180016123


def radians(a: AngleLit) -> float:
    return math.atan2(a.y, a.x)


def total_radians(s) -> float:
    # Representatives too long for float are shifted down first; shifting
    # both coordinates by the same amount keeps the direction.
    shift = max(0, max(s.rep.x.bit_length(), s.rep.y.bit_length()) - 64)
    arg = math.atan2(s.rep.y >> shift, s.rep.x >> shift)
    if arg < 0:
        arg += 2 * math.pi
    return 2 * math.pi * s.windings + arg


def _fold_sum(angles) -> AngleSum:
    """Reference sum: a left fold of Gaussian-integer products, the kernel's
    algorithm before the pairwise tree."""
    windings, acc = 0, PlaneVector(1, 0)
    for a in angles:
        x, y = acc.x * a.x - acc.y * a.y, acc.x * a.y + acc.y * a.x
        g = gcd(x, y)
        composed = PlaneVector(x // g, y // g)
        if compare_args(composed, acc) is Ordering.LESS:
            windings += 1
        acc = composed
    return AngleSum(windings, acc)


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
        with pytest.raises(ValueError):
            PlaneVector(0, 0)
        with pytest.raises(ValueError):
            PlaneVector(2, 6)

    @given(st.integers(-10**30, 10**30), st.integers(1, 10**30))
    def test_unchecked_construction_equals_the_checked_one(self, x, y):
        # angle_from_slope_vector, add_two and sum_multiset build their
        # already-reduced results without the classes' checks; the value must
        # not differ from a checked one.
        g = gcd(abs(x), y)
        for cls in (AngleLit, PlaneVector):
            checked, unchecked = cls(x // g, y // g), _reduced(cls, x // g, y // g)
            assert type(unchecked) is cls
            assert (unchecked == checked, hash(unchecked) == hash(checked), repr(unchecked)) == (True, True, repr(checked))
        assert angle_from_slope_vector(x, y) == AngleLit(x // g, y // g)

    @given(nonzero_upper)
    def test_constructor_output_is_canonical(self, xy):
        a = angle_from_slope_vector(*xy)
        assert a.y > 0
        assert gcd(abs(a.x), a.y) == 1
        assert abs(radians(a) - math.atan2(xy[1], xy[0])) < 1e-12


class TestRays:
    def test_perpendicular_rays(self):
        assert angle_from_rays((0, 0), (1, 0), (0, 1)) == right_angle()

    def test_three_four_five(self):
        a = angle_from_rays((0, 0), (1, 0), (3, 4))
        assert a == AngleLit(3, 4)
        assert abs(radians(a) - ACOS_3_5) < 1e-12

    def test_collinear_rays_rejected(self):
        with pytest.raises(DegenerateAngle):
            angle_from_rays((0, 0), (1, 0), (-2, 0))
        with pytest.raises(DegenerateAngle):
            angle_from_rays((0, 0), (1, 1), (3, 3))

    def test_apex_coincidence_rejected(self):
        with pytest.raises(DegenerateAngle):
            angle_from_rays((1, 1), (1, 1), (2, 3))

    def test_fractional_points(self):
        a = angle_from_rays((0, 0), (Fraction(1, 2), 0), (Fraction(1, 3), Fraction(1, 3)))
        assert a == AngleLit(1, 1)

    def test_translation_invariance(self):
        rng = random.Random(7)
        for _ in range(50):
            apex = (rng.randint(-9, 9), rng.randint(-9, 9))
            p = (apex[0] + rng.randint(1, 9), apex[1] + rng.randint(1, 9))
            q = (apex[0] - rng.randint(1, 9), apex[1] + rng.randint(1, 9))
            shifted = (apex[0] + 13, apex[1] - 5)
            try:
                a = angle_from_rays(apex, p, q)
            except DegenerateAngle:
                continue
            b = angle_from_rays(shifted, (p[0] + 13, p[1] - 5), (q[0] + 13, q[1] - 5))
            assert a == b


class TestRightAngle:
    def test_canonical_form(self):
        assert right_angle() == AngleLit(0, 1)

    def test_matches_ray_construction(self):
        assert right_angle() == angle_from_rays((0, 0), (1, 0), (0, 1))

    def test_two_rights_overflow(self):
        with pytest.raises(AngleOverflow):
            add_two(right_angle(), right_angle())


class TestCompareArgs:
    def test_quarter_below_half(self):
        assert compare_args(PlaneVector(1, 1), PlaneVector(0, 1)) is Ordering.LESS

    def test_identical(self):
        assert compare_args(PlaneVector(-1, 7), PlaneVector(-1, 7)) is Ordering.EQUAL

    def test_cross_product_within_quadrant(self):
        assert compare_args(PlaneVector(3, 4), PlaneVector(4, 3)) is Ordering.GREATER

    def test_rank_ordering_around_the_circle(self):
        around = [
            PlaneVector(1, 0),
            PlaneVector(2, 1),
            PlaneVector(0, 1),
            PlaneVector(-1, 2),
            PlaneVector(-1, 0),
            PlaneVector(-2, -1),
            PlaneVector(0, -1),
            PlaneVector(1, -2),
        ]
        for i, a in enumerate(around):
            for j, b in enumerate(around):
                expected = Ordering.EQUAL if i == j else (Ordering.LESS if i < j else Ordering.GREATER)
                assert compare_args(a, b) is expected

    @given(st.tuples(st.integers(-60, 60), st.integers(-60, 60)).filter(lambda t: t != (0, 0)),
           st.tuples(st.integers(-60, 60), st.integers(-60, 60)).filter(lambda t: t != (0, 0)))
    def test_agrees_with_float_argument(self, u, v):
        gu, gv = gcd(abs(u[0]), abs(u[1])), gcd(abs(v[0]), abs(v[1]))
        a = PlaneVector(u[0] // gu, u[1] // gu)
        b = PlaneVector(v[0] // gv, v[1] // gv)
        fa, fb = math.atan2(a.y, a.x) % (2 * math.pi), math.atan2(b.y, b.x) % (2 * math.pi)
        got = compare_args(a, b)
        if abs(fa - fb) > 1e-9:
            assert got is (Ordering.LESS if fa < fb else Ordering.GREATER)


class TestSumMultiset:
    def test_empty(self):
        s = sum_multiset([])
        assert s.windings == 0 and s.rep == PlaneVector(1, 0)

    def test_four_right_angles_one_turn(self):
        R = right_angle()
        # intermediate reps are forced around the axes
        assert sum_multiset([R]).rep == PlaneVector(0, 1)
        assert sum_multiset([R, R]).rep == PlaneVector(-1, 0)
        assert sum_multiset([R, R, R]).rep == PlaneVector(0, -1)
        s = sum_multiset([R, R, R, R])
        assert (s.windings, s.rep) == (1, PlaneVector(1, 0))

    def test_eight_half_rights_one_turn(self):
        s = sum_multiset([ang(1, 1)] * 8)
        assert (s.windings, s.rep) == (1, PlaneVector(1, 0))

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
            assert sum_multiset([unit] * n) == _fold_sum([unit] * n), n

    @settings(deadline=None)
    @given(angle_lists)
    def test_matches_left_fold(self, items):
        assert sum_multiset(items) == _fold_sum(items)

    def test_large_multiset(self):
        rng = random.Random(16000)
        items = [random_angle(rng) for _ in range(16000)]
        shuffled = items[:]
        rng.shuffle(shuffled)
        total = sum_multiset(items)
        assert sum_multiset(shuffled) == total
        assert total.rep.x.bit_length() > 1024  # beyond float range: the shift is needed
        expected = math.fsum(math.atan2(a.y, a.x) for a in items)
        assert abs(total_radians(total) - expected) < 1e-9


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
        fa, fb = _fold_sum(a), _fold_sum(b)
        assert verdict is (compare_args(fa.rep, fb.rep) if fa.windings == fb.windings
                           else Ordering.LESS if fa.windings < fb.windings else Ordering.GREATER)


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
