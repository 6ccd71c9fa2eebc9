"""Exact arithmetic for angles between 0 and pi and for their multiset sums.

An angle is the direction of a primitive integer vector ``(x, y)`` with
``y > 0``; its measure is the argument of ``x + iy``, which is strictly
between 0 and pi.  A sum of angles is a winding count plus a direction, and
two sums combine by multiplying their directions as Gaussian integers and
adding their winding counts, plus one when the product wraps past a full
turn.  That combination is associative, so ``sum_multiset`` reduces a
multiset pairwise in a balanced tree and the operands of each product stay
of similar size.  Sums and comparisons of arbitrary finite multisets of
angles stay in integer arithmetic throughout: no floats, no trigonometric
evaluation, no rounding.
"""

from __future__ import annotations

from dataclasses import dataclass
from enum import Enum
from fractions import Fraction
from math import gcd, lcm
from typing import Iterable

__all__ = [
    "AngleLit",
    "AngleOverflow",
    "AngleSum",
    "DegenerateAngle",
    "Ordering",
    "PlaneVector",
    "add_two",
    "angle_from_rays",
    "angle_from_slope_vector",
    "compare_args",
    "compare_multisets",
    "compare_sums",
    "right_angle",
    "sum_multiset",
]


class DegenerateAngle(ValueError):
    """The requested direction has measure 0 or pi, which no angle has."""


class AngleOverflow(ValueError):
    """Two angles were composed into a measure of pi or more.

    ``args`` holds the two angles; the message is formatted only when the
    exception is shown, since the sampler rejects overflowing candidates by
    the thousand and never shows them.
    """

    def __str__(self) -> str:
        b, c = self.args
        return f"{b} + {c} measures at least pi"


class Ordering(Enum):
    """Exhaustive three-way comparison result."""

    LESS = "less"
    EQUAL = "equal"
    GREATER = "greater"


@dataclass(frozen=True)
class AngleLit:
    """A canonical angle: primitive vector with ``y > 0``, argument in (0, pi).

    ``x`` may be negative (obtuse angles) or zero (the right angle); the
    invariants ``y > 0`` and ``gcd(|x|, y) = 1`` make representations unique,
    so two AngleLits denote the same angle exactly when they are equal.
    """

    x: int
    y: int

    def __post_init__(self) -> None:
        if self.y <= 0:
            raise DegenerateAngle(
                f"angle vector ({self.x}, {self.y}) must point strictly above the x-axis"
            )
        if gcd(abs(self.x), self.y) != 1:
            raise ValueError(f"angle vector ({self.x}, {self.y}) is not reduced")

    def __str__(self) -> str:
        return f"ang({self.x}/{self.y})"


@dataclass(frozen=True)
class PlaneVector:
    """Nonzero primitive integer vector; its argument lives in [0, 2*pi)."""

    x: int
    y: int

    def __post_init__(self) -> None:
        if self.x == 0 and self.y == 0:
            raise ValueError("zero vector has no direction")
        if gcd(abs(self.x), abs(self.y)) != 1:
            raise ValueError(f"vector ({self.x}, {self.y}) is not reduced")

    def __str__(self) -> str:
        return f"({self.x},{self.y})"


@dataclass(frozen=True)
class AngleSum:
    """Total measure of a multiset of angles.

    The measure is ``2*pi*windings`` plus the argument of ``rep``.  The empty
    multiset sums to zero turns with representative (1, 0).
    """

    windings: int
    rep: PlaneVector

    def __post_init__(self) -> None:
        if self.windings < 0:
            raise ValueError("winding count cannot be negative")

    def __str__(self) -> str:
        return f"turns={self.windings}, rep=({self.rep.x},{self.rep.y})"


def angle_from_slope_vector(x: int, y: int) -> AngleLit:
    """Canonical angle whose measure is the argument of the vector ``(x, y)``.

    Raises DegenerateAngle unless ``y > 0``, i.e. unless the argument is
    strictly between 0 and pi.
    """
    if y <= 0:
        raise DegenerateAngle(f"vector ({x}, {y}) does not point strictly above the x-axis")
    g = gcd(abs(x), y)
    return _reduced(AngleLit, x // g, y // g)


def _reduced(cls, x: int, y: int):
    """The AngleLit or PlaneVector of a pair that already meets the class's
    invariants, built without running its ``__post_init__`` checks again."""
    value = object.__new__(cls)
    fields = value.__dict__  # written directly: the frozen class's __setattr__ refuses
    fields["x"] = x
    fields["y"] = y
    return value


def right_angle() -> AngleLit:
    """The angle between perpendicular rays, canonically (0, 1)."""
    return AngleLit(0, 1)


def angle_from_rays(apex, p, q) -> AngleLit:
    """Angle at ``apex`` between the rays toward ``p`` and ``q``.

    Points are pairs of integers or :class:`~fractions.Fraction`.  Only the
    dot and cross products of the two ray vectors are used; both scale by
    the same positive factor, so no square roots are involved and the result
    is exact.  Collinear rays (inclination 0 or pi) raise DegenerateAngle.
    """
    ux = Fraction(p[0]) - Fraction(apex[0])
    uy = Fraction(p[1]) - Fraction(apex[1])
    vx = Fraction(q[0]) - Fraction(apex[0])
    vy = Fraction(q[1]) - Fraction(apex[1])
    dot = ux * vx + uy * vy
    cross = ux * vy - uy * vx
    if cross == 0:
        raise DegenerateAngle("rays are collinear: the inclination is 0 or pi")
    scale = lcm(dot.denominator, cross.denominator)
    return angle_from_slope_vector(int(dot * scale), int(abs(cross) * scale))


def compare_args(a: PlaneVector, b: PlaneVector) -> Ordering:
    """Order two directions exactly by argument in [0, 2*pi).

    Directions in [0, pi) come before those in [pi, 2*pi).  Within one half
    the two arguments differ by less than pi, so the sign of the cross
    product decides, and a zero cross product means the same direction.
    """
    upper_a = a.y > 0 or (a.y == 0 and a.x > 0)
    upper_b = b.y > 0 or (b.y == 0 and b.x > 0)
    if upper_a != upper_b:
        return Ordering.LESS if upper_a else Ordering.GREATER
    cross = a.x * b.y - a.y * b.x
    if cross > 0:
        return Ordering.LESS
    if cross < 0:
        return Ordering.GREATER
    return Ordering.EQUAL


_UNIT = PlaneVector(1, 0)


def sum_multiset(angles: Iterable[AngleLit]) -> AngleSum:
    """Total measure of a finite multiset of angles.

    Reduces the elements pairwise, one level of a balanced tree at a time,
    over ``(windings, x, y, lower)`` tuples; ``lower`` says the argument of
    ``(x, y)`` is in [pi, 2*pi).  Each node multiplies its two directions as
    Gaussian integers, divides out the gcd so the direction stays primitive,
    and adds the two winding counts plus a carry.  Writing each argument as
    ``pi*h + r`` (``h`` the lower bit, ``0 <= r < pi``), the floor of the
    sum over pi is ``h1 + h2`` or one more, and also ``h + 2*carry`` for the
    product, so the carry is 1 exactly when ``h1 + h2 > h``.  An odd element
    at the end of a level passes up unchanged.  The result is canonical, so
    it does not depend on the iteration order.
    """
    level = [(0, a.x, a.y, False) for a in angles]
    if not level:
        return AngleSum(0, _UNIT)
    while len(level) > 1:
        paired = []
        for i in range(1, len(level), 2):
            w1, x1, y1, lower1 = level[i - 1]
            w2, x2, y2, lower2 = level[i]
            x = x1 * x2 - y1 * y2
            y = x1 * y2 + y1 * x2
            g = gcd(x, y)
            if g != 1:
                x, y = x // g, y // g
            lower = y < 0 or (y == 0 and x < 0)
            paired.append((w1 + w2 + (lower1 + lower2 > lower), x, y, lower))
        if len(level) % 2:
            paired.append(level[-1])
        level = paired
    windings, x, y, _ = level[0]
    return AngleSum(windings, _reduced(PlaneVector, x, y))


def compare_sums(a: AngleSum, b: AngleSum) -> Ordering:
    """Exact order of two multiset sums by total measure.

    Orders lexicographically by (winding count, argument of the
    representative); Equal means the winding counts agree and the canonical
    representatives are identical.
    """
    if a.windings != b.windings:
        return Ordering.LESS if a.windings < b.windings else Ordering.GREATER
    return compare_args(a.rep, b.rep)


def compare_multisets(a: Iterable[AngleLit], b: Iterable[AngleLit]) -> Ordering:
    """Exact total order on finite multisets of angles, by total measure.

    Sums both multisets and orders the sums with :func:`compare_sums`.
    """
    return compare_sums(sum_multiset(a), sum_multiset(b))


def add_two(b: AngleLit, c: AngleLit) -> AngleLit:
    """The single angle measuring arg(b) + arg(c); inverse of splitting.

    Defined only when the combined measure stays strictly below pi; since
    each operand is below pi the composed vector points into the upper
    half-plane exactly in that case, so ``y <= 0`` raises AngleOverflow.
    """
    x = b.x * c.x - b.y * c.y
    y = b.x * c.y + b.y * c.x
    if y <= 0:
        raise AngleOverflow(b, c)
    g = gcd(abs(x), y)
    return _reduced(AngleLit, x // g, y // g)
