"""Exact arithmetic for angles between 0 and pi and for their multiset sums.

An angle is the direction of a primitive integer vector ``(x, y)`` with
``y > 0``; its measure is the argument of ``x + iy``, which is strictly
between 0 and pi.  Euclid compares groups of angles but never forms an angle
of pi or more, and the total of a group is read the same way here: a number
of straight angles (pi each) plus one angle below pi, or none.  Two totals
combine by multiplying their remainders as Gaussian integers; a product at
or past pi is one more straight angle and the product rotated back by pi.
That combination is associative, so ``sum_multiset`` reduces a multiset
pairwise in a balanced tree and the operands of each product stay of similar
size.  A multiset given as counts of distinct angles
(``AngleSum._of_counts``) is summed from each angle's multiple, built by
doubling, and two such multisets sum their common part once.  Sums and
comparisons of arbitrary finite multisets of angles stay in integer
arithmetic throughout: no floats, no trigonometric evaluation, no rounding.

This module owns the right angle ``R``, the angle of the vector (0, 1).  It
is built once, as ``_RIGHT``: :func:`right_angle` returns it, the script
reader reads ``R`` as it, and the judgment printer writes it as ``R``.
"""

from __future__ import annotations

from dataclasses import dataclass
from enum import Enum
from math import gcd
from typing import Iterable, Optional


class DegenerateAngle(ValueError):
    """The requested direction has measure 0 or pi, which no angle has."""


class AngleOverflow(ValueError):
    """Two angles were composed into a measure of pi or more.

    ``args`` holds the two angles; the message is formatted when the
    exception is shown.
    """

    def __str__(self) -> str:
        b, c = self.args
        return f"{b} + {c} measures at least pi"


class Ordering(Enum):
    """Exhaustive three-way comparison result."""

    LESS = "less"
    EQUAL = "equal"
    GREATER = "greater"

    # Members are singletons compared by identity, so they hash as objects:
    # Enum.__hash__ is a Python function, this one is not.
    __hash__ = object.__hash__


# Read once: on Python 3.11 each Ordering.X runs EnumType.__getattr__.
_LESS, _EQUAL, _GREATER = Ordering.LESS, Ordering.EQUAL, Ordering.GREATER


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


# R, the package's one right angle (see the module docstring).
_RIGHT = AngleLit(0, 1)


@dataclass(frozen=True)
class AngleSum:
    """Total measure of a multiset of angles: ``straights`` straight angles
    (pi each) plus ``rest``, one angle below pi, or None when nothing is left
    over.  The empty multiset sums to ``AngleSum(0, None)``.

    Its text ``turns=k, rep=(x,y)`` gives the whole turns ``straights // 2``
    and the direction past them: the remainder's vector, or (1, 0) for none,
    negated when ``straights`` is odd.
    """

    straights: int
    rest: Optional[AngleLit]

    def __post_init__(self) -> None:
        if self.straights < 0:
            raise ValueError("straight-angle count cannot be negative")

    def turns_and_vector(self) -> tuple[int, int, int]:
        """Whole turns and the integer direction of what remains past them."""
        x, y = _vector(self.rest)
        if self.straights % 2:
            x, y = -x, -y
        return self.straights // 2, x, y

    def __str__(self) -> str:
        turns, x, y = self.turns_and_vector()
        return f"turns={turns}, rep=({x},{y})"

    @staticmethod
    def _of_counts(*sides: dict[tuple[int, int], int]) -> list[AngleSum]:
        """The sum of each count map in ``sides``, which maps the reduced pair
        ``(x, y)`` of an angle to how many times it occurs.

        The part that every side holds, each angle at its least count, is
        summed once and combined with the sum of each side's own rest.  Each
        distinct angle's multiple is built by doubling (:func:`_multiples`),
        and :func:`_total` sums the multiples.
        """
        if len(sides) == 1:
            return [_as_sum(_total(_multiples(sides[0])))]
        common = {pair: min([side[pair] for side in sides]) for pair in set(sides[0]).intersection(*sides[1:])}
        shared = _total(_multiples(common))
        sums = []
        for side in sides:
            rest = dict(side)
            for pair, n in common.items():
                rest[pair] -= n
            sums.append(_as_sum(_total([shared, *_multiples(rest)])))
        return sums


def _vector(rest: Optional[AngleLit]) -> tuple[int, int]:
    """The remainder's vector, (1, 0) for none."""
    return (1, 0) if rest is None else (rest.x, rest.y)


def angle_from_slope_vector(x: int, y: int) -> AngleLit:
    """Canonical angle whose measure is the argument of the vector ``(x, y)``.

    Raises DegenerateAngle unless ``y > 0``, i.e. unless the argument is
    strictly between 0 and pi.
    """
    if y <= 0:
        raise DegenerateAngle(f"vector ({x}, {y}) does not point strictly above the x-axis")
    g = gcd(abs(x), y)
    return AngleLit(x // g, y // g)


def right_angle() -> AngleLit:
    """The angle between perpendicular rays, canonically (0, 1)."""
    return _RIGHT


def sum_multiset(angles: Iterable[AngleLit]) -> AngleSum:
    """Total measure of a finite multiset of angles, as straight angles plus
    one angle below pi.  The result is canonical, so it does not depend on
    the iteration order.
    """
    return _as_sum(_total([(0, a.x, a.y) for a in angles]))


def _as_sum(total: tuple[int, int, int]) -> AngleSum:
    """The AngleSum of a ``(straights, x, y)`` total."""
    straights, x, y = total
    return AngleSum(straights, AngleLit(x, y) if y else None)


def _total(level: list[tuple[int, int, int]]) -> tuple[int, int, int]:
    """Sum of ``(straights, x, y)`` totals whose remainder ``(x, y)`` is
    primitive and lies in [0, pi); the empty list sums to ``(0, 1, 0)``.

    Reduces the elements pairwise, one level of a balanced tree at a time.
    Each node multiplies its two remainders as Gaussian integers and divides
    out the gcd so the direction stays primitive.  The product lies in
    [0, 2*pi); at pi or past it (``y < 0``, or ``y == 0`` and ``x < 0``) it
    is one more straight angle and the negated vector.  An odd element at
    the end of a level passes up unchanged.
    """
    if not level:
        return (0, 1, 0)
    while len(level) > 1:
        paired = []
        for i in range(1, len(level), 2):
            s1, x1, y1 = level[i - 1]
            s2, x2, y2 = level[i]
            x = x1 * x2 - y1 * y2
            y = x1 * y2 + y1 * x2
            g = gcd(x, y)
            if g != 1:
                x, y = x // g, y // g
            if y < 0 or (y == 0 and x < 0):
                paired.append((s1 + s2 + 1, -x, -y))
            else:
                paired.append((s1 + s2, x, y))
        if len(level) % 2:
            paired.append(level[-1])
        level = paired
    return level[0]


def _multiples(counts: dict[tuple[int, int], int]) -> list[tuple[int, int, int]]:
    """Each angle of ``counts`` times its count, as a ``(straights, x, y)``
    total; an angle counted 0 times is left out.  The multiple is built left
    to right over the bits of the count: the running multiple times itself,
    then times the angle where the bit is set, each product by
    :func:`_total`'s node rule, written out here: a call per step costs more
    than the step."""
    out = []
    for (ax, ay), n in counts.items():
        if not n:
            continue
        s, x, y = 0, ax, ay
        for bit in bin(n)[3:]:
            x, y = x * x - y * y, 2 * x * y
            g = gcd(x, y)
            if g != 1:
                x, y = x // g, y // g
            s += s
            if y < 0 or (y == 0 and x < 0):
                s, x, y = s + 1, -x, -y
            if bit == "1":
                # No gcd: a power of a primitive angle has no rational factor
                # but the 2s of (1 + i)**2, which the squaring's gcd took out,
                # so (x, y) has no factor 1 + i and times the angle stays primitive.
                x, y = x * ax - y * ay, x * ay + y * ax
                if y < 0 or (y == 0 and x < 0):
                    s, x, y = s + 1, -x, -y
        out.append((s, x, y))
    return out


def compare_sums(a: AngleSum, b: AngleSum) -> Ordering:
    """Exact order of two multiset sums by total measure (see :func:`_order`)."""
    return _order((a.straights, *_vector(a.rest)), (b.straights, *_vector(b.rest)))


def _order(a: tuple[int, int, int], b: tuple[int, int, int]) -> Ordering:
    """Exact order of two ``(straights, x, y)`` totals.

    Orders by the count of straight angles, then by the remainders.  Both
    remainders lie in [0, pi), so the sign of their cross product decides,
    and a zero cross product means the same remainder.
    """
    if a[0] != b[0]:
        return _LESS if a[0] < b[0] else _GREATER
    cross = a[1] * b[2] - a[2] * b[1]
    if cross > 0:
        return _LESS
    if cross < 0:
        return _GREATER
    return _EQUAL


def compare_multisets(a: Iterable[AngleLit], b: Iterable[AngleLit]) -> Ordering:
    """Exact total order on finite multisets of angles, by total measure.

    Sums both multisets and orders the sums with :func:`compare_sums`.
    """
    return compare_sums(sum_multiset(a), sum_multiset(b))


def add_two(b: AngleLit, c: AngleLit) -> AngleLit:
    """The single angle measuring arg(b) + arg(c); inverse of splitting.

    Defined only when the combined measure stays strictly below pi: the two
    are summed by :func:`_total`, and a sum that carries a straight angle
    raises AngleOverflow.
    """
    straights, x, y = _total([(0, b.x, b.y), (0, c.x, c.y)])
    if straights:
        raise AngleOverflow(b, c)
    return AngleLit(x, y)
