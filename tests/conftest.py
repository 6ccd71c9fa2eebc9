import random
from pathlib import Path

import pytest

from eukleia.calculus import MultisetExpr, Term
from eukleia.kernel import AngleLit, angle_from_slope_vector

CORPUS_DIR = Path(__file__).resolve().parent.parent / "src" / "eukleia" / "corpus"


def ang(x: int, y: int) -> AngleLit:
    return angle_from_slope_vector(x, y)


def multiset(*terms: Term) -> MultisetExpr:
    return MultisetExpr(tuple(terms))


def random_angle(rng: random.Random, bound: int = 50) -> AngleLit:
    while True:
        x = rng.randint(-bound, bound)
        y = rng.randint(1, bound)
        if x or y:
            return angle_from_slope_vector(x, y)


def nested_cases_script(depth: int) -> str:
    """``depth`` cases steps, each in the first branch of the one before;
    the innermost step, ``X``, sits ``depth`` branches deep on line depth + 3."""
    goal = "Lt {a} {b}"
    lines = ["vars a b;", "hyp H: Lt {a} {b};"]
    lines += [f"K{i}: {goal} by cases {{a}} {{b}} {{" for i in range(depth)]
    lines.append(f"X: {goal} by hypothesis H;")
    lines += [f"}} {{ Y{i}: {goal} by hypothesis H; }} {{ Z{i}: {goal} by hypothesis H; }};"
              for i in reversed(range(depth))]
    return "\n".join(lines) + "\n"


@pytest.fixture
def corpus_dir() -> Path:
    return CORPUS_DIR
