"""Acceptance suite: one test per shipped criterion, each printing a
PASS/FAIL line.  Tolerances and runtime budgets are pinned here, not
configurable.  Run with ``pytest tests/test_acceptance.py -v -s``."""

import json
import math
import random
import time

import pytest

from eukleia.calculus import Rule, StepError, check_derivation
from eukleia.cli import EXIT_OK, EXIT_STEP, main
from eukleia.dsl import parse_proof
from eukleia.kernel import AngleOverflow, Ordering, add_two, compare_multisets, sum_multiset

from conftest import CORPUS_DIR, ang
from test_corpus import GOOD_FILES, load_manifest, walk_rules
from test_semantics import NON_VACUOUS, assert_rule_sound


def announce(number: int, ok: bool, text: str) -> None:
    print(f"ACCEPTANCE {number}: {'PASS' if ok else 'FAIL'} - {text}")
    assert ok, f"criterion {number}: {text}"


def best_of(runs: int, fn):
    """Smallest wall-clock time of ``runs`` invocations, plus the last result."""
    best, result = math.inf, None
    for _ in range(runs):
        t0 = time.perf_counter()
        result = fn()
        best = min(best, time.perf_counter() - t0)
    return best, result


def random_multiset(rng, max_size=6, bound=50):
    out = []
    for _ in range(rng.randint(0, max_size)):
        while True:
            x, y = rng.randint(-bound, bound), rng.randint(-bound, bound)
            if y > 0:
                out.append(ang(x, y))
                break
    return out


def test_criterion_1_four_right_angles_compose_one_turn(capsys):
    elapsed, code = best_of(3, lambda: main(["eval", "{R,R,R,R}"]))
    out = capsys.readouterr().out
    first_line = out.splitlines()[0]
    with capsys.disabled():
        announce(1, code == EXIT_OK and first_line == "turns=1, rep=(1,0)" and elapsed < 0.010,
                 f"eval {{R,R,R,R}} -> {first_line!r} in {elapsed * 1000:.2f} ms (< 10 ms)")


def test_criterion_2_adjacent_angles_proof_and_mutation(capsys):
    good = str(CORPUS_DIR / "prop13.eap")
    broken = str(CORPUS_DIR / "prop13_broken.eap")

    def run_both():
        return main(["check", good]), main(["check", broken])

    elapsed, (code_good, code_broken) = best_of(3, run_both)
    capsys.readouterr()
    rules = list(walk_rules(parse_proof((CORPUS_DIR / "prop13.eap").read_text(encoding="utf-8")).steps))
    uses_narrated_rules = Rule.ADD_BOTH in rules and Rule.EQ_TRANS in rules
    with capsys.disabled():
        announce(2, code_good == EXIT_OK and code_broken == EXIT_STEP and uses_narrated_rules
                 and elapsed < 0.050,
                 f"check prop13 -> {code_good}, broken -> {code_broken}, AddBoth+EqTrans used, "
                 f"{elapsed * 1000:.2f} ms (< 50 ms)")


def test_criterion_3_fifth_postulate_comparison(capsys):
    elapsed, code = best_of(3, lambda: main(["compare", "{ang(3/4), ang(1/1)}", "{R,R}"]))
    verdict = capsys.readouterr().out.splitlines()[0]
    oracle_sum = math.atan2(4, 3) + math.pi / 4
    oracle_says_less = oracle_sum < math.pi - 1e-9
    with capsys.disabled():
        announce(3, code == EXIT_OK and verdict == "LESS" and oracle_says_less and elapsed < 0.010,
                 f"compare -> {verdict}, oracle {oracle_sum:.9f} < pi - 1e-9, "
                 f"{elapsed * 1000:.2f} ms (< 10 ms)")


def test_criterion_4_order_laws(capsys):
    rng = random.Random(2024)
    flip = {Ordering.LESS: Ordering.GREATER, Ordering.GREATER: Ordering.LESS,
            Ordering.EQUAL: Ordering.EQUAL}
    violations = 0
    t0 = time.perf_counter()
    for _ in range(10_000):
        a, b, c = (random_multiset(rng) for _ in range(3))
        ab, ba = compare_multisets(a, b), compare_multisets(b, a)
        bc, ac = compare_multisets(b, c), compare_multisets(a, c)
        if ab not in (Ordering.LESS, Ordering.EQUAL, Ordering.GREATER):  # totality
            violations += 1
        if ba is not flip[ab]:  # antisymmetry
            violations += 1
        if compare_multisets(a, a) is not Ordering.EQUAL:  # reflexivity
            violations += 1
        if ab is bc and ac is not ab:  # transitivity
            violations += 1
        if ab is Ordering.EQUAL and bc is not ac:  # substitutivity of equals
            violations += 1
    elapsed = time.perf_counter() - t0
    with capsys.disabled():
        announce(4, violations == 0 and elapsed < 5.0,
                 f"order laws on 10000 triples: {violations} violations, {elapsed:.2f} s (< 5 s)")


def test_criterion_5_rule_soundness(capsys):
    t0 = time.perf_counter()
    fired = {}
    for rule in Rule:
        fired[rule] = assert_rule_sound(rule, iterations=10_000, seed=2025)
    elapsed = time.perf_counter() - t0
    non_vacuous_ok = all(fired[rule] > 0 for rule in NON_VACUOUS)
    with capsys.disabled():
        announce(5, non_vacuous_ok and elapsed < 30.0,
                 f"{len(list(Rule))} rules x 10000 instantiations, 0 counterexamples, "
                 f"{elapsed:.2f} s (< 30 s)")


def test_criterion_6_split_compose_duality(capsys):
    rng = random.Random(4096)
    t0 = time.perf_counter()
    checked = 0
    exact = True
    while checked < 10_000:
        while True:
            x, y = rng.randint(-20, 20), rng.randint(-20, 20)
            if y > 0:
                beta = ang(x, y)
                break
        while True:
            x, y = rng.randint(-20, 20), rng.randint(-20, 20)
            if y > 0:
                gamma = ang(x, y)
                break
        try:
            alpha = add_two(beta, gamma)
        except AngleOverflow:
            continue
        checked += 1
        if compare_multisets([alpha], [beta, gamma]) is not Ordering.EQUAL:
            exact = False
            break
    elapsed = time.perf_counter() - t0
    with capsys.disabled():
        announce(6, exact and elapsed < 5.0,
                 f"10000 defined compositions all Equal, {elapsed:.2f} s (< 5 s)")


def test_criterion_7_winding_measure_agreement(capsys):
    rng = random.Random(512)
    t0 = time.perf_counter()
    worst = 0.0
    for _ in range(1_000):
        items = []
        for _ in range(rng.randint(0, 20)):
            while True:
                x, y = rng.randint(-1000, 1000), rng.randint(-1000, 1000)
                if y > 0:
                    items.append(ang(x, y))
                    break
        s = sum_multiset(items)
        rest = math.atan2(s.rest.y, s.rest.x) if s.rest else 0.0
        exact_total = math.pi * s.straights + rest
        float_total = sum(math.atan2(a.y, a.x) for a in items)
        worst = max(worst, abs(exact_total - float_total))
    elapsed = time.perf_counter() - t0
    with capsys.disabled():
        announce(7, worst < 1e-9 and elapsed < 5.0,
                 f"1000 multisets (size <= 20): worst deviation {worst:.2e} (< 1e-9), "
                 f"{elapsed:.2f} s (< 5 s)")


def test_criterion_8_mutation_resistance(capsys):
    mdir, manifest = load_manifest()
    t0 = time.perf_counter()
    accurate = 0
    for entry in manifest:
        derivation = parse_proof((mdir / entry["file"]).resolve().read_text(encoding="utf-8"))
        try:
            check_derivation(derivation)
        except StepError as err:
            if err.label == entry["step"]:
                accurate += 1
    elapsed = time.perf_counter() - t0
    with capsys.disabled():
        announce(8, len(manifest) >= 10 and accurate == len(manifest) and elapsed < 1.0,
                 f"{accurate}/{len(manifest)} corrupted proofs rejected at the exact step, "
                 f"{elapsed:.2f} s (< 1 s)")


def test_criterion_9_modelcheck_determinism(capsys):
    identical = True
    all_ok = True
    for name in GOOD_FILES:
        path = str(CORPUS_DIR / name)
        outputs = []
        for _ in range(2):
            code = main(["modelcheck", path, "--trials", "1000", "--seed", "7", "--json"])
            outputs.append(capsys.readouterr().out.encode("utf-8"))
            all_ok = all_ok and code == EXIT_OK
        if outputs[0] != outputs[1]:
            identical = False
    with capsys.disabled():
        announce(9, identical and all_ok,
                 f"modelcheck --trials 1000 --seed 7 byte-identical across reruns on "
                 f"{len(GOOD_FILES)} corpus files")
