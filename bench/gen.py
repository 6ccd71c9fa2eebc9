"""Seeded inputs for the eukleia benchmark, each paired with the answer it must give.

Every answer here is known without running eukleia: corpus verdicts come from
the mutation manifest, generated proofs are valid (or broken at a known label)
by construction, multiset comparisons are fixed by how the operands were
built, and ``eval`` results are checked against a float sum of the angles.
The arithmetic below is a few lines of Gaussian-integer multiplication kept
independent of ``eukleia.kernel``.
"""

from __future__ import annotations

import json
import math
import random
import re
from dataclasses import dataclass, field
from math import gcd
from pathlib import Path
from typing import Optional

# Criterion 7's margin between the exact measure and a float sum of the angles.
FLOAT_MARGIN = 1e-9


@dataclass
class Case:
    """One CLI invocation and the report it must produce."""

    name: str
    argv: list[str]
    work: int  # trials, proof steps or angles, depending on the workload
    exit: int = 0
    status: str = "ok"
    step: Optional[str] = None
    result: Optional[str] = None
    trials: Optional[int] = None
    steps: Optional[int] = None  # expected ``detail.steps`` of an ok check
    radians: Optional[float] = None  # float oracle for an ``eval`` total


def verify(case: Case, code: int, out: str) -> Optional[str]:
    """Return why the captured report disagrees with the known answer, or None."""
    lines = out.splitlines()
    if len(lines) != 1:
        return f"expected one JSON line, got {len(lines)}"
    try:
        rep = json.loads(lines[0])
        rep["status"], rep["step"], rep["result"], rep["trials"], rep["satisfied"], rep["detail"]
    except (ValueError, TypeError, KeyError):
        return f"not a JSON report: {lines[0][:200]!r}"
    if code != case.exit:
        return f"exit {code}, expected {case.exit}"
    if rep["status"] != case.status:
        return f"status {rep['status']!r}, expected {case.status!r}"
    if rep["step"] != case.step:
        return f"step {rep['step']!r}, expected {case.step!r}"
    if case.result is not None and rep["result"] != case.result:
        return f"result {rep['result']!r}, expected {case.result!r}"
    if case.trials is not None:
        if rep["trials"] != case.trials:
            return f"trials {rep['trials']}, expected {case.trials}"
        if not rep["satisfied"]:
            return "ok verdict without a single satisfied trial"
    if case.steps is not None and (rep["detail"] or {}).get("steps") != case.steps:
        return f"detail {rep['detail']!r}, expected {case.steps} steps"
    if case.radians is not None:
        total = _sum_radians(rep["result"])
        if total is None or abs(total - case.radians) >= FLOAT_MARGIN:
            return f"eval {rep['result']!r} is not {case.radians!r} rad"
    return None


_SUM = re.compile(r"turns=(\d+), rep=\((-?\d+),(-?\d+)\)$")


def _approx(digits: str) -> tuple[float, int]:
    # Leading digits and a decimal exponent: reads integers of any length
    # without the interpreter's limit on integer string conversion.
    sign = -1.0 if digits.startswith("-") else 1.0
    digits = digits.lstrip("-")
    head = digits[:17]
    return sign * float(head), len(digits) - len(head)


def _sum_radians(text: Optional[str]) -> Optional[float]:
    m = _SUM.match(text or "")
    if m is None:
        return None
    (x, ex), (y, ey) = _approx(m.group(2)), _approx(m.group(3))
    top = max(ex, ey)
    arg = math.atan2(y * 10.0 ** (ey - top), x * 10.0 ** (ex - top))
    if arg < 0:
        arg += 2 * math.pi
    return 2 * math.pi * int(m.group(1)) + arg


# ---------------------------------------------------------------------------
# Corpus files with verdicts from the mutation manifest


def corpus_cases(corpus: Path) -> list[Case]:
    """``check`` on the top-level corpus files and every manifest mutation."""
    mdir = corpus / "mutations"
    broken = {}
    for entry in json.loads((mdir / "manifest.json").read_text(encoding="utf-8")):
        broken[(mdir / entry["file"]).resolve()] = entry["step"]
    paths = sorted(corpus.glob("*.eap")) + sorted(mdir.glob("*.eap"))
    cases = []
    for path in paths:
        text = path.read_text(encoding="utf-8")
        step = broken.get(path.resolve())
        name = f"{path.parent.name}/{path.name}"
        if step is None:
            cases.append(Case(name, ["check", str(path)], _count_steps(text)))
        else:
            cases.append(Case(name, ["check", str(path)], _count_steps(text, step),
                              exit=3, status="step-error", step=step))
    return cases


def _count_steps(text: str, upto: Optional[str] = None) -> int:
    """Step statements in source order, through the one labelled ``upto``."""
    code = re.sub(r"#[^\n]*", "", text)
    if upto is not None:
        m = re.search(rf"(?m)^\s*{re.escape(upto)}\s*:", code)
        code = code[: code.index(";", m.end())] if m else ""
    return len(re.findall(r"\bby\b", code))


# ---------------------------------------------------------------------------
# Angles and multisets


def angle(x: int, y: int) -> tuple[int, int]:
    g = gcd(abs(x), y)
    return x // g, y // g


def random_angle(rng: random.Random, bound: int) -> tuple[int, int]:
    return angle(rng.randint(-bound, bound), rng.randint(1, bound))


def lit(a: tuple[int, int]) -> str:
    return f"ang({a[0]}/{a[1]})"


def multiset(angles) -> str:
    return "{" + ", ".join(map(lit, angles)) + "}"


def _radians(angles) -> float:
    return math.fsum(math.atan2(y, x) for x, y in angles)


def _raise(a: tuple[int, int]) -> tuple[int, int]:
    # (x - 1, y) points further counterclockwise and still above the x-axis.
    return angle(a[0] - 1, a[1])


def _rotated_pairs(angles: list, rng: random.Random) -> list:
    """The same total from operands sharing no angle with ``angles``.

    Consecutive pairs (a, b) become (a + r, b - r) for a small angle r, so
    the sum is unchanged by construction.  ``angles`` has even length.
    """
    have = set(angles)
    out = []
    for a, b in zip(angles[::2], angles[1::2]):
        k = 2 * max(abs(a[0]), a[1], abs(b[0]), b[1]) + rng.randint(0, 8)
        while True:
            # r = (k, 1); a*r and b*conj(r) stay above the x-axis because r
            # is narrower than any angle with coordinates below k/2.
            a2 = angle(a[0] * k - a[1], a[0] + a[1] * k)
            b2 = angle(b[0] * k + b[1], b[1] * k - b[0])
            if a2 not in have and b2 not in have:
                break
            k += 1
        out += [a2, b2]
    return out


def kernel_cases(rng: random.Random, n: int, bound: int) -> list[Case]:
    """``compare`` with shared and disjoint operands, and ``eval``, at size ``n``."""
    tag = f"n{n}-c{bound}"
    base = [random_angle(rng, bound) for _ in range(n)]
    shared = base[:]
    rng.shuffle(shared)
    disjoint = _rotated_pairs(base, rng)
    rng.shuffle(disjoint)
    cases = []
    for kind, other in (("shared", shared), ("disjoint", disjoint)):
        verdict = rng.choice(("EQUAL", "GREATER", "LESS"))
        other = other[:]
        i = rng.randrange(len(other))
        if verdict == "GREATER":
            del other[i]
        elif verdict == "LESS":
            other[i] = _raise(other[i])
        cases.append(Case(f"compare-{kind}-{verdict.lower()}-{tag}",
                          ["compare", multiset(base), multiset(other)],
                          len(base) + len(other), result=verdict))
    cases.append(Case(f"eval-{tag}", ["eval", multiset(base)], n, radians=_radians(base)))
    return cases


# ---------------------------------------------------------------------------
# Proof scripts, valid by construction or broken at a known label


@dataclass
class Script:
    name: str
    lines: list[str] = field(default_factory=list)
    steps: int = 0  # every step statement, including those inside cases blocks
    top: int = 0  # top-level steps, as ``check`` reports them
    fail: Optional[str] = None  # label the checker must reject
    fail_steps: int = 0  # steps in source order through the rejected one

    def text(self) -> str:
        return "\n".join(self.lines) + "\n"

    def case(self, path: Path, argv: list[str], trials: Optional[int] = None) -> Case:
        """Write the script to ``path`` and run ``argv`` on it; model-check
        cases count trials as their work, check cases count steps."""
        path.write_text(self.text(), encoding="utf-8")
        argv = [argv[0], str(path), *argv[1:]]
        if self.fail is not None:
            return Case(self.name, argv, self.fail_steps, exit=3, status="step-error", step=self.fail)
        if trials is not None:
            return Case(self.name, argv, trials, trials=trials)
        return Case(self.name, argv, self.steps, steps=self.top)


def _ms(terms) -> str:
    return "{" + ", ".join(terms) + "}"


class _Writer:
    """Appends step statements, writing the bad form for the corrupted label."""

    def __init__(self, script: Script, corrupt: Optional[str] = None):
        self.s = script
        self.corrupt = corrupt

    def step(self, label: str, good: str, bad: str = "", depth: int = 0) -> None:
        s = self.s
        s.steps += 1
        s.top += depth == 0
        text = good
        if label == self.corrupt:
            text, s.fail, s.fail_steps = bad, label, s.steps
        s.lines.append("    " * depth + f"{label}: {text};")


def _pool(rng: random.Random, names: list[str]) -> list[str]:
    """Distinct terms: the variables, R and three other literal angles."""
    lits: set[tuple[int, int]] = set()
    while len(lits) < 3:
        a = random_angle(rng, 20)
        if a != (0, 1):
            lits.add(a)
    return names + ["R"] + [lit(a) for a in sorted(lits)]


def chain_script(rng: random.Random, rounds: int, corrupt: bool = False) -> Script:
    """A long addboth/eqrefl/substright/eqtrans chain over growing multisets.

    Each round adds a term t to Eq(L, R), giving Eq(L+t, R+t), then turns it
    around to Eq(R+t, L+t).  The two sides always differ in size, so every
    corruption below is a step its rule rejects.
    """
    names = ["x1", "x2", "x3", "x4", "x5", "x6"]
    s = Script(f"chain-{rounds}{'-broken' if corrupt else ''}")
    w = _Writer(s, f"{rng.choice('ABCD')}{rng.randint(1, rounds)}" if corrupt else None)
    s.lines += [f"vars {' '.join(names)};", f"hyp H: Eq {{x1}} {{x2, x3}};"]
    left, right, cur = ["x1"], ["x2", "x3"], "H"
    pool = _pool(rng, names)
    for i in range(1, rounds + 1):
        t, other = rng.sample(pool, 2)
        lt, rt = left + [t], right + [t]
        a, b, c, d = f"A{i}", f"B{i}", f"C{i}", f"D{i}"
        w.step(a, f"Eq {_ms(lt)} {_ms(rt)} by addboth {cur}",
               f"Eq {_ms(lt)} {_ms(right + [other])} by addboth {cur}")
        w.step(b, f"Eq {_ms(rt)} {_ms(rt)} by eqrefl", f"Eq {_ms(rt)} {_ms(right)} by eqrefl")
        w.step(c, f"Eq {_ms(rt)} {_ms(lt)} by substright {a} {b}",
               f"Eq {_ms(rt)} {_ms(lt)} by substright {b} {a}")
        w.step(d, f"Eq {_ms(lt)} {_ms(lt)} by eqtrans {a} {c}",
               f"Eq {_ms(rt)} {_ms(lt)} by eqtrans {a} {c}")
        left, right, cur = rt, lt, c
    return s


def nested_cases_script(rng: random.Random, depth: int, corrupt: bool = False) -> Script:
    """Cases blocks nested ``depth`` deep, each branch using its own ``case``."""
    names = ["a", "b", "c", "d"]
    s = Script(f"cases-{depth}{'-broken' if corrupt else ''}")
    w = _Writer(s, f"K{rng.randint(1, depth)}b{rng.randrange(3)}a" if corrupt else None)
    s.lines += [f"vars {' '.join(names)};", "hyp H: Lt {a} {b};"]
    w.step("S1", "Lt {a} {b} by hypothesis H")
    goal = "Lt {a} {b}"
    pool = _pool(rng, names)
    count = 0

    def block(level: int, indent: int) -> None:
        nonlocal count
        count += 1
        m = rng.sample(names, rng.randint(1, 2))
        n = rng.sample(names, rng.randint(1, 2))
        head = f"K{count}"
        s.steps += 1
        s.top += indent == 0
        s.lines.append("    " * indent + f"{head}: {goal} by cases {_ms(m)} {_ms(n)} {{")
        inner = rng.randrange(3)
        for i, (kind, lhs, rhs) in enumerate((("Lt", m, n), ("Eq", m, n), ("Lt", n, m))):
            if i:
                s.lines.append("    " * indent + "} {")
            t, other = rng.sample(pool, 2)
            w.step(f"{head}b{i}a", f"{kind} {_ms(lhs + [t])} {_ms(rhs + [t])} by addboth case",
                   f"{kind} {_ms(lhs + [t])} {_ms(rhs + [other])} by addboth case", indent + 1)
            if i == inner and level > 1:
                block(level - 1, indent + 1)
            w.step(f"{head}b{i}z", f"{goal} by hypothesis H", depth=indent + 1)
        s.lines.append("    " * indent + "};")

    block(depth, 0)
    return s


def split_chain_script(rng: random.Random, growth: int) -> Script:
    """Splits onto variable wholes, then Eq chains of growing multiset size.

    w1 = p0 + p1 and w2 = w1 + p2 are composed by the sampler, so a trial
    costs a few draws; the time goes to evaluating the growing judgments.
    """
    p0, p1, p2 = rng.sample(["p", "q", "r"], 3)
    s = Script(f"splits-{growth}")
    w = _Writer(s)
    s.lines += ["vars w1 w2 p q r;", f"hyp H1: Split w1 {p0} {p1};", f"hyp H2: Split w2 w1 {p2};"]
    w.step("S1", f"Eq {{w1}} {{{p0}, {p1}}} by spliteq H1")
    w.step("S2", f"Eq {{w2}} {{w1, {p2}}} by spliteq H2")
    w.step("S3", f"Eq {{w1, {p2}}} {{{p0}, {p1}, {p2}}} by addboth S1")
    w.step("S4", f"Eq {{w2}} {{{p0}, {p1}, {p2}}} by eqtrans S2 S3")
    w.step("S5", f"Lt {{{p0}}} {{{p0}, {p1}}} by wholepart")
    w.step("S6", f"Lt {{{p0}}} {{w1}} by substright S1 S5")
    left, right, cur = ["w2"], [p0, p1, p2], "S4"
    pool = _pool(rng, ["w1", "w2", "p", "q", "r"])
    for i in range(1, growth + 1):
        t = rng.choice(pool)
        left, right = left + [t], right + [t]
        w.step(f"G{i}", f"Eq {_ms(left)} {_ms(right)} by addboth {cur}")
        cur = f"G{i}"
    return s
