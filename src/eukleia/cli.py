"""Command-line front end: check proofs, compare and evaluate expressions,
model-check scripts, and run the bundled corpus.

A report's ``status`` decides the exit code (``_EXIT_CODES``), a stable
contract: ``ok`` 0, ``parse-error`` 2, ``step-error`` 3, ``counterexample`` 4,
``vacuous`` 5 (no valuation met the hypotheses, or none was drawn, so no step
was checked) and ``too-large`` 6 (an ``eval`` or ``compare`` sum with a
coordinate of more digits than the interpreter converts to text).  A command
with no report, because it could read nothing (including a ``corpus``
directory that is missing or holds no script to check), exits 1.  For
``corpus`` the first parse, step or counterexample failure sets the exit code,
and 5 applies only when there is none.

``eval`` and ``compare`` accept literal-only expressions: each term is then an
angle.  The counted reader of ``dsl`` reads such an operand into a map from
each distinct reduced angle to how many times it occurs; any other operand
goes straight to the token parser behind :func:`parse_expr`, which reports
the parse error or the variable, so no operand takes the counted reader
twice.  The kernel sums each distinct angle's multiple once, and ``compare``
sums the part its two operands share once for both sides.

``check``, ``modelcheck`` and ``corpus`` take each script through
:func:`run_script`, which returns its report.  Every command returns its
reports and human lines, and :func:`main` alone derives the exit code and
renders them: ``--json`` prints one report object per line (one per file for
``corpus``) with ``elapsed_ms: null``, so that identical inputs produce
byte-identical output; wall-clock timing appears only in the human rendering.
A reader that closes the pipe early cuts the output short, not the exit code;
a human line that stdout's encoding cannot hold is written with backslash escapes.
"""

from __future__ import annotations

import argparse
import functools
import json
import math
import os
import sys
import time
from collections import Counter
from pathlib import Path
from typing import Optional, Sequence

from .calculus import StepError, check_derivation
from .dsl import ParseError, SourceSpan, _literal_counts, _parse_expr_tokens, parse_proof
from .kernel import AngleSum, compare_sums
from .semantics import model_check_derivation

EXIT_OK = 0
EXIT_IO = 1
EXIT_PARSE = 2
EXIT_STEP = 3
EXIT_COUNTEREXAMPLE = 4
EXIT_VACUOUS = 5
EXIT_TOO_LARGE = 6

CORPUS_DIR_ENV = "EUKLEIA_CORPUS_DIR"


def corpus_dir() -> Path:
    override = os.environ.get(CORPUS_DIR_ENV)
    return Path(override) if override else Path(__file__).resolve().parent / "corpus"


# Each report status and the exit code it gives.
_EXIT_CODES = {"ok": EXIT_OK, "parse-error": EXIT_PARSE, "step-error": EXIT_STEP,
               "counterexample": EXIT_COUNTEREXAMPLE, "vacuous": EXIT_VACUOUS, "too-large": EXIT_TOO_LARGE}

# The fields of every report, each None unless its command sets it.
_FIELDS = dict.fromkeys(("command", "status", "file", "step", "span", "valuation", "result", "trials", "satisfied",
                         "detail", "elapsed_ms"))


def _report(command: str, status: str, span: Optional[SourceSpan] = None, **fields) -> dict:
    rep = {**_FIELDS, **fields, "command": command, "status": status}
    if span is not None:
        rep["span"] = {"line": span.line, "column": span.column, "length": span.length}
    return rep


def _exit_code(reports: list[dict]) -> int:
    """The first code that is neither ok nor vacuous, else vacuous if any
    report is, else ok; one report gives its own code."""
    codes = [_EXIT_CODES[rep["status"]] for rep in reports]
    failures = [code for code in codes if code not in (EXIT_OK, EXIT_VACUOUS)]
    return failures[0] if failures else (EXIT_VACUOUS if EXIT_VACUOUS in codes else EXIT_OK)


# What a command returns: its reports and their human lines.
_Outcome = tuple[list[dict], list[str]]


class _Rejected(Exception):
    """A command with no result to report: the report and human line that
    :func:`main` renders instead.  An I/O failure has no report."""

    def __init__(self, report: Optional[dict], line: str):
        super().__init__(line)
        self.outcome: _Outcome = ([] if report is None else [report], [line])


def _read_file(path: str | Path) -> str:
    """The file's text; raises _Rejected with an ``error:`` line if it cannot be read."""
    try:
        return Path(path).read_text(encoding="utf-8")
    except OSError as exc:
        message = str(exc)
    except UnicodeDecodeError as exc:
        message = f"{path}: not valid UTF-8 (byte {exc.start}: {exc.reason})"
    raise _Rejected(None, f"error: {message}")


def _operand_counts(expr_text: str, command: str) -> dict[tuple[int, int], int]:
    """The angles of a literal-only expression, counted by reduced pair;
    raises _Rejected otherwise."""
    counts = _literal_counts(expr_text)
    if counts is not None:
        return counts
    try:
        terms = _parse_expr_tokens(expr_text).terms  # the counted reader is not run again
    except ParseError as exc:
        rep = _report(command, "parse-error", exc.span, detail={"message": exc.message})
        raise _Rejected(rep, _parse_error_line(rep)) from None
    if terms and isinstance(terms[0], str):  # variables sort first, by name
        rep = _report(command, "parse-error", detail={"message": f"variable {terms[0]!r} in a literal-only expression"})
        raise _Rejected(rep, f"error: variable {terms[0]!r} is not allowed here")
    return Counter((angle.x, angle.y) for angle in terms)


_TOO_LARGE = "result too large to print: a coordinate has more digits than the interpreter converts to text"


def _printable(command: str, *sums: AngleSum) -> list[str]:
    """Each sum as text; raises _Rejected with a ``too-large`` report when a
    coordinate has more digits than ``str(int)`` converts (the interpreter's
    digit limit)."""
    try:
        return [str(total) for total in sums]
    except ValueError:
        raise _Rejected(_report(command, "too-large", detail={"message": _TOO_LARGE}),
                        f"error: {_TOO_LARGE}") from None


def _approx_radians(total: AngleSum) -> float:
    # atan2 takes floats; shifting both coordinates alike keeps the direction.
    turns, x, y = total.turns_and_vector()
    shift = max(0, max(x.bit_length(), y.bit_length()) - 1000)
    a = math.atan2(y >> shift, x >> shift)
    if a < 0:
        a += 2 * math.pi
    return 2 * math.pi * turns + a


# ---------------------------------------------------------------------------
# Subcommands

def run_script(command: str, text: str, file: Optional[str], trials: Optional[int] = None,
               seed: int = 0) -> dict:
    """Parse and check one script, then model-check it unless ``trials`` is None;
    return the report, which ``command`` and ``file`` label."""
    try:
        derivation = parse_proof(text)
    except ParseError as exc:
        return _report(command, "parse-error", exc.span, file=file, detail={"message": exc.message})
    try:
        check_derivation(derivation)
    except StepError as exc:
        return _report(command, "step-error", exc.span, file=file, step=exc.label, detail={"message": exc.reason})
    steps = {"steps": len(derivation.steps)}
    if trials is None:
        return _report(command, "ok", file=file, detail=steps)
    outcome = model_check_derivation(derivation, trials, seed)
    cx = outcome.to_dict()["counterexample"]
    if cx is not None:
        return _report(command, "counterexample", file=file, step=cx["step"], valuation=cx["valuation"],
                       trials=outcome.trials, satisfied=outcome.satisfied)
    return _report(command, "vacuous" if outcome.vacuous else "ok", file=file, trials=outcome.trials,
                   satisfied=outcome.satisfied, detail=steps)


def _parse_error_line(rep: dict) -> str:
    return f"parse error at {rep['span']['line']}:{rep['span']['column']}: {rep['detail']['message']}"


def _script_lines(rep: dict) -> list[str]:
    """The human rendering of a ``check`` or ``modelcheck`` report."""
    status, file, trials = rep["status"], rep["file"], rep["trials"]
    if status == "parse-error":
        return [_parse_error_line(rep)]
    if status == "step-error":
        return [f"step error at {rep['step']}: {rep['detail']['message']}"]
    if status == "counterexample":
        # A counterexample ends the run, so it was found in the last trial.
        return [f"counterexample at step {rep['step']} (trial {trials - 1}):"] + [
            f"  {name} = {angle}" for name, angle in rep["valuation"].items()]
    if status == "vacuous":
        return [f"vacuous: {file} (0/{trials} trials satisfied the hypotheses, nothing checked)"]
    if trials is None:
        return [f"ok: {file} ({rep['detail']['steps']} steps)"]
    return [f"ok: {file} ({rep['satisfied']}/{trials} trials satisfied, no counterexample)"]


def _corpus_note(rep: dict) -> str:
    """The last column of a ``corpus`` row."""
    status = rep["status"]
    if status == "parse-error":
        return rep["detail"]["message"]
    if status == "step-error":
        return f"{rep['step']}: {rep['detail']['message']}"
    if status == "counterexample":
        return f"step {rep['step']}"
    if status == "vacuous":
        return f"0/{rep['trials']} trials satisfied the hypotheses"
    return f"{rep['detail']['steps']} steps, {rep['satisfied']}/{rep['trials']} trials"


def _cmd_script(args) -> _Outcome:
    """``check`` and ``modelcheck``: one script through :func:`run_script`."""
    rep = run_script(args.command, _read_file(args.path), args.path, args.trials, args.seed)
    return [rep], _script_lines(rep)


def _cmd_compare(args) -> _Outcome:
    lhs, rhs = _operand_counts(args.lhs, "compare"), _operand_counts(args.rhs, "compare")
    sum_l, sum_r = AngleSum._of_counts(lhs, rhs)  # their common part is summed once
    verdict = compare_sums(sum_l, sum_r).name
    text_l, text_r = _printable("compare", sum_l, sum_r)
    rep = _report("compare", "ok", result=verdict, detail={"lhs": text_l, "rhs": text_r})
    return [rep], [verdict, f"lhs: {text_l}", f"rhs: {text_r}"]


def _cmd_eval(args) -> _Outcome:
    (total,) = AngleSum._of_counts(_operand_counts(args.expr, "eval"))
    (text,) = _printable("eval", total)
    detail: dict = {}
    human = [text]
    if args.approx:
        detail["approx_radians"] = approx = f"{_approx_radians(total):.10f}"
        human.append(f"approx: {approx} rad")
    return [_report("eval", "ok", result=text, detail=detail or None)], human


def _corpus_files() -> list[Path]:
    """The scripts ``corpus`` checks; raises _Rejected if there are none."""
    # Deliberately broken scripts (demo material for the checker's rejection
    # paths) sit next to the good ones; skip them and the mutations folder.
    root = corpus_dir()
    files = sorted(p for p in root.glob("*.eap") if "_broken" not in p.name)
    if not files:
        reason = ("no .eap file to check" if root.is_dir() else
                  "not a directory" if root.exists() else "no such directory")
        raise _Rejected(None, f"error: {root}: {reason}")
    return files


def _cmd_corpus(args) -> _Outcome:
    reports = [run_script("corpus", _read_file(path), path.name, args.trials, args.seed)
               for path in _corpus_files()]
    width = max((len(rep["file"]) for rep in reports), default=0)
    rows = [f"{rep['file'].ljust(width)}  {rep['status']:<15} {_corpus_note(rep)}" for rep in reports]
    good = sum(1 for rep in reports if rep["status"] == "ok")
    return reports, rows + [f"{good}/{len(reports)} file(s) ok"]


# ---------------------------------------------------------------------------

def _trial_count(text: str) -> int:
    try:
        n = int(text)
    except ValueError:
        raise argparse.ArgumentTypeError(f"invalid int value: {text!r}") from None
    if n < 0:
        raise argparse.ArgumentTypeError(f"must be 0 or more, got {n}")
    return n


@functools.cache
def _build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="eukleia",
        description="Exact multiset-of-angles arithmetic and a Euclid-style proof checker.",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    p_check = sub.add_parser("check", help="parse a proof script and check every step")
    p_check.add_argument("path")
    p_check.set_defaults(func=_cmd_script, trials=None, seed=0)

    p_compare = sub.add_parser("compare", help="compare two literal multiset expressions")
    p_compare.add_argument("lhs")
    p_compare.add_argument("rhs")
    p_compare.set_defaults(func=_cmd_compare)

    p_eval = sub.add_parser("eval", help="evaluate a literal multiset expression")
    p_eval.add_argument("expr")
    p_eval.add_argument("--approx", action="store_true",
                        help="also print an advisory floating-point radian value")
    p_eval.set_defaults(func=_cmd_eval)

    p_model = sub.add_parser("modelcheck", help="check a script, then model-check it on random valuations")
    p_model.add_argument("path")
    p_model.add_argument("--trials", type=_trial_count, default=1000)
    p_model.add_argument("--seed", type=int, default=0)
    p_model.set_defaults(func=_cmd_script)

    p_corpus = sub.add_parser("corpus", help="check and model-check every bundled corpus file")
    p_corpus.add_argument("--trials", type=_trial_count, default=200)
    p_corpus.add_argument("--seed", type=int, default=0)
    p_corpus.set_defaults(func=_cmd_corpus)

    for subparser in sub.choices.values():  # last, so that usage and help list --json last
        subparser.add_argument("--json", action="store_true")
    return parser


def main(argv: Optional[Sequence[str]] = None) -> int:
    args = _build_parser().parse_args(argv)
    started = time.perf_counter()
    try:
        reports, lines = args.func(args)
    except _Rejected as exc:
        reports, lines = exc.outcome
    if not reports:  # nothing was read, so there is no report; the error goes to stderr
        for line in lines:
            print(line, file=sys.stderr)
        return EXIT_IO
    try:
        if args.json:  # json.dumps escapes every character past ASCII
            for report in reports:
                print(json.dumps(report, sort_keys=True))
        else:
            for line in lines:
                try:
                    print(line)
                except UnicodeEncodeError:  # a name or character that stdout's encoding lacks
                    print(line.encode(sys.stdout.encoding, "backslashreplace").decode(sys.stdout.encoding))
            print(f"elapsed: {(time.perf_counter() - started) * 1000:.1f} ms")
        sys.stdout.flush()
    except BrokenPipeError:  # the reader has gone; the interpreter's last flush must not raise again
        os.dup2(os.open(os.devnull, os.O_WRONLY), sys.stdout.fileno())
    return _exit_code(reports)
