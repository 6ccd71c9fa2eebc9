"""Command-line front end: check proofs, compare and evaluate expressions,
model-check scripts, and run the bundled corpus.

Exit codes are a stable contract: 0 ok, 1 I/O failure, 2 parse error,
3 step error, 4 model counterexample, 5 vacuous model check (trials ran but
no valuation met the hypotheses, so no step was checked).  For ``corpus``
the first parse, step or counterexample failure sets the exit code, and 5
applies only when there is none.  A report's ``status`` is one of ``ok``,
``parse-error``, ``step-error``, ``counterexample`` and ``vacuous``.

``--json`` renders one report object (newline-delimited, one per file, for
``corpus``); JSON reports carry ``elapsed_ms: null`` so that identical inputs
produce byte-identical output, and wall-clock timing appears only in the
human-readable rendering.
"""

from __future__ import annotations

import argparse
import json
import math
import os
import sys
import time
from pathlib import Path
from typing import Optional, Sequence

from .calculus import StepError, check_derivation
from .dsl import ParseError, SourceSpan, parse_expr, parse_proof
from .kernel import AngleSum, Ordering, compare_sums, sum_multiset
from .semantics import model_check_derivation

EXIT_OK = 0
EXIT_IO = 1
EXIT_PARSE = 2
EXIT_STEP = 3
EXIT_COUNTEREXAMPLE = 4
EXIT_VACUOUS = 5

CORPUS_DIR_ENV = "EUKLEIA_CORPUS_DIR"

_VERDICTS = {Ordering.LESS: "LESS", Ordering.EQUAL: "EQUAL", Ordering.GREATER: "GREATER"}


def bundled_corpus_dir() -> Path:
    return Path(__file__).resolve().parent / "corpus"


def corpus_dir() -> Path:
    override = os.environ.get(CORPUS_DIR_ENV)
    return Path(override) if override else bundled_corpus_dir()


def _span_dict(span: Optional[SourceSpan]) -> Optional[dict]:
    if span is None:
        return None
    return {"line": span.line, "column": span.column, "length": span.length}


def _report(
    command: str,
    status: str,
    *,
    file: Optional[str] = None,
    step: Optional[str] = None,
    span: Optional[SourceSpan] = None,
    valuation: Optional[dict] = None,
    result: Optional[str] = None,
    trials: Optional[int] = None,
    satisfied: Optional[int] = None,
    detail: Optional[dict] = None,
) -> dict:
    return {
        "command": command,
        "status": status,
        "file": file,
        "step": step,
        "span": _span_dict(span),
        "valuation": valuation,
        "result": result,
        "trials": trials,
        "satisfied": satisfied,
        "detail": detail,
        "elapsed_ms": None,
    }


def _emit(args, report: dict, human_lines: Sequence[str], started: float) -> None:
    if args.json:
        print(json.dumps(report, sort_keys=True))
    else:
        for line in human_lines:
            print(line)
        print(f"elapsed: {(time.perf_counter() - started) * 1000:.1f} ms")


def _read_file(path: str | Path) -> Optional[str]:
    """The file's text; on failure print an ``error:`` line and return None."""
    try:
        return Path(path).read_text(encoding="utf-8")
    except OSError as exc:
        print(f"error: {exc}", file=sys.stderr)
    except UnicodeDecodeError as exc:
        print(f"error: {path}: not valid UTF-8 (byte {exc.start}: {exc.reason})", file=sys.stderr)
    return None


def _literal_angles(expr_text: str, command: str, args, started: float):
    """Parse a literal-only expression; on failure report and return None."""
    try:
        expr = parse_expr(expr_text)
    except ParseError as exc:
        rep = _report(command, "parse-error", span=exc.span, detail={"message": exc.message})
        _emit(args, rep, [f"parse error at {exc.span.line}:{exc.span.column}: {exc.message}"], started)
        return None
    variables = sorted(expr.variables())
    if variables:
        rep = _report(command, "parse-error", detail={"message": f"variable {variables[0]!r} in a literal-only expression"})
        _emit(args, rep, [f"error: variable {variables[0]!r} is not allowed here"], started)
        return None
    return [t.angle for t in expr.terms]  # type: ignore[union-attr]


def _approx_radians(total: AngleSum) -> float:
    a = math.atan2(total.rep.y, total.rep.x)
    if a < 0:
        a += 2 * math.pi
    return 2 * math.pi * total.windings + a


# ---------------------------------------------------------------------------
# Subcommands

def _cmd_check(args) -> int:
    started = time.perf_counter()
    text = _read_file(args.path)
    if text is None:
        return EXIT_IO
    try:
        derivation = parse_proof(text)
    except ParseError as exc:
        rep = _report("check", "parse-error", file=args.path, span=exc.span, detail={"message": exc.message})
        _emit(args, rep, [f"parse error at {exc.span.line}:{exc.span.column}: {exc.message}"], started)
        return EXIT_PARSE
    try:
        check_derivation(derivation)
    except StepError as exc:
        rep = _report("check", "step-error", file=args.path, step=exc.label, span=exc.span,
                      detail={"message": exc.reason})
        _emit(args, rep, [f"step error at {exc.label}: {exc.reason}"], started)
        return EXIT_STEP
    rep = _report("check", "ok", file=args.path, detail={"steps": len(derivation.steps)})
    _emit(args, rep, [f"ok: {args.path} ({len(derivation.steps)} steps)"], started)
    return EXIT_OK


def _cmd_compare(args) -> int:
    started = time.perf_counter()
    lhs = _literal_angles(args.lhs, "compare", args, started)
    if lhs is None:
        return EXIT_PARSE
    rhs = _literal_angles(args.rhs, "compare", args, started)
    if rhs is None:
        return EXIT_PARSE
    sum_l, sum_r = sum_multiset(lhs), sum_multiset(rhs)
    verdict = _VERDICTS[compare_sums(sum_l, sum_r)]
    rep = _report("compare", "ok", result=verdict, detail={"lhs": str(sum_l), "rhs": str(sum_r)})
    _emit(args, rep, [verdict, f"lhs: {sum_l}", f"rhs: {sum_r}"], started)
    return EXIT_OK


def _cmd_eval(args) -> int:
    started = time.perf_counter()
    angles = _literal_angles(args.expr, "eval", args, started)
    if angles is None:
        return EXIT_PARSE
    total = sum_multiset(angles)
    detail: dict = {}
    human = [str(total)]
    if args.approx:
        detail["approx_radians"] = f"{_approx_radians(total):.10f}"
        human.append(f"approx: {_approx_radians(total):.10f} rad")
    rep = _report("eval", "ok", result=str(total), detail=detail or None)
    _emit(args, rep, human, started)
    return EXIT_OK


def _cmd_modelcheck(args) -> int:
    started = time.perf_counter()
    text = _read_file(args.path)
    if text is None:
        return EXIT_IO
    try:
        derivation = parse_proof(text)
    except ParseError as exc:
        rep = _report("modelcheck", "parse-error", file=args.path, span=exc.span, detail={"message": exc.message})
        _emit(args, rep, [f"parse error at {exc.span.line}:{exc.span.column}: {exc.message}"], started)
        return EXIT_PARSE
    try:
        check_derivation(derivation)
    except StepError as exc:
        rep = _report("modelcheck", "step-error", file=args.path, step=exc.label, span=exc.span,
                      detail={"message": exc.reason})
        _emit(args, rep, [f"step error at {exc.label}: {exc.reason}"], started)
        return EXIT_STEP
    outcome = model_check_derivation(derivation, args.trials, args.seed)
    if outcome.counterexample is not None:
        cx = outcome.counterexample
        valuation = {k: str(v) for k, v in sorted(cx.valuation.items())}
        rep = _report("modelcheck", "counterexample", file=args.path, step=cx.step,
                      valuation=valuation, trials=outcome.trials, satisfied=outcome.satisfied)
        lines = [f"counterexample at step {cx.step} (trial {cx.trial}):"]
        lines += [f"  {name} = {angle}" for name, angle in valuation.items()]
        _emit(args, rep, lines, started)
        return EXIT_COUNTEREXAMPLE
    if outcome.vacuous:
        rep = _report("modelcheck", "vacuous", file=args.path, trials=outcome.trials, satisfied=0)
        _emit(args, rep, [f"vacuous: {args.path} (0/{outcome.trials} trials satisfied the hypotheses, "
                          "nothing checked)"], started)
        return EXIT_VACUOUS
    rep = _report("modelcheck", "ok", file=args.path, trials=outcome.trials, satisfied=outcome.satisfied)
    _emit(args, rep, [f"ok: {args.path} ({outcome.satisfied}/{outcome.trials} trials satisfied, no counterexample)"],
          started)
    return EXIT_OK


def _corpus_files() -> list[Path]:
    # Deliberately broken scripts (demo material for the checker's rejection
    # paths) sit next to the good ones; skip them and the mutations folder.
    root = corpus_dir()
    return sorted(p for p in root.glob("*.eap") if "_broken" not in p.name)


def _cmd_corpus(args) -> int:
    started = time.perf_counter()
    files = _corpus_files()
    rows: list[tuple[str, str, str]] = []
    reports: list[dict] = []
    exit_code = EXIT_OK
    for path in files:
        name = path.name
        text = _read_file(path)
        if text is None:
            return EXIT_IO
        try:
            derivation = parse_proof(text)
        except ParseError as exc:
            reports.append(_report("corpus", "parse-error", file=name, span=exc.span,
                                   detail={"message": exc.message}))
            rows.append((name, "parse-error", exc.message))
            if exit_code in (EXIT_OK, EXIT_VACUOUS):
                exit_code = EXIT_PARSE
            continue
        try:
            check_derivation(derivation)
        except StepError as exc:
            reports.append(_report("corpus", "step-error", file=name, step=exc.label, span=exc.span,
                                   detail={"message": exc.reason}))
            rows.append((name, "step-error", f"{exc.label}: {exc.reason}"))
            if exit_code in (EXIT_OK, EXIT_VACUOUS):
                exit_code = EXIT_STEP
            continue
        outcome = model_check_derivation(derivation, args.trials, args.seed)
        if outcome.counterexample is not None:
            cx = outcome.counterexample
            valuation = {k: str(v) for k, v in sorted(cx.valuation.items())}
            reports.append(_report("corpus", "counterexample", file=name, step=cx.step,
                                   valuation=valuation, trials=outcome.trials, satisfied=outcome.satisfied))
            rows.append((name, "counterexample", f"step {cx.step}"))
            if exit_code in (EXIT_OK, EXIT_VACUOUS):
                exit_code = EXIT_COUNTEREXAMPLE
            continue
        if outcome.vacuous:
            reports.append(_report("corpus", "vacuous", file=name, trials=outcome.trials, satisfied=0,
                                   detail={"steps": len(derivation.steps)}))
            rows.append((name, "vacuous", f"0/{outcome.trials} trials satisfied the hypotheses"))
            if exit_code == EXIT_OK:
                exit_code = EXIT_VACUOUS
            continue
        reports.append(_report("corpus", "ok", file=name, trials=outcome.trials,
                               satisfied=outcome.satisfied,
                               detail={"steps": len(derivation.steps)}))
        rows.append((name, "ok", f"{len(derivation.steps)} steps, {outcome.satisfied}/{outcome.trials} trials"))
    if args.json:
        for rep in reports:
            print(json.dumps(rep, sort_keys=True))
    else:
        width = max((len(r[0]) for r in rows), default=0)
        for name, status, note in rows:
            print(f"{name.ljust(width)}  {status:<15} {note}")
        good = sum(1 for r in rows if r[1] == "ok")
        print(f"{good}/{len(rows)} file(s) ok")
        print(f"elapsed: {(time.perf_counter() - started) * 1000:.1f} ms")
    return exit_code


# ---------------------------------------------------------------------------

def _trial_count(text: str) -> int:
    try:
        n = int(text)
    except ValueError:
        raise argparse.ArgumentTypeError(f"invalid int value: {text!r}") from None
    if n < 0:
        raise argparse.ArgumentTypeError(f"must be 0 or more, got {n}")
    return n


def _build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="eukleia",
        description="Exact multiset-of-angles arithmetic and a Euclid-style proof checker.",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    p_check = sub.add_parser("check", help="parse a proof script and check every step")
    p_check.add_argument("path")
    p_check.add_argument("--json", action="store_true")
    p_check.set_defaults(func=_cmd_check)

    p_compare = sub.add_parser("compare", help="compare two literal multiset expressions")
    p_compare.add_argument("lhs")
    p_compare.add_argument("rhs")
    p_compare.add_argument("--json", action="store_true")
    p_compare.set_defaults(func=_cmd_compare)

    p_eval = sub.add_parser("eval", help="evaluate a literal multiset expression")
    p_eval.add_argument("expr")
    p_eval.add_argument("--approx", action="store_true",
                        help="also print an advisory floating-point radian value")
    p_eval.add_argument("--json", action="store_true")
    p_eval.set_defaults(func=_cmd_eval)

    p_model = sub.add_parser("modelcheck", help="check a script, then model-check it on random valuations")
    p_model.add_argument("path")
    p_model.add_argument("--trials", type=_trial_count, default=1000)
    p_model.add_argument("--seed", type=int, default=0)
    p_model.add_argument("--json", action="store_true")
    p_model.set_defaults(func=_cmd_modelcheck)

    p_corpus = sub.add_parser("corpus", help="check and model-check every bundled corpus file")
    p_corpus.add_argument("--trials", type=_trial_count, default=200)
    p_corpus.add_argument("--seed", type=int, default=0)
    p_corpus.add_argument("--json", action="store_true")
    p_corpus.set_defaults(func=_cmd_corpus)

    return parser


def main(argv: Optional[Sequence[str]] = None) -> int:
    args = _build_parser().parse_args(argv)
    return args.func(args)


if __name__ == "__main__":  # pragma: no cover
    sys.exit(main())
