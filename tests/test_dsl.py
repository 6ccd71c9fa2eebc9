import hashlib
import itertools
import json
import random
import re
import time
import tracemalloc
from collections import Counter

import pytest
from hypothesis import example, given, settings, strategies as st

from eukleia.calculus import Derivation, MultisetExpr, Rule, Step, format_judgment
from eukleia import cli, dsl
from eukleia.dsl import (_SCRIPT_TOKEN, _STEP, _TOKEN, ParseError, SourceSpan, _expr_terms, _lex, _literal_counts,
                         _parse_expr_tokens, _Parser, _TurnedDown, parse_expr, parse_proof)
from eukleia.kernel import right_angle

from conftest import CORPUS_DIR, ang, multiset, nested_cases_script, random_angle

R = right_angle()


def _format_step(step: Step, indent: int, out: list[str]) -> None:
    pad = "    " * indent
    head = f"{pad}{step.label}: {format_judgment(step.judgment)} by {step.rule.value}"
    if step.rule is Rule.CASES and step.case_pair is not None:
        lhs, rhs = step.case_pair
        out.append(f"{head} {lhs} {rhs} {{")
        for i, branch in enumerate(step.branches):
            if i:
                out.append(f"{pad}}} {{")
            for sub in branch:
                _format_step(sub, indent + 1, out)
        out.append(f"{pad}}};")
    elif step.premises:
        out.append(f"{head} {' '.join(step.premises)};")
    else:
        out.append(f"{head};")


def format_derivation(d: Derivation) -> str:
    """Render a derivation back to script text; reparsing yields an equal value."""
    lines: list[str] = []
    lines.append("vars" + ("" if not d.variables else " " + " ".join(d.variables)) + ";")
    if d.hypotheses:
        lines.append("")
        for h in d.hypotheses:
            lines.append(f"hyp {h.label}: {format_judgment(h.judgment)};")
    if d.steps:
        lines.append("")
        for s in d.steps:
            _format_step(s, 0, lines)
    return "\n".join(lines) + "\n"


def spans_inside(text, err: ParseError):
    lines = text.split("\n")
    assert 1 <= err.span.line <= max(1, len(lines))
    line = lines[err.span.line - 1] if err.span.line <= len(lines) else ""
    assert 1 <= err.span.column <= len(line) + 1
    assert err.span.length >= 1


class TestParseExpr:
    def test_multiplicity_accumulates(self):
        e = parse_expr("{a, b, a}")
        assert e == multiset("a", "a", "b")
        assert Counter(e.terms)["a"] == 2

    def test_two_right_angles(self):
        assert parse_expr("{R, R}") == multiset(R, R)

    def test_empty(self):
        assert parse_expr("{}") == MultisetExpr()

    def test_angle_literals(self):
        assert parse_expr("{ang(3/4)}") == multiset(ang(3, 4))
        assert parse_expr("{ang(-2/3)}") == multiset(ang(-2, 3))
        assert parse_expr("{ang(2/4)}") == multiset(ang(1, 2))
        assert parse_expr("{ang(0/1)}") == multiset(R)

    def test_degenerate_literal_is_a_parse_error(self):
        with pytest.raises(ParseError) as err:
            parse_expr("{ang(3/-4)}")
        assert "degenerate" in err.value.message

    @pytest.mark.parametrize("text, column", [("{ang(²/1)}", 6), ("{ang(1/٣)}", 8), ("{ang(1²/1)}", 7)])
    def test_only_ascii_digits_make_integers(self, text, column):
        # str.isdigit accepts these, but an integer literal is ASCII 0-9 only.
        with pytest.raises(ParseError) as err:
            parse_expr(text)
        assert err.value.message == f"unexpected character {text[column - 1]!r}"
        assert (err.value.span.line, err.value.span.column, err.value.span.length) == (1, column, 1)

    def test_whitespace_and_comments_ignored(self):
        assert parse_expr("{ a ,\n\tb }  # trailing\n") == parse_expr("{a,b}")

    def test_trailing_garbage_rejected(self):
        with pytest.raises(ParseError):
            parse_expr("{a} {b}")

    def test_malformed_inputs_have_in_bounds_spans(self):
        bad = ["", "{", "{a", "{a,}", "a}", "{ang(3)}", "{ang(3/)}", "{3}", "{a b}", "{,}", "%", "{a}{"]
        for text in bad:
            with pytest.raises(ParseError) as err:
                parse_expr(text)
            spans_inside(text, err.value)

    def test_reserved_words_rejected_as_variables(self):
        for word in ("eq", "Lt", "split", "hyp", "vars", "by", "case", "cases", "false"):
            with pytest.raises(ParseError):
                parse_expr("{" + word + "}")


MINI = """
vars a b c;

hyp H1: Split a b c;

S1: Eq {a} {b, c} by spliteq H1;
S2: Eq {b, c} {a} by eqsym S1;
"""


class TestParseProof:
    def test_mini_proof(self):
        d = parse_proof(MINI)
        assert d.variables == ("a", "b", "c")
        assert [h.label for h in d.hypotheses] == ["H1"]
        assert [s.label for s in d.steps] == ["S1", "S2"]
        assert d.steps[0].rule is Rule.SPLIT_EQ
        assert d.steps[0].premises == ("H1",)

    def test_empty_file_is_missing_header(self):
        with pytest.raises(ParseError) as err:
            parse_proof("")
        assert "vars" in str(err.value)
        with pytest.raises(ParseError):
            parse_proof("# only a comment\n")

    def test_empty_vars_header_allowed(self):
        d = parse_proof("vars;\nS1: Eq {R} {R} by eqrefl;\n")
        assert d.variables == ()

    def test_unknown_rule(self):
        with pytest.raises(ParseError) as err:
            parse_proof("vars a;\nS1: Eq {a} {a} by frobnicate;\n")
        assert "unknown rule" in err.value.message

    def test_unknown_reference_is_parse_error_at_the_reference(self):
        text = "vars a;\nS1: Eq {a} {a} by eqsym S9;\n"
        with pytest.raises(ParseError) as err:
            parse_proof(text)
        assert "unknown reference" in err.value.message
        assert (err.value.span.line, err.value.span.column) == (2, 25)

    def test_forward_reference_rejected(self):
        text = "vars a;\nS1: Eq {a} {a} by eqsym S2;\nS2: Eq {a} {a} by eqrefl;\n"
        with pytest.raises(ParseError) as err:
            parse_proof(text)
        assert "unknown reference" in err.value.message

    def test_self_reference_rejected(self):
        with pytest.raises(ParseError):
            parse_proof("vars a;\nS1: Eq {a} {a} by eqsym S1;\n")

    def test_undeclared_variable(self):
        with pytest.raises(ParseError) as err:
            parse_proof("vars a;\nS1: Eq {z} {z} by eqrefl;\n")
        assert "undeclared" in err.value.message

    def test_duplicate_labels_rejected(self):
        text = "vars a;\nhyp S1: Lt {} {a};\nS1: Eq {a} {a} by eqrefl;\n"
        with pytest.raises(ParseError) as err:
            parse_proof(text)
        assert "duplicate label" in err.value.message

    def test_duplicate_variable_rejected(self):
        with pytest.raises(ParseError):
            parse_proof("vars a a;\n")

    def test_rule_names_case_insensitive(self):
        d = parse_proof("vars a;\nS1: Eq {a} {a} by EqRefl;\n")
        assert d.steps[0].rule is Rule.EQ_REFL

    def test_keywords_case_insensitive(self):
        d = parse_proof("VARS a;\nHYP H1: LT {} {a};\nS1: EQ {a} {a} BY eqrefl;\n")
        assert d.variables == ("a",)

    def test_case_reference_only_inside_branches(self):
        with pytest.raises(ParseError) as err:
            parse_proof("vars a;\nS1: Eq {a} {a} by hypothesis case;\n")
        assert "unknown reference" in err.value.message

    def test_cases_blocks(self):
        text = """
vars a b;
hyp H1: Lt {b} {a};
S1: Lt {b} {a} by cases {a} {b} {
    C1: False by ltasym case H1;
    C2: Lt {b} {a} by hypothesis C1;
} {
    C3: False by eqltclash case H1;
    C4: Lt {b} {a} by hypothesis C3;
} {
    C5: Lt {b} {a} by hypothesis case;
};
"""
        d = parse_proof(text)
        step = d.steps[0]
        assert step.rule is Rule.CASES
        assert step.case_pair == (multiset("a"), multiset("b"))
        assert tuple(len(b) for b in step.branches) == (2, 2, 1)

    def test_cases_requires_three_blocks(self):
        text = "vars a b;\nS1: Lt {b} {a} by cases {a} {b} { C1: Lt {b} {a} by wholepart; };\n"
        with pytest.raises(ParseError):
            parse_proof(text)

    def test_branch_labels_out_of_scope_after_block(self):
        text = """
vars a b;
hyp H1: Lt {b} {a};
S1: Lt {b} {a} by cases {a} {b} {
    C1: Lt {b} {a} by hypothesis H1;
} {
    C2: Lt {b} {a} by hypothesis H1;
} {
    C3: Lt {b} {a} by hypothesis case;
};
S2: Lt {b} {a} by hypothesis C1;
"""
        with pytest.raises(ParseError) as err:
            parse_proof(text)
        assert "unknown reference" in err.value.message

    def test_error_positions_in_bounds(self):
        bad = [
            "vars a;\nS1: Eq {a} {a} by;\n",
            "vars a\nS1: Eq {a} {a} by eqrefl;\n",
            "vars a; S1: Oops {a} {a} by eqrefl;",
            "vars a; hyp H1 Lt {} {a};",
            "vars a; S1: Eq {a} {a} by eqrefl",
            "vars 3;",
        ]
        for text in bad:
            with pytest.raises(ParseError) as err:
                parse_proof(text)
            spans_inside(text, err.value)


class TestRoundTrip:
    def test_corpus_files_round_trip(self):
        for path in sorted(CORPUS_DIR.glob("*.eap")) + sorted((CORPUS_DIR / "mutations").glob("*.eap")):
            d = parse_proof(path.read_text(encoding="utf-8"))
            assert parse_proof(format_derivation(d)) == d, path.name

    def test_comment_and_whitespace_insensitivity(self):
        # Work from the comment-free pretty-printed form so token-level noise
        # cannot splice comment text into the token stream.
        text = format_derivation(parse_proof((CORPUS_DIR / "prop13.eap").read_text(encoding="utf-8")))
        noisy = text.replace(";", " ;  # noise\n").replace(" by ", "\n  by\t")
        assert parse_proof(noisy) == parse_proof(text)

    def test_listed_term_order_never_matters(self):
        base = "vars a b;\nhyp H1: Split a b b;\nS1: Eq {a} {b, b} by spliteq H1;\n"
        permuted = "vars a b;\nhyp H1: Split a b b;\nS1: Eq {a} {b,b} by spliteq H1;\n"
        assert parse_proof(base) == parse_proof(permuted)
        assert parse_expr("{a, R, b, a}") == parse_expr("{R, a, a, b}")

    @given(st.lists(st.sampled_from(["a", "b", "zz_9"]), max_size=5),
           st.lists(st.tuples(st.integers(-30, 30), st.integers(1, 30)), max_size=4))
    def test_expression_round_trip(self, names, vecs):
        e = MultisetExpr(tuple(names) + tuple(ang(x, y) for x, y in vecs))
        assert parse_expr(str(e)) == e


# ---------------------------------------------------------------------------
# parse_proof results as text: the printed derivation and every step's span,
# or the error and its span.  The digests were recorded with the lexer that
# built one token object per token, line and column included; the reader must
# keep them byte for byte.

def _proof_outcome(text: str) -> str:
    try:
        derivation = parse_proof(text)
    except ParseError as err:
        return f"error {err} {err.span}"
    spans: list[str] = []

    def walk(steps):
        for step in steps:
            spans.append(f"{step.label} {step.span}")
            for branch in step.branches:
                walk(branch)

    walk(derivation.steps)
    return format_derivation(derivation) + "\n".join(spans)


PROP13 = (CORPUS_DIR / "prop13.eap").read_text(encoding="utf-8")
SCRIPT_GOLDEN_TEXTS = {
    **{path.relative_to(CORPUS_DIR).as_posix(): path.read_text(encoding="utf-8")
       for path in sorted(CORPUS_DIR.glob("*.eap")) + sorted((CORPUS_DIR / "mutations").glob("*.eap"))},
    "nested-100": nested_cases_script(100),
    "nested-600": nested_cases_script(600),
    "trailing-comment": PROP13 + "# the end, no newline",
    "trailing-comment-unterminated": "vars a;\nS1: Eq {a} {a} by eqrefl  # no semicolon  ",
    "comment-then-newline-unterminated": "vars a;\nS1: Eq {a} {a} by eqrefl  # no semicolon\n\t \n",
    "crlf": PROP13.replace("\n", "\r\n"),
    "crlf-undeclared": "vars a;\r\nhyp H1: Lt {a} {R};\r\n  S1: Eq {a} {b} by eqrefl;\r\n",
    "degenerate-one-line": "vars;\nS1: Eq {R, ang(1 / 0)} {R} by eqrefl;\n",
    "degenerate-two-lines": "vars;\nS1: Eq {R, ang(1 /\n 0)} {R} by eqrefl;\n",
    "integer-too-long": "vars;\nS1: Eq {ang(1/" + "7" * 4400 + ")} {R} by eqrefl;\n",
    "end-inside-expression": "vars a;\nS1: Eq {a",
    "lex-percent": "vars a;\nS1: Eq {a} {a} by eqrefl; %\n",
    "lex-lone-minus": "vars;\nS1: Eq {ang(- 1/2)} {R} by eqrefl;\n",
    "lex-superscript": "vars a²;\nhyp H²: Lt {a²} {²a};\n",
    "lex-roman-numeral": "vars a;\n  Ⅷ: Eq {a} {a} by eqrefl;\n",
    "lex-arabic-digit": "vars a;\nS1: Eq {ang(٣/4)} {R} by eqrefl;\n",
    "lex-no-break-space": "vars a;\nS1: Eq {a}\u00a0{a} by eqrefl;\n",
    "lex-nul": "vars a;\r\n\x00",
    "lex-after-parse-error": "vars a b;\nS1: Oops {a} {b}\n by eqrefl; ½\n",
    "lex-inside-comment-ignored": "vars a; # ² % ½ -\nS1: Eq {a} {a} by eqrefl;\n",
    "non-ascii-identifiers": "vars é1 _x;\nhyp Ω: Lt {é1} {_x};\nS1: Lt {é1} {_x} by hypothesis Ω;\n",
}

SCRIPT_GOLDEN = {
    "comment-then-newline-unterminated": "3b5fad93853cc68170285b40111df81759789c9e61b894ba4851205a26c81be9",
    "crlf": "728615d3e8f85d285c1985eb17d2d8eb6026b22f48a65f4fa0007751f6bfe825",
    "crlf-undeclared": "73b8e7d3039d7616457125727c0a69bb4d5b5b936556585a40ce9cfd81fc9189",
    "degenerate-one-line": "03e9557ee44b2a051f3a2d90e7577eb629fa4dce5293e266fb87db9e98de2f17",
    "degenerate-two-lines": "0449bab50dce11e7e953e650ede9e07877410e8b94bedd991fd148b457645866",
    "end-inside-expression": "0c2888cb973ae331ecbe5ee7617c59587edf9eb6547b0970079a7e085dd2e1ef",
    "four_rights.eap": "db6caa06cf49f29a62c2fddd5bb0df525cb1476e0fdb2d5d9afa1bdf24487a5c",
    "integer-too-long": "756f017685d3bcff08e715bbabdb63a6faf218efc924d76871a536d7f276c9ab",
    "lex-after-parse-error": "e0616c11ff0f256b20b6d5dbbafae3785d5f97a20c803f028ad6c46e8a4b119f",
    "lex-arabic-digit": "e8b007a8fcf687432218ad766c38fbef9ba09e8ca357c99b65973296b735a726",
    "lex-inside-comment-ignored": "766bbf39f7f15e1ea82d33213fe671e1da0a4607fc6f9c52f732132ba3dc143d",
    "lex-lone-minus": "1eaa94b0114172014bf18cd35587493f262f60bf7c7735cf0c161eacdaa98fdc",
    "lex-no-break-space": "b445ca2bfa238d4d3b812767162768c9f07b7fa799c7182e61dca815071a7f3c",
    "lex-nul": "a502acc4f53e2a8ac30e223fda895bc64b7fb38a8f98c2254d1de7c4cb8e5db5",
    "lex-percent": "e06c5858f5facf33215c1ed4d01591112187178bfb276e7cf8c0e27420520ccd",
    "lex-roman-numeral": "07ad377c0f6673ba04efa080044bb9d8f0b78f4b81333b8e2bdedcc25b41ed6a",
    "lex-superscript": "7d6a7d743bd72ccf2f0d5ffce7d5c7c29ca2ca714b7c22f200c7e4388d8aeb05",
    "mutations/m01_wrong_rule.eap": "1c21ab2d2e51ff6f7b158595a29ab5705a2b3155a9683a0f19b982f922bf21a1",
    "mutations/m02_swapped_premises.eap": "4fea3d744d871815bf9f96d0f1ca8a7b248690115a2024ee4329cfc8c7e20464",
    "mutations/m03_multiplicity.eap": "f846738bc2721aae6d2b49c9c4292ed9ff3c8ae72d9b8c1d31163507a0a9c746",
    "mutations/m04_dropped_add.eap": "43f6084f0d1a016d99b8e525547fb2416d8ca5f29b73bc3316f907e1f197a4f8",
    "mutations/m05_split_reversed.eap": "b2b8a9959dcce35d321eb823c6a64e6bc47cf2b0267a83ef7bfe6178f4bf9474",
    "mutations/m06_wholepart_not_contained.eap": "60f46206660cde2f7fa28abcafce938ec971e87056d98aefb554164e2f3844d3",
    "mutations/m07_cases_branch_goal.eap": "c5025d838c4af478916e416d9df9789df3ac332e95535141f546ff5b0f42c108",
    "mutations/m08_kernel_false.eap": "a53e93cfe3580b8a494dd67146f7caa766332391806e8fb5f01a913cde627a1c",
    "mutations/m09_kernel_vars.eap": "b397c0f690e311939bbcc91951c84dff0894b62996fcbb99a882e895d9a6706a",
    "mutations/m10_wrong_premise.eap": "0348f1ba9628f701bd615e480eb4275bea4f0d7acdbfcbc18c1a551a073b6584",
    "mutations/m11_ltasym_not_mirrored.eap": "91d4332951944edb4cfbea93eafe666649c34a50af370201d348c02b541f3534",
    "mutations/m12_addboth_mismatch.eap": "d32a462b0ae1e2b96b30da8d044fd0d19d6864ccb12f03c56955f100b04fb9af",
    "nested-100": "9aa7710f16a8563f3977c203e6efc47eeb39ca82d121904e3cfd4e01a04acf01",
    "nested-600": "487678bfaae5e7b6a4883cf87ea29f6370da3ed9f815f917da7c074a0408f279",
    "non-ascii-identifiers": "4ae88fff8b345d9b76d5361bd3b7b717e29a2f514e9fc0dbdd13c1d4bf356b7e",
    "postulate5.eap": "017e9d33e90f2c501431611af98d0e120c42be1036bf4f27078ce484c3d4ee4c",
    "prop13.eap": "728615d3e8f85d285c1985eb17d2d8eb6026b22f48a65f4fa0007751f6bfe825",
    "prop13_broken.eap": "f69cbc2c7508d55fb8f6164783c123d582f7f9cf1729f3bdcd3e4de3f5450332",
    "prop15.eap": "44334e21e38e95bb17168105c60acc54a9d60ccf21c9bec0b96ba8a38461a5ec",
    "prop16.eap": "1eccef498f59ad74bbaae1bc346499b57198923532d601dfe7c4de6001b61bcb",
    "prop25.eap": "ce7dc0c1cf0f86f680ac165839c72bda58f179db06552250d35a38259b435060",
    "trailing-comment": "728615d3e8f85d285c1985eb17d2d8eb6026b22f48a65f4fa0007751f6bfe825",
    "trailing-comment-unterminated": "e5a46e7f2d63ba97ed439866dcd9d8e9732ae92f6d5a733075b7af2a1a16adb9",
}


@pytest.mark.parametrize("name", sorted(SCRIPT_GOLDEN_TEXTS))
def test_parse_proof_matches_golden(name):
    outcome = _proof_outcome(SCRIPT_GOLDEN_TEXTS[name])
    assert hashlib.sha256(outcome.encode()).hexdigest() == SCRIPT_GOLDEN[name]


def _generated_scripts() -> list[str]:
    """Seeded scripts shaped like the benchmark's generated ones: addboth
    chains over growing multisets and cases blocks nested and indented four
    blanks a level."""
    rng = random.Random(19)
    pool = ["x1", "x2", "x3", "R", "ang(3/4)", "ang(-5/7)"]
    texts = []
    for rounds in (5, 20, 40):
        lines = ["vars x1 x2 x3;", "hyp H: Eq {x1} {x2, x3};"]
        left, right, cur = ["x1"], ["x2", "x3"], "H"
        for i in range(1, rounds + 1):
            t = rng.choice(pool)
            lt, rt = "{" + ", ".join(left + [t]) + "}", "{" + ", ".join(right + [t]) + "}"
            lines += [f"A{i}: Eq {lt} {rt} by addboth {cur};", f"B{i}: Eq {rt} {lt} by eqsym A{i};"]
            left, right, cur = right + [t], left + [t], f"B{i}"
        texts.append("\n".join(lines) + "\n")
    for depth in (3, 9, 27):
        lines, count = ["vars a b;", "hyp H: Lt {a} {b};"], 0

        def block(level: int, indent: int) -> None:
            nonlocal count
            count += 1
            head, pad = f"K{count}", "    " * indent
            lines.append(f"{pad}{head}: Lt {{a}} {{b}} by cases {{a}} {{b, R}} {{")
            inner = rng.randrange(3)
            for i in range(3):
                if i:
                    lines.append(pad + "} {")
                lines.append(f"{pad}    {head}b{i}a: Lt {{a, R}} {{b, R}} by addboth H;")
                if i == inner and level > 1:
                    block(level - 1, indent + 1)
                lines.append(f"{pad}    {head}b{i}z: Lt {{a}} {{b}} by hypothesis H;")
            lines.append(pad + "};")

        block(depth, 0)
        texts.append("\n".join(lines) + "\n")
    return texts


def _span_texts() -> list[str]:
    """The corpus, its mutations and the generated scripts, each also with
    CRLF line ends, with a comment line before every line, and with every
    statement on one line."""
    texts = [SCRIPT_GOLDEN_TEXTS[name] for name in sorted(SCRIPT_GOLDEN_TEXTS) if name.endswith(".eap")]
    texts += _generated_scripts()
    return [variant for text in texts for variant in
            (text, text.replace("\n", "\r\n"), re.sub("(?m)^", "  # note\n", text), text.replace(";\n", "; "))]


# Every step's (label, line, column, length) over _span_texts(), recorded
# while SourceSpan was a frozen dataclass.
STEP_SPANS_GOLDEN = "8a50b48dde1c15476cbbb1ba7b81a1449c5ceefe19de20c4abf5fa23b3fd55dc"


def test_step_spans_match_golden():
    spans = [(label, span.line, span.column, span.length)
             for text in _span_texts() for label, span in _step_spans(parse_proof(text).steps)]
    assert len(spans) == 2240
    assert hashlib.sha256(repr(spans).encode()).hexdigest() == STEP_SPANS_GOLDEN


# The character-loop lexer that ``_lex`` replaced, kept as the reference its
# tokens, positions and errors must match.  It emits plain tuples with its
# own kind names.
_PUNCT = {
    "{": "lbrace",
    "}": "rbrace",
    "(": "lparen",
    ")": "rparen",
    ",": "comma",
    ":": "colon",
    ";": "semi",
    "/": "slash",
}
_DIGITS = frozenset("0123456789")


def _old_lex(text: str) -> list[tuple[str, str, int, int]]:
    tokens: list[tuple[str, str, int, int]] = []
    line, col, i = 1, 1, 0
    n = len(text)
    while i < n:
        ch = text[i]
        if ch == "\n":
            line += 1
            col = 1
            i += 1
        elif ch in " \t\r":
            col += 1
            i += 1
        elif ch == "#":
            while i < n and text[i] != "\n":
                i += 1
        elif ch in _PUNCT:
            tokens.append((_PUNCT[ch], ch, line, col))
            col += 1
            i += 1
        elif ch == "-" or ch in _DIGITS:
            start_col, start = col, i
            i += 1
            col += 1
            while i < n and text[i] in _DIGITS:
                i += 1
                col += 1
            word = text[start:i]
            if word == "-":
                raise ParseError(SourceSpan(line, start_col, 1), "malformed integer")
            tokens.append(("int", word, line, start_col))
        elif ch.isalpha() or ch == "_":
            start_col, start = col, i
            while i < n and (text[i].isalnum() or text[i] == "_"):
                i += 1
                col += 1
            tokens.append(("ident", text[start:i], line, start_col))
        else:
            raise ParseError(SourceSpan(line, col, 1), f"unexpected character {ch!r}")
    tokens.append(("eof", "", line, col))
    return tokens


def _new_lex(text: str) -> list[tuple[str, str, int, int]]:
    """The parser's tokens as (kind, text, line, column): the kind follows from
    the first character, and line and column from the token's start offset
    through the parser's span function."""
    parser = _Parser(text)  # lexes, and rejects a bad token
    tokens = []
    for at, word in enumerate(parser._texts):
        kind = "eof" if not word else word if word in _PUNCT else "int" if word[0] in "-0123456789" else "ident"
        span = parser._span(at, 1)
        tokens.append((kind, word, span.line, span.column))
    return tokens


def _lex_outcome(lex, text):
    """The tokens as (kind, text, line, column) with the old kind names, or the error."""
    try:
        return [(_PUNCT.get(kind, kind), word, line, column) for kind, word, line, column in lex(text)]
    except ParseError as err:
        return ("error", str(err), err.span)


_LEX_ALPHABET = list("ab_Zé²½Ⅷ٣09-#{}(),:;/ \t\r\n\x00%.") + ["R", "ang", "vars", "-1", "# c", "\u00a0"]


class TestLexer:
    @settings(max_examples=500)
    @given(st.lists(st.sampled_from(_LEX_ALPHABET), max_size=40).map("".join))
    def test_matches_the_old_lexer(self, text):
        assert _lex_outcome(_new_lex, text) == _lex_outcome(_old_lex, text)

    @pytest.mark.parametrize("text", ["-", "a -", "{ang(-/1)}", "x # c", "x\n# c", "# c", "", "a\n  \t", "²", "_²½", "Ⅷ", "é1",
                                      "a#b", "a\r\n# c\r\n  ", "##", "-1-2", "a # c\n#", "\n\n  x"])
    def test_edge_cases_match_the_old_lexer(self, text):
        assert _lex_outcome(_new_lex, text) == _lex_outcome(_old_lex, text)

    def test_corpus_tokens_match_the_old_lexer(self):
        for path in sorted(CORPUS_DIR.glob("*.eap")) + sorted((CORPUS_DIR / "mutations").glob("*.eap")):
            text = path.read_text(encoding="utf-8")
            assert _lex_outcome(_new_lex, text) == _lex_outcome(_old_lex, text), path.name
            parser = _Parser(text)
            for at, (_, word, line, column) in enumerate(_new_lex(text)):
                assert parser._span(at) == SourceSpan(line, column, max(1, len(word)))

    def test_trailing_blanks_are_not_searched(self):
        # A search starting in a run of blanks that no token follows would
        # scan to the end of the run and back: quadratic in its length.
        text = "vars a;" + " \t\r\n" * 10_000
        started = time.perf_counter()
        for token in (_TOKEN, _SCRIPT_TOKEN):
            assert _lex(text, token) == (["vars", "a", ";", ""], [0, 5, 6, len(text)])
        assert time.perf_counter() - started < 1

    def test_end_of_input_after_a_comment_sits_at_the_hash(self):
        with pytest.raises(ParseError) as err:
            parse_expr("{a  # unclosed")
        assert (err.value.span.line, err.value.span.column) == (1, 5)
        assert "end of input" in err.value.message



def _peak_bytes(fn, arg) -> int:
    """The most memory ``fn(arg)`` held at once while it ran, as tracemalloc counts it."""
    tracemalloc.start()
    try:
        fn(arg)
        return tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()


class TestPeakMemory:
    # Neither reader holds state per input character beyond its result: sre
    # keeps about 70 bytes of backtracking state per character for a group
    # repeated over the whole text, which would put either far over its bound.

    def test_lexing_a_500_kb_script(self):
        text = (CORPUS_DIR / "prop13.eap").read_text(encoding="utf-8")
        script = text * (500_000 // len(text) + 1)
        assert _peak_bytes(_lex, script) < 30 * len(script)

    def test_lexing_500_kb_of_plain_steps(self):
        step = "S{}: Eq {{a, b, ang(3/4)}} {{b, R, a}} by eqtrans S{} S{};\n"
        script = "".join(step.format(i, i - 1, i - 2) for i in range(2, 500_000 // len(step) + 2))
        assert _peak_bytes(lambda text: _lex(text, _SCRIPT_TOKEN), script) < 30 * len(script)

    def test_reading_a_13000_term_literal_operand(self):
        rng = random.Random(10)
        operand = str(MultisetExpr(tuple(random_angle(rng, 20) for _ in range(13000))))
        assert _peak_bytes(parse_expr, operand) < 20 * len(operand)

    def test_eval_and_compare_on_a_13000_term_literal_operand(self, capsys):
        # The CLI counts each operand's angles (_literal_counts) and sums the
        # counts (AngleSum._of_counts), never building the expression.
        rng = random.Random(10)
        operand = str(MultisetExpr(tuple(random_angle(rng, 20) for _ in range(13000))))
        for argv in (["eval", operand, "--json"], ["compare", operand, operand, "--json"]):
            assert _peak_bytes(cli.main, argv) < 20 * len(operand)
        evaluated, compared = map(json.loads, capsys.readouterr().out.splitlines())
        assert (evaluated["status"], compared["result"]) == ("ok", "EQUAL")

# ---------------------------------------------------------------------------
# parse_expr reads a literal-only expression by splitting on ","; the token
# parser is the reference it must match, value for value and error for error.

def _parse_outcome(parse, text):
    try:
        return parse(text)
    except ParseError as err:
        return ("error", str(err), err.span)


DIGITS_4400 = "7" * 4400  # past the interpreter's default int conversion limit of 4300 digits
# Repeated choices and the extra small positive y weight the draws toward
# texts the split reader reads; the rest exercise every way to fall back.
_SPECIAL_INTS = st.sampled_from(["-0", "007", "-0012", DIGITS_4400, "-" + DIGITS_4400, "٣", "1٣", "-"])
_XS = st.one_of(st.integers(-40, 40).map(str), st.integers(-10**30, 10**30).map(str), st.integers(-9, 9).map(str),
                _SPECIAL_INTS)
_YS = st.one_of(st.integers(1, 40).map(str), st.integers(1, 10**30).map(str), st.integers(1, 9).map(str), _XS)
_ANG_HEADS = st.sampled_from(["ang", "ang", "ang", "ANG", "Ang", "aNg", "angx"])
_TERM_TOKENS = st.one_of(
    st.builds(lambda head, x, y: [head, "(", x, "/", y, ")"], _ANG_HEADS, _XS, _YS),
    st.sampled_from([["R"], ["R"], ["R"], ["Rx"], ["r"], ["a"], ["ang", "(", "1", "/", "0", ")"],
                     ["ang", "(", "2", "/", "-1", ")"]]),
)
_GAPS = st.sampled_from(["", "", "", " ", " ", "\n", "\t", "\r\n", " \n\t ", "# comment\n"])
_TAILS = st.sampled_from([[], [], [], [], ["junk"], ["}"], [",", "R"], ["# trailing"], ["R"]])


@st.composite
def expression_texts(draw):
    """A braced list of terms, some tokens dropped, with a gap before every token."""
    tokens = ["{"]
    for i, term in enumerate(draw(st.lists(_TERM_TOKENS, max_size=6))):
        tokens += ([","] if i else []) + term
    tokens += ["}"] + draw(_TAILS)
    for _ in range(draw(st.sampled_from([0, 0, 0, 1, 2]))):
        del tokens[draw(st.integers(0, len(tokens) - 1))]
    gaps = draw(st.lists(_GAPS, min_size=len(tokens) + 1, max_size=len(tokens) + 1))
    return "".join(gap + token for gap, token in zip(gaps, tokens + [""]))


class TestLiteralFastPath:
    @settings(max_examples=1000, deadline=None)
    @example("{ang(1/0)}")
    @example("{R, ang(2/-1)}")
    @example(f"{{ang(1/{DIGITS_4400})}}")
    @example("{ang(٣/1)}")
    @example("{R, # comment\n ang(1/2)}")
    @example("{R} junk")
    @example("{Rx, R}")
    @example("{R, angle(1/2)}")
    @given(expression_texts())
    def test_matches_the_token_parser(self, text):
        assert _parse_outcome(parse_expr, text) == _parse_outcome(_parse_expr_tokens, text)

    @pytest.mark.parametrize("text", ["{}", " \n{ }\r\n", "{R}", "{ ANG ( -0 / 007 ) ,\n\tR,aNg(1/2) }"])
    def test_literal_only_text_takes_the_pattern_pass(self, text):
        counts = _literal_counts(text)
        assert counts == Counter((angle.x, angle.y) for angle in _parse_expr_tokens(text).terms)

    @pytest.mark.parametrize("text", ["{a}", "{Rx}", "{r}", "{R # c\n}", "{ang(1/0)}", "{ang(2/-1)}",
                                      f"{{ang({DIGITS_4400}/1)}}", "{ang(٣/1)}", "{R} junk", "{R,}", "{R\u00a0}",
                                      "{R}\f"])
    def test_other_text_goes_to_the_token_parser(self, text):
        assert _literal_counts(text) is None

    @settings(max_examples=500, deadline=None)
    @example("{R, ang(2/4), ang(1/2), ang(-3/3), R}")
    @example("{ang(0/7), ang(-0/1)}")
    @given(expression_texts())
    def test_counted_reader_counts_what_the_split_reader_reads(self, text):
        # With no name declared, the counted reader turns down exactly the
        # texts the split reader turns down, and counts the angles it reads.
        kinds = _expr_terms(text, (), {})
        counts = _literal_counts(text)
        if kinds is None:
            assert counts is None
        else:
            assert kinds[0] == [] and counts == Counter((angle.x, angle.y) for angle in kinds[1])


# ---------------------------------------------------------------------------
# parse_proof lexes a brace group without "{ } # : ;" as one expression token
# and reads each distinct one by splitting on ","; the single-token lexer and
# parser are the reference it must match: an equal derivation with equal step
# spans, or an equal error.

def _reference_parse_proof(text: str):
    return _Parser(text).parse_derivation()


def _step_spans(steps) -> list:
    spans = []
    for step in steps:
        spans.append((step.label, step.span))
        for branch in step.branches:
            spans += _step_spans(branch)
    return spans


def _script_outcome(parse, text):
    try:
        derivation = parse(text)
    except ParseError as err:
        return ("error", err.message, err.span, err.expected)
    return derivation, _step_spans(derivation.steps)


def _expression_tokens_only(text: str):
    """The script read with expression tokens and no fallback; None when that
    reading gives up (a parse error or an expression text it turns down)."""
    try:
        derivation = _Parser(text, _SCRIPT_TOKEN).parse_derivation()
    except (ParseError, _TurnedDown):
        return None
    return derivation, _step_spans(derivation.steps)


def _assert_matches_reference(text: str) -> None:
    expected = _script_outcome(_reference_parse_proof, text)
    assert _script_outcome(parse_proof, text) == expected
    fast = _expression_tokens_only(text)
    if fast is not None:  # whatever the fast reading accepts, the reference reads the same
        assert fast == expected


# Mostly terms and blanks the grammar accepts, so that about half the scripts
# parse; the rest name an undeclared or reserved word, put a Unicode blank
# the grammar does not accept, or write a literal the reader must turn down.
_GOOD_TERMS = ["a", "b", "é1", "_x", "R", "ang(3/4)", "ang (1/ 2)", "ANG(\t-1 / 1)", "ang(\n4/3)", "ang(-0/007)"]
_BAD_TERMS = ["r", "z", "Ω", "a²", "²a", "ang", "case", "Eq", "vars", "ang(1/0)", "ang(1 /\n 0)", "ang(٣/4)",
              "ang(-/1)", f"ang(1/{DIGITS_4400})", "angle(1/2)", "Rx", "a b", "1", "(", "a)"]
_SCRIPT_TERMS = st.sampled_from(_GOOD_TERMS * 40 + _BAD_TERMS)
_SCRIPT_GAPS = st.sampled_from(["", "", "", " ", " ", "\n", "\t", "\r\n", "\n  "] * 40
                               + ["# c\n", " # {a}; \n", "\u00a0", "\u2009"])


@st.composite
def _script_expressions(draw) -> str:
    terms = draw(st.lists(_SCRIPT_TERMS, max_size=4))
    gaps = draw(st.lists(_SCRIPT_GAPS, min_size=len(terms) + 2, max_size=len(terms) + 2))
    if not terms:
        return "{" + gaps[0] + "}"  # "{}", "{ }", or a comment or newline inside
    body = [gap + term for gap, term in zip(gaps, terms)]
    return "{" + ",".join(body) + gaps[-2] + gaps[-1] + "}"


@st.composite
def _script_judgments(draw) -> str:
    head = draw(st.sampled_from(["Eq", "Eq", "Lt", "eq", "Split", "Congr", "False"]))
    if head in ("Eq", "Lt", "eq"):
        return f"{head} {draw(_script_expressions())} {draw(_script_expressions())}"
    arity = {"Split": 3, "Congr": 2, "False": 0}[head]
    return " ".join([head, *draw(st.lists(_SCRIPT_TERMS, min_size=arity, max_size=arity))])


_SCRIPT_RULES = st.sampled_from(["eqrefl", "eqsym", "addboth", "eqtrans", "hypothesis", "kerneleval", "wholepart"])
_BLOCKS = st.sampled_from(["{}", "{ }", "{\n}", "{ # none\n}"])


def _script_steps(depth: int):
    """Up to three steps, some of them cases steps; every label is "L@",
    numbered once the script is complete."""
    refs = ["", "", "H1", "L1"] + (["case"] if depth else [])
    step = st.builds(lambda j, rule, ref: f"L@: {j} by {rule} {ref};",
                     _script_judgments(), _SCRIPT_RULES, st.sampled_from(refs))
    cases = st.builds(lambda j, x, y, blocks: f"L@: {j} by cases {x} {y} {' '.join(blocks)};",
                      _script_judgments(), _script_expressions(), _script_expressions(),
                      st.lists(_BLOCKS if depth >= 2 else st.one_of(_BLOCKS, _script_blocks(depth + 1)),
                               min_size=3, max_size=3))
    return st.lists(st.one_of(step, step, cases), max_size=3)


def _script_blocks(depth: int):
    return _script_steps(depth).map(lambda steps: "{ " + "\n".join(steps) + " }")


@st.composite
def proof_scripts(draw) -> str:
    """Scripts over the grammar, with valid and invalid terms, comments and
    blanks inside expressions, empty expressions and empty cases blocks, and
    sometimes a token dropped."""
    lines = [draw(st.sampled_from(["vars a b é1 _x;"] * 20 + ["vars a b;", "vars;", "vars a a;", "vars R;"]))]
    lines += [f"hyp H{i}: {j};" for i, j in enumerate(draw(st.lists(_script_judgments(), max_size=2)), 1)]
    lines += draw(_script_steps(0))
    labels = itertools.count(1)
    text = re.sub("@", lambda _: str(next(labels)), "\n".join(lines) + "\n")
    rng = draw(st.randoms(use_true_random=True))
    if rng.random() < 0.1:  # drop one character that delimits tokens, anywhere in the script
        marks = [i for i, ch in enumerate(text) if ch in "{}(),:;/"]
        if marks:
            at = rng.choice(marks)
            text = text[:at] + text[at + 1:]
    return text


_CORPUS_TEXTS = [path.read_text(encoding="utf-8")
                 for path in sorted(CORPUS_DIR.glob("*.eap")) + sorted((CORPUS_DIR / "mutations").glob("*.eap"))]
_EDIT_BYTES = st.sampled_from([b"{", b"}", b",", b":", b";", b"#", b" ", b"\n", b"a", b"R", b"z", b"0", b"-", b"(",
                               b"ang(1/0)", b"\xc2\xb2", b"\xc2\xa0", b"\xff", b"\xe2\x80\x89"])


@st.composite
def edited_corpus_scripts(draw) -> str:
    """A corpus script with up to four byte edits: a deletion, insertion or
    replacement at a random offset, decoded with bad UTF-8 replaced."""
    data = bytearray(draw(st.sampled_from(_CORPUS_TEXTS)).encode("utf-8"))
    for _ in range(draw(st.integers(1, 4))):
        at = draw(st.integers(0, len(data)))
        kind = draw(st.sampled_from(["delete", "insert", "replace"]))
        cut = at + (kind != "insert")
        data[at:cut] = b"" if kind == "delete" else draw(_EDIT_BYTES)
    return data.decode("utf-8", errors="replace")


class TestExpressionTokens:
    @settings(max_examples=200, deadline=None)
    @example("vars a;\nS1: Eq {a, # comment\n a} {a,a} by eqrefl;\n")
    @example("vars a;\nS1: Eq {} { } by eqrefl;\nS2: Lt {a} {a} by cases {} { } {} { } {\n};\n")
    @example("vars a b;\nS1: Eq {a,\n  b} {b\r\n, a} by eqrefl;\n")
    @example("vars a b;\nS1: Eq {a,\u00a0b} {a,\u2009b} by eqrefl;\n")
    @example("vars a² _x;\nS1: Eq {a², _x} {²a} by eqrefl;\n")
    @example("vars a;\nS1: Eq {a, case} {a} by eqrefl;\n")
    @example("vars a;\nS1: Eq {ang} {R} by eqrefl;\n")
    @example("vars a;\nS1: Eq {a, b} {a} by eqrefl;\n")
    @example("vars;\nS1: Eq {R, ang(1/0)} {R} by eqrefl;\n")
    @example("vars;\nS1: Eq {R, ang(1 /\n 0)} {R} by eqrefl;\n")
    @example("vars;\nS1: Eq {ang(1/" + DIGITS_4400 + ")} {R} by eqrefl;\n")
    @example("vars a;\nS1: Lt {a} {a} by cases {a} {a} { } { S2: Eq {a} {a} by eqrefl; } {a};\n")
    @example("vars a;\nhyp C6: Eq {a} {a};\nS1: Eq {a} {a} by hypothesis C6;;\n")
    @example("vars a S1: Eq {a} {a} by eqrefl; ;")
    @example("vars a;\nS1: Eq {a} {a} by eqrefl\nS2: Eq {a} {a} by eqrefl;\n")
    @example("vars a;\nS1: Eq {a} {a # c\n} by eqrefl;\nS2: Eq {a} {a} by eqsym S1;\n")
    @given(proof_scripts())
    def test_generated_scripts_match_the_reference(self, text):
        _assert_matches_reference(text)

    @pytest.mark.parametrize("term", _GOOD_TERMS + _BAD_TERMS)
    def test_each_term_matches_the_reference(self, term):
        # One term at a time, so that no other error sends the script to the
        # reference before the reader sees it.
        _assert_matches_reference(f"vars a b é1 _x;\nS1: Eq {{a, {term}}} {{ {term}\n}} by eqrefl;\n")

    @settings(max_examples=300, deadline=None)
    @given(edited_corpus_scripts())
    def test_edited_corpus_scripts_match_the_reference(self, text):
        _assert_matches_reference(text)

    @pytest.mark.parametrize("name", sorted(SCRIPT_GOLDEN_TEXTS))
    def test_golden_scripts_match_the_reference(self, name):
        _assert_matches_reference(SCRIPT_GOLDEN_TEXTS[name])

    def test_corpus_scripts_take_the_expression_tokens(self):
        # Every corpus script, mutations included, parses without the fallback.
        for text in _CORPUS_TEXTS:
            assert _expression_tokens_only(text) == _script_outcome(_reference_parse_proof, text)

    def test_empty_braces_stay_two_tokens(self):
        texts, _ = _lex("{} { } {\n} {a} { a ,b\n}", _SCRIPT_TOKEN)
        assert texts == ["{", "}", "{", "}", "{", "}", "{a}", "{ a ,b\n}", ""]

    def test_plain_steps_are_one_token(self):
        # A plain Eq or Lt step with blanks only between its parts is one
        # token; a hypothesis, a cases, Split or False step, a step with a
        # comment or an empty {} inside, and a ";" alone are read as before.
        steps = ["S1: Eq {a} {b} by eqrefl;", "S2 :lt{a}{ b }BY\taddboth S1  H1\r\n;", "é_1: eQ {a} {b} by x y z;"]
        text = "\n".join(["vars a b;", "hyp H1: Eq {a} {b};", steps[0], ";", steps[1],
                          "S3: Eq {a} {b} by cases {a} {b} {} {} {};", steps[2], "S4: Split a b b by x;",
                          "S5: False by hypothesis S1;", "S6: Eq {a # c\n} {b} by eqrefl;", "S7: Eq {} {b} by eqrefl;",
                          "S8: Eq {a} {b} byeqrefl;", "S9: Eq {a} {b} by eqrefl S1"])
        texts, starts = _lex(text, _SCRIPT_TOKEN)
        # A step token is kept as its parts, and starts at its label.
        parts = [_STEP.fullmatch(step).groups() for step in steps]
        assert texts == ["vars", "a", "b", ";", "hyp", "H1", ":", "Eq", "{a}", "{b}", ";", parts[0], ";", parts[1],
                         "S3", ":", "Eq", "{a}", "{b}", "by", "cases", "{a}", "{b}", "{", "}", "{", "}", "{", "}", ";",
                         parts[2], "S4", ":", "Split", "a", "b", "b", "by", "x", ";",
                         "S5", ":", "False", "by", "hypothesis", "S1", ";", "S6", ":", "Eq", "{", "a", "}", "{b}",
                         "by", "eqrefl", ";", "S7", ":", "Eq", "{", "}", "{b}", "by", "eqrefl", ";",
                         "S8", ":", "Eq", "{a}", "{b}", "byeqrefl", ";", "S9", ":", "Eq", "{a}", "{b}", "by",
                         "eqrefl", "S1", ""]
        words = [steps.pop(0) if word.__class__ is tuple else word for word in texts]
        assert [text[start:start + len(word)] for word, start in zip(words, starts)] == words
        assert starts[-1] == len(text)

    def test_step_tokens_keep_the_groups_of_their_own_match(self):
        # Each step token holds _STEP's groups for its own text, found here
        # by its start offset: the lexer drops comments after matching, so a
        # token's index is not its match's.
        kept = 0
        for text in _span_texts():  # with CRLF line ends and with comment lines too
            words = {m.start(1): m[1] for m in _SCRIPT_TOKEN.finditer(text)}
            texts, starts = _lex(text, _SCRIPT_TOKEN)
            parts = {start: word for word, start in zip(texts, starts) if word.__class__ is tuple}
            assert parts == {start: _STEP.fullmatch(word).groups() for start, word in words.items()
                             if _STEP.fullmatch(word)}
            kept += len(parts)
        assert kept > 1000

    @pytest.mark.parametrize("text", [
        "vars a S1: Eq {a} {a} by eqrefl; ;",  # a step token as a variable,
        "vars a; hyp S1: Eq {a} {a} by eqrefl;",  # as a hypothesis label
        "vars a; S1: Eq {a} {a} by eqrefl S2: Eq {a} {a} by eqrefl;",  # and as a reference
        "vars a; by: Eq {a} {a} by eqrefl;", "vars a; R: Lt {a} {a} by eqrefl;", "vars a; S1: Eq {a} {a} by x;",
        "vars a; S1: Lt {a} {a} by cases;", "vars a; S1: Eq {a} {a} by eqsym S1;",
        "vars a; S1: Eq {a} {a} by eqsym S2; S2: Eq {a} {a} by eqrefl;",
        "vars a; S1: Eq {a} {a} by eqrefl; S1: Eq {a} {a} by eqrefl;"])
    def test_a_step_token_that_fails_a_check_goes_to_the_reference(self, text):
        # A step token is never an identifier, and one that fails a check of
        # the token path (reserved label, rule, cases, reference, duplicate)
        # sends the script to the reference, which reports the error.
        assert _expression_tokens_only(text) is None
        with pytest.raises(ParseError):
            parse_proof(text)
        _assert_matches_reference(text)

    def test_each_distinct_expression_text_is_read_once(self, monkeypatch):
        # A chain whose steps restate their premise's sides: addboth, eqsym, eqrefl.
        lines, left, right, prev = ["vars a b c;", "hyp H: Eq {a} {b, c};"], ["a"], ["b", "c"], "H"
        for i in range(1, 13):
            added = ["R", "ang(3/4)", "a", "c"][i % 4]
            left, right = left + [added], right + [added]
            lhs, rhs = "{" + ", ".join(left) + "}", "{" + ", ".join(right) + "}"
            lines += [f"A{i}: Eq {lhs} {rhs} by addboth {prev};", f"B{i}: Eq {rhs} {lhs} by eqsym A{i};",
                      f"C{i}: Eq {lhs} {lhs} by eqrefl;"]
            prev = f"A{i}"
        text = "\n".join(lines) + "\n"
        read = []

        def counting(word, declared, memo):
            read.append(word)
            return expr_terms(word, declared, memo)

        expr_terms = dsl._expr_terms
        monkeypatch.setattr(dsl, "_expr_terms", counting)
        derivation = parse_proof(text)
        assert sorted(read) == sorted(set(re.findall(r"\{[^{}]*\}", text)))
        assert len(read) == 2 + 2 * 12
        for a, b, c in zip(*[iter(derivation.steps)] * 3):
            assert a.judgment.lhs is b.judgment.rhs is c.judgment.lhs is c.judgment.rhs
            assert a.judgment.rhs is b.judgment.lhs
        assert _script_outcome(lambda t: derivation, text) == _script_outcome(_reference_parse_proof, text)


# ---------------------------------------------------------------------------
# The split reader against the token parser, through parse_expr and through
# parse_proof, on texts whose pieces it must read or turn down.

SPLIT_TEXTS = ["{R,,R}", "{,R}", "{R,}", "{ , }", "{R }", "{R\v}", "{ang (1/2), ang(1/2)}", "{a,\n a}",
               "{R, (}", "{R, )}", "{(R)}", "{ang(1/2))}", "{ang(1,2)}", "{R # c\n}", "{R, #}", "{# c\n R}",
               "{R R}", "{ang(1/2)ang(1/2)}", "{\u00a0R}", "{R\f}", "{a\u2009}", "{R}}", "{{R}", "{R, R)", "{R R",
               f"{{ang(1/{DIGITS_4400})}}", f"{{R, ang(-{DIGITS_4400}/1)}}", "{ang(1/0)}", "{ang(0/0)}",
               "{ang(2/-1)}", "{ang(-3/0)}", "{ang(٣/4)}", "{ang(1/٣)}", "{R, ang(1/2)٣}", "{ang(１/2)}"]
_PIECE_CHARS = st.sampled_from(["R", "a", "é", "ang", "ANG", "(", ")", "1", "2", "-", "/", "#", ",", " ", "\n",
                                "\t", "\r", "\v", "\u00a0", "٣", "{", "}"])


class TestSplitReader:
    @pytest.mark.parametrize("text", SPLIT_TEXTS)
    def test_parse_expr_matches_the_token_parser(self, text):
        assert _parse_outcome(parse_expr, text) == _parse_outcome(_parse_expr_tokens, text)

    @pytest.mark.parametrize("text", SPLIT_TEXTS)
    def test_parse_proof_matches_the_reference(self, text):
        _assert_matches_reference(f"vars a b;\nS1: Eq {text} {{a}} by eqrefl;\nS2: Eq {{b, {text[1:]} {text} by eqrefl;\n")

    @settings(max_examples=500, deadline=None)
    @given(st.lists(_PIECE_CHARS, max_size=12).map(lambda chars: "{" + "".join(chars) + "}"))
    def test_random_pieces_match_the_token_parser(self, text):
        assert _parse_outcome(parse_expr, text) == _parse_outcome(_parse_expr_tokens, text)
        _assert_matches_reference(f"vars a;\nS1: Eq {text} {{a}} by eqrefl;\n")

    @pytest.mark.parametrize("text", ["{R,,R}", "{,R}", "{R,}", "{ , }", "{R\v}", "{R, (}", "{R # c\n}", "{R R}",
                                      "{ang(1/0)}", f"{{ang(1/{DIGITS_4400})}}", "{ang(٣/4)}", "{b}", "{case}"])
    def test_turns_down_what_the_token_parser_must_read(self, text):
        assert _expr_terms(text, {"a"}, {}) is None

    def test_reads_blanks_around_pieces_and_declared_names(self):
        assert _expr_terms("{a,\n a}", {"a"}, {}) == (["a", "a"], [])
        assert _expr_terms("{R }", (), {}) == _expr_terms("{ R}", (), {}) == ([], [R])
        assert _expr_terms("{ }", (), {}) == _expr_terms("{}", (), {}) == ([], [])

    def test_each_raw_piece_is_read_once(self):
        memo: dict = {}
        names, angles = _expr_terms("{ang (1/2), ang(1/2), ang(1/2)}", (), memo)
        assert names == [] and angles == [ang(1, 2)] * 3 and angles[1] is angles[2]
        assert sorted(memo) == [" ang(1/2)", "ang (1/2)"]
