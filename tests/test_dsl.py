import random

import pytest
from hypothesis import example, given, settings, strategies as st

from eukleia.calculus import MultisetExpr, Rule, multiset
from eukleia.dsl import (ParseError, SourceSpan, _lex, _literal_terms, _Parser, format_derivation, parse_expr,
                         parse_proof)
from eukleia.kernel import right_angle

from conftest import CORPUS_DIR, ang

R = right_angle()


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
        assert e.counts()["a"] == 2

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
        assert _lex_outcome(_lex, text) == _lex_outcome(_old_lex, text)

    @pytest.mark.parametrize("text", ["-", "a -", "{ang(-/1)}", "x # c", "x\n# c", "# c", "", "a\n  \t", "²", "_²½", "Ⅷ", "é1"])
    def test_edge_cases_match_the_old_lexer(self, text):
        assert _lex_outcome(_lex, text) == _lex_outcome(_old_lex, text)

    def test_corpus_tokens_match_the_old_lexer(self):
        for path in sorted(CORPUS_DIR.glob("*.eap")) + sorted((CORPUS_DIR / "mutations").glob("*.eap")):
            text = path.read_text(encoding="utf-8")
            assert _lex_outcome(_lex, text) == _lex_outcome(_old_lex, text), path.name
            for tok in _lex(text):
                assert tok.span == SourceSpan(tok.line, tok.column, max(1, len(tok.text)))

    def test_end_of_input_after_a_comment_sits_at_the_hash(self):
        with pytest.raises(ParseError) as err:
            parse_expr("{a  # unclosed")
        assert (err.value.span.line, err.value.span.column) == (1, 5)
        assert "end of input" in err.value.message


# ---------------------------------------------------------------------------
# parse_expr reads a literal-only expression in one pattern pass; the token
# parser is the reference it must match, value for value and error for error.

def _token_parse_expr(text: str) -> MultisetExpr:
    parser = _Parser(_lex(text))
    expr = parser.parse_expr()
    tok = parser._peek()
    if tok.kind != "eof":
        raise ParseError(tok.span, f"unexpected {tok.text!r} after the expression", expected=("end of input",))
    return expr


def _parse_outcome(parse, text):
    try:
        return parse(text)
    except ParseError as err:
        return ("error", str(err), err.span)


DIGITS_4400 = "7" * 4400  # past the interpreter's default int conversion limit of 4300 digits
# Repeated choices and the extra small positive y weight the draws toward
# texts the pattern pass reads; the rest exercise every way to fall back.
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
        assert _parse_outcome(parse_expr, text) == _parse_outcome(_token_parse_expr, text)

    @pytest.mark.parametrize("text", ["{}", " \n{ }\r\n", "{R}", "{ ANG ( -0 / 007 ) ,\n\tR,aNg(1/2) }"])
    def test_literal_only_text_takes_the_pattern_pass(self, text):
        terms = _literal_terms(text)
        assert terms is not None and MultisetExpr(tuple(terms)) == _token_parse_expr(text)

    @pytest.mark.parametrize("text", ["{a}", "{Rx}", "{r}", "{R # c\n}", "{ang(1/0)}", "{ang(2/-1)}",
                                      f"{{ang({DIGITS_4400}/1)}}", "{ang(٣/1)}", "{R} junk", "{R,}", "{R\u00a0}",
                                      "{R}\f"])
    def test_other_text_goes_to_the_token_parser(self, text):
        assert _literal_terms(text) is None
