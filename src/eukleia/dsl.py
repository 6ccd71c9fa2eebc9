"""Reader and printer for the ``.eap`` proof-script format.

Scripts are plain UTF-8 text: a ``vars`` header, ``hyp`` lines, then labeled
steps citing a rule and premise labels, every statement terminated by a
semicolon.  Keywords and rule names are case-insensitive; variable names and
labels are case-sensitive, and ``R`` (exactly uppercase) is the reserved
right angle.

One regular expression, ``_TOKEN``, defines the tokens: IDENT is a letter or
``_`` followed by alphanumerics and ``_``; INT is ``-?[0-9]+`` (ASCII digits);
each of ``{ } ( ) , : ; /`` is a token whose kind is the character itself.
Blanks and newlines separate tokens, ``#`` starts a comment running to the
end of the line, and any other character is a parse error.

Grammar::

    proof    := "vars" IDENT* ";" hyp* step*
    hyp      := "hyp" IDENT ":" judgment ";"
    step     := IDENT ":" judgment "by" RULE refs ";"
    refs     := IDENT*                                  (labels, or "case")
              | expr expr "{" step* "}" "{" step* "}" "{" step* "}"
                                                        (cases rule only)
    judgment := "Eq" expr expr | "Lt" expr expr
              | "Split" term term term | "Congr" term term | "False"
    expr     := "{" [ term ("," term)* ] "}"
    term     := IDENT | "R" | "ang" "(" INT "/" INT ")"

References are resolved while parsing: citing a label that is not yet in
scope (including any forward reference) is a parse error.  Within a cases
branch the branch's comparison is cited as ``case``.  A step nested in more
than ``MAX_CASES_DEPTH`` cases branches is a parse error.

A standalone expression (:func:`parse_expr`) of ``R`` and ``ang`` literals
only, written without comments, is read in one pattern pass without the
lexer.  Every other text, and every text with an error, goes to the token
parser, which alone reports parse errors.
"""

from __future__ import annotations

import re
from dataclasses import dataclass
from typing import NamedTuple, Optional

from .calculus import (
    Congr,
    Derivation,
    Eq,
    Falsum,
    Hypothesis,
    Judgment,
    Lt,
    MultisetExpr,
    Rule,
    Split,
    Step,
    Term,
    format_judgment,
)
from .kernel import DegenerateAngle, angle_from_slope_vector

__all__ = [
    "ParseError",
    "SourceSpan",
    "format_derivation",
    "parse_expr",
    "parse_proof",
]


@dataclass(frozen=True)
class SourceSpan:
    """1-based position and length of a piece of source text."""

    line: int
    column: int
    length: int


class ParseError(Exception):
    """Input text the grammar does not accept, located by a source span."""

    def __init__(self, span: SourceSpan, message: str, expected: tuple[str, ...] = ()):
        detail = message
        if expected:
            detail = f"{message} (expected {', '.join(expected)})"
        super().__init__(f"{span.line}:{span.column}: {detail}")
        self.span = span
        self.message = message
        self.expected = expected


# How many cases branches deep a step may sit.  Parsing, checking and model
# checking recurse once per level; this keeps them inside the recursion limit.
MAX_CASES_DEPTH = 100

# Words that cannot serve as variable names or labels, compared lowercase.
_RESERVED = {"vars", "hyp", "by", "eq", "lt", "split", "congr", "false", "ang", "case", "cases"}

_RULES_BY_NAME = {r.value: r for r in Rule}

# Each judgment head, lowercase: its class, whether its operands are
# expressions (else terms), and how many it takes.
_JUDGMENTS = {"eq": (Eq, True, 2), "lt": (Lt, True, 2), "split": (Split, False, 3),
              "congr": (Congr, False, 2), "false": (Falsum, False, 0)}


# One alternative per token class, tried in order.  [^\W0-9] also admits
# numerals such as "²", "½", "Ⅷ" and "٣", which _lex rejects: an identifier
# starts with a letter (str.isalpha) or "_".  A "-" before no digit is "other".
_TOKEN = re.compile(r"""
    (?P<newline>\n)
  | (?P<blank>[ \t\r]+)
  | (?P<comment>\#[^\n]*)
  | (?P<int>-?[0-9]+)
  | (?P<ident>[^\W0-9]\w*)
  | (?P<punct>[{}(),:;/])
  | (?P<other>.)
""", re.VERBOSE)


class _Token(NamedTuple):
    kind: str  # ident | int | eof | the punctuation character itself
    text: str
    line: int
    column: int

    @property
    def span(self) -> SourceSpan:
        return SourceSpan(self.line, self.column, max(1, len(self.text)))


def _lex(text: str) -> list[_Token]:
    tokens: list[_Token] = []
    line, line_start, end = 1, 0, 0
    for m in _TOKEN.finditer(text):
        kind, start, end = m.lastgroup, m.start(), m.end()
        if kind == "newline":
            line, line_start = line + 1, end
        elif kind == "comment":
            end = start  # end of input right after a comment sits at the "#"
        elif kind != "blank":
            word, column = m.group(), start - line_start + 1
            if kind == "punct":
                kind = word
            elif kind == "other" or (kind == "ident" and not (word[0].isalpha() or word[0] == "_")):
                message = "malformed integer" if word == "-" else f"unexpected character {word[0]!r}"
                raise ParseError(SourceSpan(line, column, 1), message)
            tokens.append(_Token(kind, word, line, column))
    tokens.append(_Token("eof", "", line, end - line_start + 1))
    return tokens


class _Parser:
    def __init__(self, tokens: list[_Token]):
        self._tokens = tokens
        self._pos = 0
        # Declared variable names; None accepts any name (a standalone expression).
        self._declared: Optional[set[str]] = None
        # Every label so far, and the labels in scope: one frame per open cases branch.
        self._labels: set[str] = set()
        self._scope: list[set[str]] = [set()]

    # -- token plumbing ----------------------------------------------------

    def _peek(self) -> _Token:
        return self._tokens[self._pos]

    def _unexpected(self, *expected: str) -> ParseError:
        tok = self._tokens[self._pos]
        found = "end of input" if tok.kind == "eof" else repr(tok.text)
        return ParseError(tok.span, f"unexpected {found}", expected=expected)

    def _expect(self, kind: str, what: Optional[str] = None) -> _Token:
        """Consume the next token, which must be of ``kind`` (``what`` names it in errors)."""
        tok = self._tokens[self._pos]
        if tok.kind != kind:
            raise self._unexpected(what or kind)
        self._pos += 1
        return tok

    def _keyword(self, word: str) -> bool:
        """Consume the next token if it is the keyword ``word``."""
        tok = self._tokens[self._pos]
        if tok.kind == "ident" and tok.text.lower() == word:
            self._pos += 1
            return True
        return False

    # -- names -------------------------------------------------------------

    def _name(self, what: str) -> _Token:
        tok = self._expect("ident", what)
        if tok.text.lower() in _RESERVED or tok.text == "R":
            raise ParseError(tok.span, f"{tok.text!r} is reserved and cannot name a {what}")
        return tok

    def _declare_label(self, tok: _Token) -> None:
        if tok.text in self._labels:
            raise ParseError(tok.span, f"duplicate label {tok.text!r}")
        self._labels.add(tok.text)
        self._scope[-1].add(tok.text)

    # -- expressions -------------------------------------------------------

    def parse_expr(self) -> MultisetExpr:
        self._expect("{")
        terms: list[Term] = []
        if self._peek().kind != "}":
            terms.append(self._parse_term())
            while self._peek().kind == ",":
                self._pos += 1
                terms.append(self._parse_term())
        self._expect("}")
        return MultisetExpr(tuple(terms))

    def _int(self) -> int:
        tok = self._expect("int", "integer")
        try:
            return int(tok.text)
        except ValueError:  # longer than the interpreter's int conversion limit
            raise ParseError(tok.span, f"integer literal too long ({len(tok.text.lstrip('-'))} digits)") from None

    def _parse_term(self) -> Term:
        tok = self._expect("ident", "term")
        if tok.text == "R":
            return angle_from_slope_vector(0, 1)
        if tok.text.lower() == "ang":
            self._expect("(")
            x = self._int()
            self._expect("/")
            y = self._int()
            close = self._expect(")")
            try:
                angle = angle_from_slope_vector(x, y)
            except DegenerateAngle:
                length = close.column + 1 - tok.column if close.line == tok.line else len(tok.text)
                raise ParseError(
                    SourceSpan(tok.line, tok.column, length),
                    "degenerate angle literal: the argument is not strictly between 0 and pi",
                ) from None
            return angle
        if tok.text.lower() in _RESERVED:
            raise ParseError(tok.span, f"{tok.text!r} is reserved and cannot name a variable")
        if self._declared is not None and tok.text not in self._declared:
            raise ParseError(tok.span, f"undeclared variable {tok.text!r}")
        return tok.text

    # -- judgments ---------------------------------------------------------

    def _parse_judgment(self) -> Judgment:
        tok = self._peek()
        form = _JUDGMENTS.get(tok.text.lower()) if tok.kind == "ident" else None
        if form is None:
            raise self._unexpected("Eq", "Lt", "Split", "Congr", "False")
        self._pos += 1
        judgment, of_exprs, arity = form
        operand = self.parse_expr if of_exprs else self._parse_term
        return judgment(*[operand() for _ in range(arity)])

    # -- proofs ------------------------------------------------------------

    def parse_derivation(self) -> Derivation:
        if not self._keyword("vars"):
            raise ParseError(self._peek().span, "missing vars header", expected=("vars",))
        variables: list[str] = []
        self._declared = set()
        while self._peek().kind == "ident":
            tok = self._name("variable")
            if tok.text in self._declared:
                raise ParseError(tok.span, f"variable {tok.text!r} declared twice")
            self._declared.add(tok.text)
            variables.append(tok.text)
        self._expect(";")

        hypotheses: list[Hypothesis] = []
        while self._keyword("hyp"):
            label = self._name("hypothesis label")
            self._declare_label(label)
            self._expect(":")
            judgment = self._parse_judgment()
            self._expect(";")
            hypotheses.append(Hypothesis(label.text, judgment))

        steps: list[Step] = []
        while self._peek().kind != "eof":
            steps.append(self._parse_step())

        return Derivation(tuple(variables), tuple(hypotheses), tuple(steps))

    def _parse_step(self) -> Step:
        label = self._name("step label")
        if len(self._scope) - 1 > MAX_CASES_DEPTH:
            raise ParseError(label.span, f"cases nested deeper than {MAX_CASES_DEPTH} levels")
        self._expect(":")
        judgment = self._parse_judgment()
        if not self._keyword("by"):
            raise self._unexpected("by")
        rule_tok = self._expect("ident", "rule name")
        rule = _RULES_BY_NAME.get(rule_tok.text.lower())
        if rule is None:
            raise ParseError(rule_tok.span, f"unknown rule {rule_tok.text!r}")

        case_pair: Optional[tuple[MultisetExpr, MultisetExpr]] = None
        branches: tuple[tuple[Step, ...], ...] = ()
        premises: list[str] = []

        if rule is Rule.CASES:
            case_pair = (self.parse_expr(), self.parse_expr())
            parsed: list[tuple[Step, ...]] = []
            for _ in range(3):
                self._expect("{")
                self._scope.append({"case"})
                block: list[Step] = []
                while self._peek().kind != "}":
                    block.append(self._parse_step())
                self._scope.pop()
                self._expect("}")
                parsed.append(tuple(block))
            branches = tuple(parsed)
        else:
            while self._peek().kind == "ident":
                ref = self._expect("ident")
                if not any(ref.text in frame for frame in self._scope):
                    raise ParseError(ref.span, f"unknown reference {ref.text!r}")
                premises.append(ref.text)

        self._expect(";")
        self._declare_label(label)
        return Step(label.text, judgment, rule, tuple(premises), case_pair=case_pair, branches=branches,
                    span=label.span)


# A literal-only standalone expression, read without the lexer: _LITERAL_EXPR
# matches exactly the texts whose tokens are "{", then "R" and "ang" ( INT / INT )
# terms separated by ",", then "}", with blanks between any two of them.  Each
# word must be followed by a blank, ",", "}" or "(", so "Rx" and "angle" do not
# match.  In such a text every "R" is a term and every "(" opens an ang term,
# so _LITERAL_TERM finds the terms in order, an "R" as the pair ("", "").
_BLANKS = r"[ \t\r\n]*"
_LITERAL = rf"(?:R|[aA][nN][gG]{_BLANKS}\({_BLANKS}-?[0-9]+{_BLANKS}/{_BLANKS}-?[0-9]+{_BLANKS}\)){_BLANKS}"
_LITERAL_EXPR = re.compile(rf"{_BLANKS}\{{{_BLANKS}(?:{_LITERAL}(?:,{_BLANKS}{_LITERAL})*)?\}}{_BLANKS}")
_LITERAL_TERM = re.compile(rf"R|\({_BLANKS}(-?[0-9]+){_BLANKS}/{_BLANKS}(-?[0-9]+)")


def _literal_terms(text: str) -> Optional[list[Term]]:
    """The terms of a literal-only expression, read in one pattern pass; None
    when the token parser must read ``text``: it is not literal-only, an
    integer is longer than the interpreter converts, or a literal is
    degenerate."""
    if _LITERAL_EXPR.fullmatch(text) is None:
        return None
    angles = {("", ""): angle_from_slope_vector(0, 1)}  # each distinct pair, converted once
    terms: list[Term] = []
    for pair in _LITERAL_TERM.findall(text):
        angle = angles.get(pair)
        if angle is None:
            try:
                angle = angles[pair] = angle_from_slope_vector(int(pair[0]), int(pair[1]))
            except ValueError:  # the digit limit, or DegenerateAngle
                return None
        terms.append(angle)
    return terms


def parse_expr(text: str) -> MultisetExpr:
    """Parse a standalone multiset expression such as ``{R, ang(3/4), a}``.

    Variables are accepted syntactically; callers that need a literal-only
    expression check for variables themselves.  A literal-only expression
    without comments takes one pattern pass (:func:`_literal_terms`); any
    other text, and every text with an error, goes to the token parser, which
    alone reports errors.  Either way the result is the same.
    """
    terms = _literal_terms(text)
    if terms is not None:
        return MultisetExpr(tuple(terms))
    parser = _Parser(_lex(text))
    expr = parser.parse_expr()
    tok = parser._peek()
    if tok.kind != "eof":
        raise ParseError(tok.span, f"unexpected {tok.text!r} after the expression", expected=("end of input",))
    return expr


def parse_proof(text: str) -> Derivation:
    """Parse a full proof script; raises ParseError with a source span."""
    return _Parser(_lex(text)).parse_derivation()


# ---------------------------------------------------------------------------
# Pretty printing

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
