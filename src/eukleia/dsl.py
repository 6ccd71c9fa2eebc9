"""Reader for the ``.eap`` proof-script format.

Scripts are plain UTF-8 text: a ``vars`` header, ``hyp`` lines, then labeled
steps citing a rule and premise labels, every statement terminated by a
semicolon.  Keywords and rule names are case-insensitive; variable names and
labels are case-sensitive, and ``R`` (exactly uppercase) is the reserved
right angle.

One regular expression, ``_TOKEN``, defines the tokens: IDENT is a letter or
``_`` followed by alphanumerics and ``_``; INT is ``-?[0-9]+`` (ASCII digits);
each of ``{ } ( ) , : ; /`` is a token whose kind is the character itself.
Blanks and newlines separate tokens (each match skips the run before its
token), ``#`` starts a comment running to the end of the line, and any other
character is a parse error.  The lexer keeps each token's text and start
offset; line and column are computed from the offsets, with the newline
offsets built once per parse, only for the spans that are reported: a parse
error and each step label's ``Step.span``.

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

Two readers read an expression without the token parser.  Each splits the
text between the braces on ``,`` and reads each distinct piece once, blanks
stripped; any other piece turns the text down.  :func:`_expr_terms` reads an
expression of a script, where a piece is a declared name, ``R`` or one
``ang`` literal.  A standalone expression (:func:`parse_expr`, and the
``eval`` and ``compare`` operands) declares no names, so
:func:`_literal_counts` reads one of ``R`` and ``ang`` literals only, written
without comments, and counts its angles by reduced pair.  Every other text,
and every text with an error, goes to the token parser, which alone reports
parse errors.

A proof script (:func:`parse_proof`) is lexed with two more token classes,
tried first:

- a step token is one whole plain step, ``LABEL : (Eq|Lt) expr expr by RULE
  REF* ;`` with each ``expr`` an expression token and only blanks between
  the parts.  A cases, Split, Congr or False step, a hypothesis, and a step
  with a comment or an empty ``{}`` inside are lexed token by token.  The step
  parts come from the lexer's own match: ``_SCRIPT_TOKEN`` holds ``_STEP``'s
  six groups, and the lexer keeps a step token as that tuple, not as its
  text.  The parser makes on them the checks it makes on a step read token
  by token, through the same helpers; a step token is never an identifier,
  so it is never taken as a name, a label or a reference.
- an expression token is a brace group holding no ``{ } # : ;`` and at
  least one non-blank character.  Such a group is an expression wherever it
  stands, since a cases block holds steps, each with ``:`` and ``;``;
  ``{}`` and ``{ }`` stay two tokens, as they may be empty blocks.

Each distinct expression text is read once per parse by :func:`_expr_terms`,
each distinct piece of it once too, and a repeated text is the same
:class:`MultisetExpr` object.  A script with an expression text the reader
turns down, with a step token citing ``cases``, or with any parse error is
read again by the single-token lexer and parser, the reference that alone
reports errors, so the result is the same either way.
"""

from __future__ import annotations

import re
from bisect import bisect_right
from collections import Counter
from itertools import compress, islice, repeat
from math import gcd
from typing import Collection, NamedTuple, Optional

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
)
from .kernel import _RIGHT, AngleLit, DegenerateAngle, _reduced, angle_from_slope_vector


class SourceSpan(NamedTuple):
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


# One alternative per token class, tried in order after a run of blanks and
# newlines, which the match skips: int, ident, punctuation, comment, and any
# other character.  [^\W0-9] also admits numerals such as "²", "½", "Ⅷ" and
# "٣", and a "-" before no digit is "other": _Parser rejects both.
_TOKEN_CLASSES = r"-?[0-9]+|[^\W0-9]\w*|[{}(),:;/]|#[^\n]*|[^ \t\r\n]"
_TOKEN = re.compile(r"[ \t\r\n]*(" + _TOKEN_CLASSES + ")")

# First characters: of an int, of any token but an ident ("" is the end of
# input), and of a valid token, which is one of those or an ident starting
# with "_" or a letter (str.isalpha).
_INT_STARTS = frozenset("-0123456789")
_NOT_IDENT_STARTS = frozenset("{}(),:;/") | _INT_STARTS | {""}
_TOKEN_STARTS = _NOT_IDENT_STARTS | {"_"}

# An expression token, as the module docstring describes it.  The leading
# blanks come before the first non-blank as a class of their own, so a group
# that does not close tries each character once, with no backtracking between
# two repeats.
_EXPR = r"\{[ \t\r\n]*[^{}#:; \t\r\n][^{}#:;]*\}"

# A step token: one plain step, LABEL ":" ("Eq" | "Lt") expr expr "by" RULE
# REF* ";", each expr an expression token and only blanks between the parts.
# The groups are the label, the head, the two expressions, the rule and the
# references, blanks included.
_STEP = re.compile(r"([^\W0-9]\w*)[ \t\r\n]*:[ \t\r\n]*([Ee][Qq]|[Ll][Tt])[ \t\r\n]*(" + _EXPR
                   + r")[ \t\r\n]*(" + _EXPR + r")[ \t\r\n]*[Bb][Yy][ \t\r\n]+([^\W0-9]\w*)"
                   r"((?:[ \t\r\n]+[^\W0-9]\w*)*)[ \t\r\n]*;")

# The script lexer's token pattern: a step token, an expression token, or any
# token of _TOKEN, after a run of blanks.
_SCRIPT_TOKEN = re.compile(r"[ \t\r\n]*(" + _STEP.pattern + "|" + _EXPR + "|" + _TOKEN_CLASSES + ")")

_BLANKS = " \t\r\n"


def _lex(text: str, token: re.Pattern = _TOKEN) -> tuple[list, list[int]]:
    """The tokens of ``text``: their texts and start offsets, comments dropped,
    ending with the end of input, ``""``.  A step token is kept as a tuple of
    its parts, ``_STEP``'s groups in this match.  Any other token's kind
    follows from its first character: a punctuation mark is its own kind
    (``{`` followed by more text is an expression token; only
    ``_SCRIPT_TOKEN`` matches those and step tokens), ``-`` or a digit starts
    an int, anything else an ident.  Tokens are not validated here.  The
    match stops before the trailing blanks, so that no search starts in a
    run of blanks that no token follows."""
    texts: list = []
    starts: list[int] = []
    matches = token.finditer(text, 0, len(text.rstrip(_BLANKS)))
    while chunk := list(islice(matches, 1024)):  # bounded: no match object outlives its chunk
        if token is _SCRIPT_TOKEN:  # groups 2 to 7 are _STEP's, set for a step token only
            texts += [m[1] if m[2] is None else m.group(2, 3, 4, 5, 6, 7) for m in chunk]
        else:
            texts += map(re.Match.group, chunk, repeat(1))
        starts += map(re.Match.start, chunk, repeat(1))
    end = len(text)
    if "#" in text:  # every "#" starts a comment or is inside one
        if texts[-1][0] == "#" and text.find("\n", starts[-1]) < 0:
            end = starts[-1]  # end of input right after a comment sits at the "#"
        kept = [word[0] != "#" for word in texts]
        texts, starts = list(compress(texts, kept)), list(compress(starts, kept))
    texts.append("")
    starts.append(end)
    return texts, starts


class _TurnedDown(Exception):
    """An expression token the split reader does not read, or a step token
    citing ``cases``: the script goes to the reference parser."""


class _Parser:
    def __init__(self, text: str, token: re.Pattern = _TOKEN):
        self._text = text
        self._texts, self._starts = _lex(text, token)
        self._exprs: dict[str, MultisetExpr] = {}  # each expression token's text, read once
        self._terms: dict[str, Term] = {}  # each raw piece of those texts, read once
        self._lines: Optional[list[int]] = None  # each line's start offset, built for the first span
        self._pos = 0
        # Declared variable names; None accepts any name (a standalone expression).
        self._declared: Optional[set[str]] = None
        # Every label so far, and the labels in scope: one frame per open cases branch.
        self._labels: set[str] = set()
        self._scope: list[set[str]] = [set()]
        # Each distinct token text is checked once, a step token when it is
        # read; only a text with a bad token is scanned in order, for the first.
        bad = {word for word in set(self._texts) if word.__class__ is str
               and (word == "-" or not (word[:1].isalpha() or word[:1] in _TOKEN_STARTS))}
        if bad:
            at = min(map(self._texts.index, bad))
            word = self._texts[at]
            message = "malformed integer" if word == "-" else f"unexpected character {word[0]!r}"
            raise ParseError(self._span(at, 1), message)

    # -- token plumbing ----------------------------------------------------

    def _span(self, at: int, length: Optional[int] = None) -> SourceSpan:
        """The span of token ``at``, or of ``length`` characters from its start."""
        if self._lines is None:
            self._lines = [0, *(m.end() for m in re.finditer("\n", self._text))]
        offset = self._starts[at]
        line = bisect_right(self._lines, offset)
        return SourceSpan(line, offset - self._lines[line - 1] + 1, length or max(1, len(self._texts[at])))

    def _unexpected(self, *expected: str) -> ParseError:
        word = self._texts[self._pos]
        found = repr(word) if word else "end of input"
        return ParseError(self._span(self._pos), f"unexpected {found}", expected=expected)

    def _expect(self, punct: str) -> None:
        """Consume the next token, which must be the punctuation mark ``punct``."""
        if self._texts[self._pos] != punct:
            raise self._unexpected(punct)
        self._pos += 1

    def _ident(self, what: str) -> str:
        """Consume the next token, which must be an identifier (``what`` names
        it in errors); a step token, a tuple, is not one."""
        word = self._texts[self._pos]
        if word.__class__ is not str or word[:1] in _NOT_IDENT_STARTS:
            raise self._unexpected(what)
        self._pos += 1
        return word

    def _keyword(self, word: str) -> bool:
        """Consume the next token if it is the keyword ``word``."""
        text = self._texts[self._pos]
        if text.__class__ is str and text.lower() == word:
            self._pos += 1
            return True
        return False

    # -- names -------------------------------------------------------------

    # Each check below is made by both readings of a step: token by token,
    # and as one step token, whose parts all sit at token ``at``.

    def _name(self, what: str) -> str:
        word = self._ident(what)
        self._check_name(word, what, self._pos - 1)
        return word

    def _check_name(self, word: str, what: str, at: int) -> None:
        if word.lower() in _RESERVED or word == "R":
            raise ParseError(self._span(at), f"{word!r} is reserved and cannot name a {what}")

    def _check_depth(self, at: int) -> None:
        if len(self._scope) - 1 > MAX_CASES_DEPTH:
            raise ParseError(self._span(at), f"cases nested deeper than {MAX_CASES_DEPTH} levels")

    def _rule(self, name: str, at: int) -> Rule:
        rule = _RULES_BY_NAME.get(name.lower())
        if rule is None:
            raise ParseError(self._span(at), f"unknown rule {name!r}")
        return rule

    def _check_reference(self, ref: str, at: int) -> None:
        for frame in self._scope:
            if ref in frame:
                return
        raise ParseError(self._span(at), f"unknown reference {ref!r}")

    def _declare_label(self, label: str, at: int) -> None:
        if label in self._labels:
            raise ParseError(self._span(at), f"duplicate label {label!r}")
        self._labels.add(label)
        self._scope[-1].add(label)

    # -- expressions -------------------------------------------------------

    def parse_expr(self) -> MultisetExpr:
        word = self._texts[self._pos]
        if len(word) > 1 and word[0] == "{":  # an expression token
            self._pos += 1
            return self._read_expr(word)
        self._expect("{")
        terms: list[Term] = []
        if self._texts[self._pos] != "}":
            terms.append(self._parse_term())
            while self._texts[self._pos] == ",":
                self._pos += 1
                terms.append(self._parse_term())
        self._expect("}")
        return MultisetExpr(tuple(terms))

    def _read_expr(self, word: str) -> MultisetExpr:
        """The expression token ``word``, read by the split reader once per parse."""
        expr = self._exprs.get(word)
        if expr is None:
            kinds = _expr_terms(word, self._declared or (), self._terms)
            if kinds is None:
                raise _TurnedDown
            expr = self._exprs[word] = MultisetExpr._of(*kinds)
        return expr

    def _int(self) -> int:
        word = self._texts[self._pos]
        if word[:1] not in _INT_STARTS:
            raise self._unexpected("integer")
        self._pos += 1
        try:
            return int(word)
        except ValueError:  # longer than the interpreter's int conversion limit
            raise ParseError(self._span(self._pos - 1),
                             f"integer literal too long ({len(word.lstrip('-'))} digits)") from None

    def _parse_term(self) -> Term:
        at = self._pos
        word = self._ident("term")
        if word == "R":
            return _RIGHT
        if word.lower() == "ang":
            self._expect("(")
            x = self._int()
            self._expect("/")
            y = self._int()
            self._expect(")")
            try:
                angle = angle_from_slope_vector(x, y)
            except DegenerateAngle:
                # From "ang" through ")" when both are on one line, else "ang" alone.
                start, close = self._starts[at], self._starts[self._pos - 1]
                length = close + 1 - start if self._text.find("\n", start, close) < 0 else len(word)
                raise ParseError(self._span(at, length),
                                 "degenerate angle literal: the argument is not strictly between 0 and pi") from None
            return angle
        self._check_name(word, "variable", at)
        if self._declared is not None and word not in self._declared:
            raise ParseError(self._span(at), f"undeclared variable {word!r}")
        return word

    # -- judgments ---------------------------------------------------------

    def _parse_judgment(self) -> Judgment:
        word = self._texts[self._pos]
        form = _JUDGMENTS.get(word.lower()) if word.__class__ is str else None
        if form is None:
            raise self._unexpected("Eq", "Lt", "Split", "Congr", "False")
        self._pos += 1
        judgment, of_exprs, arity = form
        operand = self.parse_expr if of_exprs else self._parse_term
        return judgment(*[operand() for _ in range(arity)])

    # -- proofs ------------------------------------------------------------

    def parse_derivation(self) -> Derivation:
        if not self._keyword("vars"):
            raise ParseError(self._span(self._pos), "missing vars header", expected=("vars",))
        variables: list[str] = []
        self._declared = set()
        while self._texts[self._pos][:1] not in _NOT_IDENT_STARTS:
            name = self._name("variable")
            if name in self._declared:
                raise ParseError(self._span(self._pos - 1), f"variable {name!r} declared twice")
            self._declared.add(name)
            variables.append(name)
        self._expect(";")

        hypotheses: list[Hypothesis] = []
        while self._keyword("hyp"):
            label = self._name("hypothesis label")
            self._declare_label(label, self._pos - 1)
            self._expect(":")
            judgment = self._parse_judgment()
            self._expect(";")
            hypotheses.append(Hypothesis(label, judgment))

        steps: list[Step] = []
        while self._texts[self._pos]:
            steps.append(self._parse_step())

        return Derivation(tuple(variables), tuple(hypotheses), tuple(steps))

    def _parse_step(self) -> Step:
        at = self._pos
        word = self._texts[at]
        if word.__class__ is tuple:  # a step token
            return self._read_step(word, at)
        label = self._name("step label")
        self._check_depth(at)
        self._expect(":")
        judgment = self._parse_judgment()
        if not self._keyword("by"):
            raise self._unexpected("by")
        rule = self._rule(self._ident("rule name"), self._pos - 1)

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
                while self._texts[self._pos] != "}":
                    block.append(self._parse_step())
                self._scope.pop()
                self._expect("}")
                parsed.append(tuple(block))
            branches = tuple(parsed)
        else:
            while self._texts[self._pos][:1] not in _NOT_IDENT_STARTS:
                ref = self._ident("reference")
                self._check_reference(ref, self._pos - 1)
                premises.append(ref)

        self._expect(";")
        self._declare_label(label, at)
        return Step(label, judgment, rule, tuple(premises), case_pair=case_pair, branches=branches,
                    span=self._span(at))

    def _read_step(self, parts: tuple[str, ...], at: int) -> Step:
        """The step token of ``parts``, the groups of ``_STEP`` that the lexer
        kept, checked as the token path checks a step; one citing ``cases``,
        which a plain step cannot, is turned down."""
        label, head, lhs, rhs, rule_name, refs = parts
        if not (label[0].isalpha() or label[0] == "_"):  # "Ⅷ" or "²" is \w, and a bad token
            raise ParseError(self._span(at, 1), f"unexpected character {label[0]!r}")
        self._check_name(label, "step label", at)
        self._check_depth(at)
        rule = self._rule(rule_name, at)
        if rule._value_ == "cases":  # by name, as calculus.check_step dispatches
            raise _TurnedDown
        premises = tuple(refs.split())
        for ref in premises:
            self._check_reference(ref, at)
        judgment = _JUDGMENTS[head.lower()][0](self._read_expr(lhs), self._read_expr(rhs))
        self._declare_label(label, at)
        self._pos += 1
        return Step(label, judgment, rule, premises, span=self._span(at, len(label)))


# The one term of an expression text that is neither a name nor "R": an "ang"
# ( INT / INT ) literal, blanks allowed between its tokens as _TOKEN skips them.
_ANG = re.compile(r"[aA][nN][gG][ \t\r\n]*\([ \t\r\n]*(-?[0-9]+)[ \t\r\n]*/[ \t\r\n]*(-?[0-9]+)[ \t\r\n]*\)")


def _braced(text: str) -> Optional[list[str]]:
    """The raw pieces of the expression ``text``, split on "," between its
    braces, blanks around the braces dropped: none for a blank interior, and
    None when the text is not one brace group."""
    inner = text.strip(_BLANKS)
    if inner[:1] != "{" or inner[-1:] != "}":
        return None
    inner = inner[1:-1]
    return inner.split(",") if inner.strip(_BLANKS) else []


def _literal_pair(word: str) -> Optional[tuple[int, int]]:
    """The reduced pair ``(x, y)`` of the expression piece ``word``, its
    blanks stripped, when it is ``R`` or one ``ang`` literal whose integers
    the interpreter converts and whose angle is not degenerate; else None."""
    if word == "R":
        return _RIGHT.x, _RIGHT.y
    match = _ANG.fullmatch(word)
    if match is None:
        return None
    try:
        x, y = int(match[1]), int(match[2])
    except ValueError:  # longer than the interpreter's int conversion limit
        return None
    if y <= 0:  # a degenerate angle
        return None
    g = gcd(x, y)
    return x // g, y // g


def _expr_terms(text: str, declared: Collection[str],
                memo: Optional[dict[str, Term]] = None) -> Optional[tuple[list[str], list[AngleLit]]]:
    """The names and the angles of the expression ``text``, two lists each in
    the order written, read from the pieces :func:`_braced` splits it into;
    None when the token parser must read it.  Blanks around the braces and
    around each piece are dropped, and a blank interior is the empty
    expression.  Each raw piece is looked up in ``memo`` (one per parse)
    and, when new, must be a name in ``declared`` or a literal that
    :func:`_literal_pair` reads.  Any other piece (an empty one, a comment,
    another name, two terms) turns the text down, so that the token parser,
    which alone reports errors, reads it."""
    pieces = _braced(text)
    if pieces is None:
        return None
    names, angles = [], []
    if memo is None:
        memo = {}
    for piece in pieces:
        term = memo.get(piece)
        if term is None:
            word = piece.strip(_BLANKS)
            if word in declared:
                term = word
            else:
                pair = _literal_pair(word)
                if pair is None:
                    return None
                term = _RIGHT if word == "R" else _reduced(*pair)
            memo[piece] = term
        (names if term.__class__ is str else angles).append(term)
    return names, angles


def _literal_counts(text: str) -> Optional[dict[tuple[int, int], int]]:
    """The angles of the literal-only expression ``text``, counted by reduced
    pair ``(x, y)``; None when the token parser must read it.  The text is
    split into pieces by :func:`_braced`, as for :func:`_expr_terms`, and
    each distinct raw piece is read once, by :func:`_literal_pair`."""
    pieces = _braced(text)
    if pieces is None:
        return None
    counts: dict[tuple[int, int], int] = {}
    for piece, n in Counter(pieces).items():
        pair = _literal_pair(piece.strip(_BLANKS))
        if pair is None:
            return None
        counts[pair] = counts.get(pair, 0) + n
    return counts


def parse_expr(text: str) -> MultisetExpr:
    """Parse a standalone multiset expression such as ``{R, ang(3/4), a}``.

    Variables are accepted syntactically; callers that need a literal-only
    expression check for variables themselves.  A literal-only expression
    without comments is read by splitting on "," (:func:`_literal_counts`);
    any other text, and every text with an error, goes to the token parser,
    which alone reports errors.  Either way the result is the same.
    """
    counts = _literal_counts(text)
    if counts is not None:
        return MultisetExpr._of([], [angle for (x, y), n in counts.items() for angle in repeat(AngleLit(x, y), n)])
    return _parse_expr_tokens(text)


def _parse_expr_tokens(text: str) -> MultisetExpr:
    """:func:`parse_expr` by the token parser alone, for a text the split
    reader has already turned down."""
    parser = _Parser(text)
    expr = parser.parse_expr()
    word = parser._texts[parser._pos]
    if word:
        raise ParseError(parser._span(parser._pos), f"unexpected {word!r} after the expression",
                         expected=("end of input",))
    return expr


def parse_proof(text: str) -> Derivation:
    """Parse a full proof script; raises ParseError with a source span.

    The script is lexed with expression tokens first.  When an expression
    text is turned down or any parse error is raised, the single-token lexer
    and parser read the script again and give the result or the error.
    """
    try:
        return _Parser(text, _SCRIPT_TOKEN).parse_derivation()
    except (ParseError, _TurnedDown):
        return _Parser(text).parse_derivation()
