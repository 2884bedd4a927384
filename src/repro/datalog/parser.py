"""A small recursive-descent parser for Datalog programs and queries.

Grammar (``%`` starts a line comment)::

    program   := clause*
    clause    := ["@" NAME] atom [":-" literals] "."
    literals  := literal ("," literal)*
    literal   := ["not" | "\\+"] atom
    atom      := NAME ["(" term ("," term)* ")"]
    term      := NAME | VARIABLE | NUMBER | STRING

Identifiers beginning with a lowercase letter are predicate/constant
symbols; identifiers beginning with an uppercase letter or underscore
are variables.  The optional ``@name`` annotation labels a rule, which
is how the worked examples name the paper's rules
(``@Rp instructor(X) :- prof(X).``).

Entry points: :func:`parse_program`, :func:`parse_rule`,
:func:`parse_atom`, :func:`parse_query`, and :func:`strip_comment` for
the one-query-per-line stream format.

Fact text has a second reader.  :meth:`FactStore.from_program
<repro.storage.interface.FactStore.from_program>` takes its facts from
:func:`_read_facts`, which first tries :func:`_scan_facts`: that cuts
the text's comments, matches one whole ground-fact clause per regex
match, converts each distinct constant text once, and returns the
rows grouped by relation, with no tokens, :class:`Rule` objects,
:class:`RuleBase` or :class:`Atom` — a store keeps a fact as its
argument tuple, so none is needed.  The scan is built from the same
NAME, NUMBER, STRING and COMMENT patterns as the tokenizer and accepts
only text that is certainly ground facts; anything else goes to
:func:`parse_program` and the ``is_fact`` check, which stay the
reference reading and the only error reporter.
"""

from __future__ import annotations

import re
from typing import Dict, Iterator, List, NamedTuple, Optional, Tuple

from ..errors import DatalogError, ParseError
from ..storage.interface import _FactRows
from .rules import Literal, Rule, RuleBase
from .terms import Atom, Constant, Term, Variable

__all__ = [
    "parse_program", "parse_rule", "parse_atom", "parse_query", "strip_comment",
    "tokenize",
]


class Token(NamedTuple):
    kind: str
    text: str
    line: int
    column: int


# The lexical grammar, shared by the tokenizer, the fact scan and
# strip_comment.  No pattern holds whitespace or '#', so each reads the
# same inside a re.VERBOSE pattern.
_COMMENT = r"%[^\n]*"
_DOT = r"\.(?!\d)"
_NUMBER = r"-?\d+(?:\.\d+)?"
_STRING = r'"(?:[^"\\]|\\.)*"'
_NAME = r"[A-Za-z_][A-Za-z0-9_]*"

_TOKEN_RE = re.compile(
    rf"""
    (?P<COMMENT>{_COMMENT})
  | (?P<WS>\s+)
  | (?P<IMPLIES>:-)
  | (?P<NAF>\\\+)
  | (?P<AT>@)
  | (?P<LPAREN>\()
  | (?P<RPAREN>\))
  | (?P<COMMA>,)
  | (?P<DOT>{_DOT})
  | (?P<NUMBER>{_NUMBER})
  | (?P<STRING>{_STRING})
  | (?P<NAME>{_NAME})
    """,
    re.VERBOSE,
)

#: What cutting comments keeps: a string, or a quote that opens none
#: together with the rest of the text.  The tokenizer stops at such a
#: quote, so a reader of the cut text fails there as on the uncut one,
#: and a comment cut after it cannot close the string.
_UNCOMMENT_RE = re.compile(rf'({_STRING}|"[\s\S]*)|{_COMMENT}')


def strip_comment(line: str) -> str:
    """``line`` without its ``%`` comment.  A ``%`` inside a string
    literal, as in ``q("50%")``, is part of the string and stays."""
    return _UNCOMMENT_RE.sub(lambda found: found.group(1) or "", line)


def tokenize(text: str) -> Iterator[Token]:
    """Yield tokens; raises :class:`ParseError` on unknown characters."""
    line = 1
    line_start = 0
    position = 0
    while position < len(text):
        matched = _TOKEN_RE.match(text, position)
        if matched is None:
            raise ParseError(
                f"unexpected character {text[position]!r}",
                line=line,
                column=position - line_start + 1,
            )
        kind = matched.lastgroup
        token_text = matched.group()
        if kind not in ("WS", "COMMENT"):
            yield Token(kind, token_text, line, matched.start() - line_start + 1)
        newlines = token_text.count("\n")
        if newlines:
            line += newlines
            line_start = matched.start() + token_text.rfind("\n") + 1
        position = matched.end()
    yield Token("EOF", "", line, position - line_start + 1)


class _Parser:
    """Recursive-descent parser over the token stream."""

    def __init__(self, text: str):
        self._tokens: List[Token] = list(tokenize(text))
        self._index = 0

    @property
    def _current(self) -> Token:
        return self._tokens[self._index]

    def _advance(self) -> Token:
        token = self._current
        if token.kind != "EOF":
            self._index += 1
        return token

    def _expect(self, kind: str) -> Token:
        token = self._current
        if token.kind != kind:
            raise ParseError(
                f"expected {kind}, found {token.kind} ({token.text!r})",
                line=token.line,
                column=token.column,
            )
        return self._advance()

    def _at(self, kind: str) -> bool:
        return self._current.kind == kind

    # -- grammar productions -----------------------------------------

    def program(self) -> List[Rule]:
        clauses: List[Rule] = []
        while not self._at("EOF"):
            clauses.append(self.clause())
        return clauses

    def clause(self) -> Rule:
        name: Optional[str] = None
        if self._at("AT"):
            self._advance()
            name = self._expect("NAME").text
        head = self.atom()
        body: List[Literal] = []
        if self._at("IMPLIES"):
            self._advance()
            body.append(self.literal())
            while self._at("COMMA"):
                self._advance()
                body.append(self.literal())
        self._expect("DOT")
        return Rule(head, body, name=name)

    def literal(self) -> Literal:
        positive = True
        if self._at("NAF"):
            self._advance()
            positive = False
        elif self._at("NAME") and self._current.text == "not":
            # 'not' is a keyword only in literal position followed by an atom.
            lookahead = self._tokens[self._index + 1]
            if lookahead.kind == "NAME":
                self._advance()
                positive = False
        return Literal(self.atom(), positive=positive)

    def atom(self) -> Atom:
        name_token = self._expect("NAME")
        if name_token.text[0].isupper() or name_token.text[0] == "_":
            raise ParseError(
                f"predicate names must start lowercase, got {name_token.text!r}",
                line=name_token.line,
                column=name_token.column,
            )
        args: List[Term] = []
        if self._at("LPAREN"):
            self._advance()
            args.append(self.term())
            while self._at("COMMA"):
                self._advance()
                args.append(self.term())
            self._expect("RPAREN")
        return Atom(name_token.text, args)

    def term(self) -> Term:
        token = self._current
        if token.kind not in ("NAME", "NUMBER", "STRING"):
            raise ParseError(
                f"expected a term, found {token.kind} ({token.text!r})",
                line=token.line,
                column=token.column,
            )
        self._advance()
        text = token.text
        if token.kind == "NAME" and (text[0].isupper() or text[0] == "_"):
            return Variable(text)
        try:
            return _constant(text)
        except ValueError as error:  # an integer past int's digit limit
            raise ParseError(
                f"integer literal too long: {error}",
                line=token.line,
                column=token.column,
            ) from None


def _constant(text: str) -> Constant:
    """The constant that one lowercase NAME, NUMBER or STRING token
    spells; the token's first character tells which."""
    first = text[0]
    if first == '"':
        return Constant(text[1:-1].replace('\\"', '"').replace("\\\\", "\\"))
    if first == "-" or first.isdigit():
        return Constant(float(text) if "." in text else int(text))
    return Constant(text)


# -- the fact scan ---------------------------------------------------
#
# The scan cuts comments first, with strip_comment, so between two
# tokens it sees only whitespace.  Every pattern below then matches a
# text in exactly one way, and a failed match backtracks in linear time
# with no atomic groups (Python 3.9 has none).
_LOWER_NAME = rf"(?=[a-z]){_NAME}"
_CONSTANT = rf"(?:{_LOWER_NAME}|{_NUMBER}|{_STRING})"

#: One ground-fact clause and the whitespace before it: an optional
#: ``@label``, the predicate, the argument text between parentheses
#: (strings kept whole) and the dot.  The ``\b`` keeps a label whole:
#: without it ``@ab.`` would read as label ``a``, fact ``b``.
_CLAUSE_RE = re.compile(
    rf"""
    \s*(?:@\s*{_NAME}\b\s*)?
    ({_LOWER_NAME})\s*
    (?:\(([^()"]*(?:{_STRING}[^()"]*)*)\)\s*)?
    {_DOT}
    """,
    re.VERBOSE,
)
#: An argument text the scan takes: constants separated by commas.
_ARGS_RE = re.compile(rf"\s*{_CONSTANT}\s*(?:,\s*{_CONSTANT}\s*)*")
#: The constants of an argument text that :data:`_ARGS_RE` took.
_TERMS_RE = re.compile(rf"{_STRING}|{_NUMBER}|{_NAME}")
_SPACE_RE = re.compile(r"\s*")


def _scan_facts(text: str) -> Optional[_FactRows]:
    """The facts of ``text`` as rows grouped by relation, when it is
    certainly ground facts only; ``None`` sends :func:`_read_facts` to
    :func:`parse_program`.

    A fact has a lowercase predicate and lowercase-name, number or
    string arguments; its optional ``@label`` is dropped, as the
    general path drops it.  Every other clause (a variable, a body, an
    uppercase predicate, a stray character) returns ``None``, and so
    does an integer past ``int``'s digit limit: the general parser
    reads the whole text first and reports its error.

    Relations come in first-fact order and each one's rows in text
    order.  The constant table maps each constant text to its
    one-element row: the uses of one constant text share one
    :class:`Constant`, every one-argument fact over it, in any
    relation and whatever its layout, shares that row, and a fact
    whose whole argument text is a constant already read skips the
    argument check.  A wider row is built per fact, since a table of
    those would grow with the text.
    """
    if "%" in text:
        text = strip_comment(text)
    match = _CLAUSE_RE.match
    groups = _FactRows()
    singles: Dict[str, Tuple[Constant]] = {}
    predicate = arity = relation = None  # where the last fact went
    position = 0
    try:
        while True:
            found = match(text, position)
            if found is None:
                break
            name, args = found.groups()
            row = () if args is None else singles.get(args)
            if row is None:
                row = _row(args, singles)
                if row is None:
                    return None
            if name != predicate or len(row) != arity:
                predicate, arity = name, len(row)
                relation = groups.get((predicate, arity))
                if relation is None:
                    relation = groups[predicate, arity] = []
            relation.append(row)
            position = found.end()
    except ValueError:
        return None
    if _SPACE_RE.fullmatch(text, position) is None:
        return None
    return groups


def _row(args: str, singles: Dict[str, Tuple[Constant]]) -> Optional[tuple]:
    """The row that the argument text ``args`` spells, or ``None`` when
    it is not a list of constants: a new tuple when it holds several,
    the shared one-element row of ``singles`` when it holds one."""
    if _ARGS_RE.fullmatch(args) is None:
        return None
    texts = _TERMS_RE.findall(args)
    terms = []
    for arg in texts:
        single = singles.get(arg)
        if single is None:
            single = singles[arg] = (_constant(arg),)
        terms.append(single[0])
    if len(texts) == 1:
        return singles[texts[0]]
    return tuple(terms)


def parse_program(text: str) -> RuleBase:
    """Parse a full Datalog program into a :class:`RuleBase`.

    Ground facts written in the program become body-less rules; fact
    text that is bound for a store is read by
    :meth:`FactStore.from_program
    <repro.storage.interface.FactStore.from_program>` instead, which
    scans it straight to rows and calls this only for text the scan
    does not accept.
    """
    return RuleBase(_Parser(text).program())


def _read_facts(text: str) -> List:
    """The facts of ``text``, in order, all read before any is stored.

    The scan's rows when it accepts ``text``; otherwise the heads of
    :func:`parse_program`'s rules, which raises on malformed text, with
    :class:`DatalogError` for the first clause that is not a fact.
    ``parse_program`` is looked up when called, so a wrapper installed
    on this module sees the fallback.
    """
    rows = _scan_facts(text)
    if rows is not None:
        return rows
    heads = []
    for rule in parse_program(text):
        if not rule.is_fact:
            raise DatalogError(f"not a fact: {rule}")
        heads.append(rule.head)
    return heads


def parse_rule(text: str) -> Rule:
    """Parse exactly one clause (rule or fact)."""
    parser = _Parser(text)
    rule = parser.clause()
    parser._expect("EOF")
    return rule


def parse_atom(text: str) -> Atom:
    """Parse a single atom, without a trailing dot."""
    parser = _Parser(text)
    atom = parser.atom()
    parser._expect("EOF")
    return atom


def parse_query(text: str) -> Atom:
    """Parse a query: an atom with an optional trailing ``.`` or ``?``."""
    stripped = text.strip()
    if stripped.endswith("?") or stripped.endswith("."):
        stripped = stripped[:-1]
    return parse_atom(stripped)
