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

Rules and queries are parsed from tokens taken as plain strings from
one ``findall`` of the token grammar (:data:`_LEX_RE`), with no
:class:`Token`, line or column; the parser only declines what it does
not accept.  Text it declines is read again by the positional
:func:`tokenize`, which stays the only error reporter: every
:class:`ParseError` carries the message, line and column it always had.

Fact text has a second reader.  :meth:`FactStore.from_program
<repro.storage.interface.FactStore.from_program>` takes its facts from
:func:`_read_facts`, which first tries :func:`_scan_facts`: that cuts
the text's comments, matches ground-fact clauses with a regex, one
clause per match until two facts in a row go to one relation and then
a run of that predicate's clauses per match, converts each distinct
constant text once, and returns the rows grouped by relation, with no
tokens, :class:`Rule` objects, :class:`RuleBase` or :class:`Atom` — a
store keeps a fact as its argument tuple, so none is needed.  The scan
is built from the same NAME, NUMBER, STRING and COMMENT patterns as
the tokenizer and accepts only text that is certainly ground facts;
anything else goes to :func:`parse_program` and the ``is_fact`` check,
which stay the reference reading and the only error reporter.
"""

from __future__ import annotations

import itertools
import re
from typing import (
    Callable, Dict, Iterator, List, NamedTuple, NoReturn, Optional, Tuple, TypeVar,
)

from ..errors import DatalogError, ParseError
from ..storage.interface import _FactRows, _fact_rows
from .rules import Literal, Rule, RuleBase
from .terms import Atom, Constant, Term, Variable

__all__ = [
    "parse_program", "parse_rule", "parse_atom", "parse_query", "strip_comment",
    "tokenize",
]

_T = TypeVar("_T")


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
  | (?P<BAD>.)
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
    return _tokens(text, 0, 1, 0)


def _tokens(text: str, position: int, line: int, line_start: int) -> Iterator[Token]:
    """:func:`tokenize` from ``position``, which is on ``line``, a line
    that starts at ``line_start``."""
    for matched in _TOKEN_RE.finditer(text, position):
        kind = matched.lastgroup
        if kind == "COMMENT":
            continue
        start = matched.start()
        if kind == "BAD":
            raise ParseError(
                f"unexpected character {text[start]!r}",
                line=line,
                column=start - line_start + 1,
            )
        token_text = matched.group()
        if kind != "WS":
            yield Token(kind, token_text, line, start - line_start + 1)
        if kind == "WS" or kind == "STRING":
            newline = token_text.rfind("\n")
            if newline >= 0:
                line += token_text.count("\n")
                line_start = start + newline + 1
    yield Token("EOF", "", line, len(text) - line_start + 1)


#: Whitespace and comments after a token.
_LAYOUT = rf"\s*(?:{_COMMENT}\s*)*"
#: The lexical grammar again, as one pattern for ``findall``: one
#: match per token, its text and the layout after it, and one for the
#: layout that starts the text, whose text is empty.  The token
#: patterns start with disjoint characters, so this splits a text
#: exactly as :func:`tokenize` does.  Where no token starts, the
#: catch-all takes the rest of the text as one last token, which no
#: production accepts: it is never a lowercase name, ``)`` or ``.``,
#: the only tokens that end a clause or an atom.
_LEX_RE = re.compile(
    rf"""
    \A(?=[\s%]){_LAYOUT}
  | ( {_NAME} | [(),] | :- | {_DOT} | {_NUMBER} | {_STRING} | \\\+ | @
    | [\s\S]+ ) {_LAYOUT}
    """,
    re.VERBOSE,
)

#: The first characters of a NAME token.
_NAME_START = frozenset("abcdefghijklmnopqrstuvwxyzABCDEFGHIJKLMNOPQRSTUVWXYZ_")
#: The tokens that are not terms; ``""`` is the end of the text.
_NOT_A_TERM = frozenset(["(", ")", ",", ".", ":-", "\\+", "@", ""])
#: The kind :func:`tokenize` gives the tokens :meth:`_Parser._expect` takes.
_KIND = {".": "DOT", ")": "RPAREN", "": "EOF"}


class _Declined(Exception):
    """Where the findall reading stopped: the index of the token it does
    not accept, and what it expected there or why its text converts to
    no constant."""

    def __init__(self, index: int, expected: str, error: Optional[ValueError]):
        super().__init__(index, expected, error)
        self.index, self.expected, self.error = index, expected, error

    def at(self, token: Token) -> ParseError:
        """The error at ``token``, the same token as :func:`tokenize`
        reads it, with its line and column."""
        if self.error is not None:
            message = f"integer literal too long: {self.error}"
        elif self.expected == "NAME" and token.kind == "NAME":
            message = f"predicate names must start lowercase, got {token.text!r}"
        else:
            message = f"expected {self.expected}, found {token.kind} ({token.text!r})"
        return ParseError(message, line=token.line, column=token.column)


class _Parser:
    """Recursive descent over a list of token texts that ends with
    ``""``, the end of the text.

    The tokens come from one :data:`_LEX_RE` ``findall`` and carry no
    line or column, so the parser only declines what it does not
    accept; :func:`_parse` then reads the text again with
    :func:`tokenize` for the error.  A token's kind is told from its
    text: an exact match for the punctuation, else its first character.
    """

    __slots__ = ("_tokens", "_index")

    def __init__(self, tokens: List[str]):
        self._tokens = tokens
        self._index = 0

    def _fail(self, expected: str, error: Optional[ValueError] = None) -> NoReturn:
        """Stop at the current token: it is not ``expected``, or its
        integer is past ``int``'s digit limit (``error``)."""
        raise _Declined(self._index, expected, error)

    def _expect(self, token: str) -> None:
        if self._tokens[self._index] != token:
            self._fail(_KIND[token])
        self._index += 1

    # -- grammar productions -----------------------------------------

    def program(self) -> List[Rule]:
        tokens = self._tokens
        clauses: List[Rule] = []
        while tokens[self._index]:
            clauses.append(self.clause())
        return clauses

    def rule(self) -> Rule:
        """One clause and the end of the text."""
        rule = self.clause()
        self._expect("")
        return rule

    def lone_atom(self) -> Atom:
        """One atom and the end of the text."""
        atom = self.atom()
        self._expect("")
        return atom

    def clause(self) -> Rule:
        tokens = self._tokens
        name: Optional[str] = None
        if tokens[self._index] == "@":
            self._index += 1
            name = tokens[self._index]
            if name[:1] not in _NAME_START:
                self._fail("NAME")
            self._index += 1
        head = self.atom()
        body: List[Literal] = []
        if tokens[self._index] == ":-":
            self._index += 1
            body.append(self.literal())
            while tokens[self._index] == ",":
                self._index += 1
                body.append(self.literal())
        self._expect(".")
        return Rule(head, body, name=name)

    def literal(self) -> Literal:
        tokens = self._tokens
        token = tokens[self._index]
        # 'not' is a keyword only in literal position followed by an atom.
        if token == "\\+" or (
            token == "not" and tokens[self._index + 1][:1] in _NAME_START
        ):
            self._index += 1
            return Literal(self.atom(), positive=False)
        return Literal(self.atom())

    def atom(self) -> Atom:
        tokens = self._tokens
        index = self._index
        predicate = tokens[index]
        if not "a" <= predicate[:1] <= "z":
            self._fail("NAME")
        index += 1
        if tokens[index] != "(":
            self._index = index
            return Atom._ground((predicate, 0), ())
        args: List[Term] = []
        ground = True
        while True:
            index += 1
            text = tokens[index]
            if text in _NOT_A_TERM:
                self._index = index
                self._fail("a term")
            first = text[0]
            if first.isupper() or first == "_":
                args.append(Variable(text))
                ground = False
            else:
                try:
                    args.append(_constant(text))
                except ValueError as error:
                    self._index = index
                    self._fail("a term", error)
            index += 1
            if tokens[index] != ",":
                break
        self._index = index
        self._expect(")")
        if ground:
            return Atom._ground((predicate, len(args)), tuple(args))
        return Atom._make(predicate, tuple(args))


def _parse(text: str, production: Callable[[_Parser], _T]) -> _T:
    """``production`` over the tokens of one ``findall``.

    Text it declines is read again by :func:`tokenize`, from the
    declined token on, which the same lexer finds with no Python step
    per token.  Both lexers split the text alike up to the first unknown
    character, which ends the findall tokens as the catch-all, and
    :func:`tokenize` raises at it before any grammar error: so the
    reading starts at the catch-all when that comes first, and the
    error has the same message, line and column as a reading from the
    start would give."""
    tokens = list(filter(None, _LEX_RE.findall(text)))
    tokens.append("")
    try:
        return production(_Parser(tokens))
    except _Declined as declined:
        first = max(0, min(declined.index, len(tokens) - 2))
        position = _token_start(text, first)
        line = text.count("\n", 0, position) + 1
        line_start = text.rfind("\n", 0, position) + 1
        positions = list(_tokens(text, position, line, line_start))
        raise declined.at(positions[declined.index - first]) from None


def _token_start(text: str, index: int) -> int:
    """Where the findall token ``index`` starts in ``text``, or its end
    for the end token."""
    matches = _LEX_RE.finditer(text)
    if text[:1].isspace() or text[:1] == "%":
        index += 1  # the match of the layout that starts the text
    found = next(itertools.islice(matches, index, None), None)
    return len(text) if found is None else found.start(1)


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

#: An argument text: anything but parentheses and quotes, with strings
#: kept whole.
_ARGS_TEXT = rf'[^()"]*(?:{_STRING}[^()"]*)*'
#: One ground-fact clause and the whitespace before it: an optional
#: ``@label``, the predicate, the argument text between parentheses
#: and the dot.  The ``\b`` keeps a label whole: without it ``@ab.``
#: would read as label ``a``, fact ``b``.
_CLAUSE = rf"""
    \s*(?:@\s*{_NAME}\b\s*)?
    ({_LOWER_NAME})\s*
    (?:\(({_ARGS_TEXT})\)\s*)?
    {_DOT}
"""
_CLAUSE_RE = re.compile(_CLAUSE, re.VERBOSE)
#: The most clauses one run match takes after its first.
_RUN_LIMIT = 256
#: A run: one clause, then (group 3) up to :data:`_RUN_LIMIT` clauses
#: of its predicate (``\1``) with no label and no string.  A
#: parenthesis must follow ``\1``, so the name cannot go on past it.
_RUN_RE = re.compile(
    rf"""{_CLAUSE}
    ((?:\s*\1\s*\([^()"]*\)\s*{_DOT}){{0,{_RUN_LIMIT}}})
    """,
    re.VERBOSE,
)
#: The argument texts of a run's group 3, one per clause.
_RUN_ARGS_RE = re.compile(r"\(([^)]*)\)")
#: An argument text the scan takes: constants separated by commas.
_ARGS_RE = re.compile(rf"\s*{_CONSTANT}\s*(?:,\s*{_CONSTANT}\s*)*")
#: An argument text that is one constant, with no space around it.
_BARE_RE = re.compile(_CONSTANT)
#: The constants of an argument text that :data:`_ARGS_RE` took.
_TERMS_RE = re.compile(rf"{_STRING}|{_NUMBER}|{_NAME}")
_SPACE_RE = re.compile(r"\s*")


def _scan_facts(text: str) -> Optional[_FactRows]:
    """The facts of ``text`` as rows grouped by relation, when it is
    certainly ground facts only (:func:`_scan` reads all of it), else
    ``None``."""
    rows, stop = _scan(text)
    return rows if stop == len(text) else None


def _scan(text: str) -> Tuple[_FactRows, int]:
    """The ground facts that start ``text``, as rows grouped by
    relation, and where in ``text`` the reading stopped: ``len(text)``
    when it read all of it, else the end of the last clause it took,
    where :func:`_read_facts` hands the rest to :func:`parse_program`.

    A fact has a lowercase predicate and lowercase-name, number or
    string arguments; its optional ``@label`` is dropped, as the
    general path drops it.  Every other clause (a variable, a body, an
    uppercase predicate, a stray character) stops the reading, and so
    does an integer past ``int``'s digit limit: the general parser
    reads the rest of the text first and reports its error.

    Relations come in first-fact order and each one's rows in text
    order.  The constant table maps each constant text to its
    one-element row: the uses of one constant text share one
    :class:`Constant`, every one-argument fact over it, in any
    relation and whatever its layout, shares that row, and a fact
    whose whole argument text is a constant already read skips the
    argument check.  A wider row is built per fact, since a table of
    those would grow with the text.

    The scan reads one clause per match until two facts in a row go to
    one relation.  Then each match is a run (:data:`_RUN_RE`): the next
    clause and up to :data:`_RUN_LIMIT` clauses of its predicate after
    it, whose argument texts one ``findall`` lists and one ``map`` over
    the constant table turns into rows when each is a constant already
    read.  A run that takes no clause after its first goes back to one
    clause per match: text without runs pays one run match per two
    facts in a row of one relation, and the bound keeps the list each
    match makes short.  The scan reads ``text`` with its comments cut,
    and maps where it stopped back to ``text``.
    """
    cut = strip_comment(text) if "%" in text else text
    rows, stop = _scan_cut(cut)
    if stop == len(cut):
        return rows, len(text)
    return rows, stop if cut is text else _uncut(text, stop)


def _scan_cut(text: str) -> Tuple[_FactRows, int]:
    """:func:`_scan` over a text with no comments."""
    match, match_run = _CLAUSE_RE.match, _RUN_RE.match
    run_args = _RUN_ARGS_RE.findall
    groups = _FactRows()
    singles: Dict[str, Tuple[Constant]] = {}
    single = singles.__getitem__
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
                    return groups, position
            position = found.end()
            if name != predicate or len(row) != arity:
                predicate, arity = name, len(row)
                relation = groups.get((predicate, arity))
                if relation is None:
                    relation = groups[predicate, arity] = []
                relation.append(row)
                continue
            relation.append(row)
            while True:
                found = match_run(text, position)
                if found is None:
                    break
                name, args = found.group(1, 2)
                row = _row(args, singles)
                if row is None:
                    return groups, position
                if name != predicate or len(row) != arity:
                    predicate, arity = name, len(row)
                    relation = groups.setdefault((predicate, arity), [])
                relation.append(row)
                position, end = found.span(3)
                if position == end:
                    break
                texts = run_args(text, position, end)
                if arity == 1:
                    try:
                        relation.extend(list(map(single, texts)))
                        position = end
                        continue
                    except KeyError:  # a constant read first in this run
                        pass
                for args in texts:
                    try:
                        row = _row(args, singles)
                    except ValueError:
                        row = None
                    if row is None:
                        return groups, _run_clause_end(
                            text, position, texts.index(args))
                    if len(row) != arity:
                        arity = len(row)
                        relation = groups.setdefault((predicate, arity), [])
                    relation.append(row)
                position = end
    except ValueError:
        return groups, position
    if _SPACE_RE.fullmatch(text, position) is None:
        return groups, position
    return groups, len(text)


def _run_clause_end(text: str, start: int, index: int) -> int:
    """Where the clause before argument text ``index`` of the run from
    ``start`` ends: after its dot, or at ``start`` for the first text.
    The same text always gives the same row, so the first clause that
    gives none is at its text's first index."""
    if index == 0:
        return start
    previous = next(itertools.islice(
        _RUN_ARGS_RE.finditer(text, start), index - 1, None))
    return text.index(".", previous.end()) + 1


def _uncut(text: str, position: int) -> int:
    """Where ``position`` of ``strip_comment(text)`` lies in ``text``:
    past every comment cut before it."""
    for found in _UNCOMMENT_RE.finditer(text):
        if found.start() >= position:
            break
        if found.group(1) is None:
            position += found.end() - found.start()
    return position


def _row(args: Optional[str], singles: Dict[str, Tuple[Constant]]) -> Optional[tuple]:
    """The row that the argument text ``args`` spells, or ``None`` when
    it is not a list of constants: ``()`` for no argument text, a new
    tuple when it holds several constants, the shared one-element row
    of ``singles`` when it holds one."""
    if args is None:
        return ()
    row = singles.get(args)
    if row is not None:
        return row
    if "," not in args and _BARE_RE.fullmatch(args) is not None:
        row = singles[args] = (_constant(args),)
        return row
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
    return RuleBase(_parse(text, _Parser.program))


def _read_facts(text: str) -> _FactRows:
    """The facts of ``text`` as rows grouped by relation, all read
    before any is stored.

    The scan's rows, and where it stops, the heads of
    :func:`parse_program`'s rules for the rest of the text: that raises
    on malformed text, then :class:`DatalogError` for the first clause
    that is not a fact and for the first fact that is not ground.  The
    rest is read after layout that puts each of its tokens on its own
    line and column, so every error points where it would in ``text``.
    ``parse_program`` is looked up when called, so a wrapper installed
    on this module sees the fallback.
    """
    rows, stop = _scan(text)
    if stop == len(text):
        return rows
    line_start = text.rfind("\n", 0, stop) + 1
    layout = "\n" * text.count("\n", 0, stop) + " " * (stop - line_start)
    heads = []
    for rule in parse_program(layout + text[stop:]):
        if not rule.is_fact:
            raise DatalogError(f"not a fact: {rule}")
        heads.append(rule.head)
    for signature, tail in _fact_rows(heads).items():
        rows.setdefault(signature, []).extend(tail)
    return rows


def parse_rule(text: str) -> Rule:
    """Parse exactly one clause (rule or fact)."""
    return _parse(text, _Parser.rule)


def parse_atom(text: str) -> Atom:
    """Parse a single atom, without a trailing dot."""
    return _parse(text, _Parser.lone_atom)


def parse_query(text: str) -> Atom:
    """Parse a query: an atom with an optional trailing ``.`` or ``?``."""
    stripped = text.strip()
    if stripped.endswith("?") or stripped.endswith("."):
        stripped = stripped[:-1]
    return parse_atom(stripped)
