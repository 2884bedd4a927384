"""Unit tests for the Datalog parser and tokenizer."""

import time
from unittest import mock

import hypothesis.strategies as st
import pytest
from hypothesis import example, given

import repro.datalog.parser
from repro.bench.experiments import _serving_workload
from repro.datalog.database import Database
from repro.datalog.parser import (
    parse_atom,
    parse_program,
    parse_query,
    parse_rule,
    strip_comment,
    tokenize,
)
from repro.datalog.rules import Rule
from repro.datalog.terms import Atom, Constant, Variable
from repro.errors import DatalogError, ParseError
from repro.verify.worldgen import WorldSpec, build_kb_world
from repro.workloads import db1
from repro.workloads.hostile import KB_SHAPES


class TestTokenizer:
    def test_basic_tokens(self):
        kinds = [token.kind for token in tokenize("p(X) :- q(X).")]
        assert kinds == [
            "NAME", "LPAREN", "NAME", "RPAREN", "IMPLIES",
            "NAME", "LPAREN", "NAME", "RPAREN", "DOT", "EOF",
        ]

    def test_comments_skipped(self):
        kinds = [t.kind for t in tokenize("% a comment\np(a).")]
        assert kinds == ["NAME", "LPAREN", "NAME", "RPAREN", "DOT", "EOF"]

    def test_line_tracking(self):
        tokens = list(tokenize("a.\nb."))
        assert tokens[0].line == 1
        assert tokens[2].line == 2

    def test_unknown_character(self):
        with pytest.raises(ParseError):
            list(tokenize("p(a) & q(a)."))

    def test_numbers(self):
        tokens = [t for t in tokenize("p(3, -2, 4.5).") if t.kind == "NUMBER"]
        assert [t.text for t in tokens] == ["3", "-2", "4.5"]


class TestParseAtom:
    def test_constants_and_variables(self):
        atom = parse_atom("p(a, X, _y)")
        assert atom.args == (Constant("a"), Variable("X"), Variable("_y"))

    def test_nullary(self):
        assert parse_atom("halt") == Atom("halt")

    def test_numbers_and_strings(self):
        atom = parse_atom('p(3, 4.5, "hi there")')
        assert atom.args == (Constant(3), Constant(4.5), Constant("hi there"))

    def test_uppercase_predicate_rejected(self):
        with pytest.raises(ParseError):
            parse_atom("Pred(a)")

    def test_trailing_garbage_rejected(self):
        with pytest.raises(ParseError):
            parse_atom("p(a) q")


class TestParseRule:
    def test_fact(self):
        rule = parse_rule("prof(russ).")
        assert rule.is_fact and rule.head == Atom("prof", ["russ"])

    def test_rule_with_body(self):
        rule = parse_rule("instructor(X) :- prof(X).")
        assert rule.head == Atom("instructor", ["X"])
        assert rule.body[0].atom == Atom("prof", ["X"])

    def test_conjunction(self):
        rule = parse_rule("a(X) :- b(X), c(X), d(X).")
        assert len(rule.body) == 3

    def test_negation_keyword(self):
        rule = parse_rule("pauper(X) :- person(X), not owns(X, Y).")
        assert not rule.body[1].positive

    def test_negation_prolog_style(self):
        rule = parse_rule(r"pauper(X) :- person(X), \+ owns(X, Y).")
        assert not rule.body[1].positive

    def test_not_as_predicate_name(self):
        # 'not' followed by a paren is an atom named 'not'? No: our
        # grammar treats 'not <atom>' as negation only when followed by
        # a NAME; 'not(X)' parses as atom not(X).
        rule = parse_rule("p(X) :- not(X).")
        assert rule.body[0].positive
        assert rule.body[0].atom.predicate == "not"

    def test_label_annotation(self):
        rule = parse_rule("@Rp instructor(X) :- prof(X).")
        assert rule.name == "Rp"

    def test_missing_dot(self):
        with pytest.raises(ParseError):
            parse_rule("p(a)")


class TestParseProgram:
    def test_multiple_clauses(self):
        base = parse_program("""
            % the university rule base
            @Rp instructor(X) :- prof(X).
            @Rg instructor(X) :- grad(X).
        """)
        assert len(base) == 2
        assert {rule.name for rule in base} == {"Rp", "Rg"}

    def test_empty_program(self):
        assert len(parse_program("")) == 0

    def test_unsafe_rule_rejected_at_load(self):
        with pytest.raises(Exception):
            parse_program("p(X, Y) :- q(X).")


class TestParseQuery:
    def test_strips_question_mark(self):
        assert parse_query("instructor(manolis)?") == Atom(
            "instructor", ["manolis"]
        )

    def test_strips_dot(self):
        assert parse_query("p(a).") == Atom("p", ["a"])

    def test_bare_atom(self):
        assert parse_query("  p(X) ") == Atom("p", ["X"])


@pytest.mark.parametrize("line, query", [
    ("p(a)?  % why", "p(a)?"),
    ('q("50%")  % trailing comment', 'q("50%")'),
    (r'q("say \"50%\"") % note', r'q("say \"50%\"")'),
    ('p(a) % say "hi', "p(a)"),
    # A quote that opens no string keeps the rest of the line, which
    # fails at that quote whether cut or not.
    ('q("50% off', 'q("50% off'),
])
def test_strip_comment_spares_a_percent_inside_a_string(line, query):
    assert strip_comment(line).strip() == query


def test_a_stray_quote_fails_at_the_quote_whether_its_comment_stays():
    with pytest.raises(ParseError) as kept:
        parse_query(strip_comment('q("50% off'))
    with pytest.raises(ParseError) as cut:
        parse_query('q("50')
    assert str(kept.value) == str(cut.value)


def grouped(facts):
    """The ``(signature, rows)`` pairs the fact scan gives for
    ``facts``: relations in first-fact order, rows in fact order."""
    relations = {}
    for fact in facts:
        relations.setdefault(fact.signature, []).append(fact.args)
    return list(relations.items())


#: Malformed fact texts shaped to make a backtracking scan slow.
SLOW_SHAPES = {
    "percent-run": lambda: "%" * 100_000 + "\np(",
    "space-run": lambda: " " * 200_000 + "P(a).",
    "open-50k-args": lambda: "p(" + ", ".join(["a"] * 50_000) + ".",
    "quote-run": lambda: (
        "".join(f"p(c{index}).\n" for index in range(20_000)) + '"' * 5_000
    ),
    "open-string-args": lambda: 'p("' + "a" * 200_000,
    # One relation's run, read a bounded run per match, and two
    # predicates in turn, which never make a run.
    "run-200k": lambda: (
        "".join(f"p(c{index % 1000}).\n" for index in range(200_000)) + "p(c0"
    ),
    "alternating-100k": lambda: (
        "".join(f"{'pq'[index % 2]}(c{index % 1000}).\n"
                for index in range(100_000)) + "q(c0"
    ),
}


class TestFactScan:
    """Fact text takes the scan in ``FactStore.from_program``; anything
    else gets the general parser's error, and no input is slow."""

    @pytest.fixture
    def general_parser_off(self, monkeypatch):
        """``parse_program`` raises, so only the scan can load facts."""

        def refuse(text):
            raise AssertionError(f"fact text fell back: {text[:60]!r}")

        monkeypatch.setattr(repro.datalog.parser, "parse_program", refuse)

    def test_generated_fact_texts_take_the_scan(self, general_parser_off):
        for shape in KB_SHAPES:
            for seed in range(4):
                spec = WorldSpec(seed=seed, kb_shape=shape, negation_rate=0.3)
                world = build_kb_world(spec)
                assert len(world.database) == len(set(world.fact_text)), spec
        assert len(db1()) == 2
        _rules, facts_text, _queries = _serving_workload(6, 1)
        assert len(Database.from_program(facts_text)) == 6 * 7
        # One ``rel(cN).`` per line, as the benchmark's learn workloads.
        facts = [f"leaf{form}_{branch}(c{key})."
                 for form in range(8) for branch in range(5)
                 for key in range(0, 2000, 37)]
        assert len(Database.from_program("\n".join(facts))) == len(facts)

    def test_scan_reads_what_the_general_parser_reads(self):
        text = (
            '@Label p(a, -3, 4.5, "x, y) % z.", \u0663). % (q).\n'
            "not. not(not).\n% r(a).\n@_x\n% c\ns ( b ) ."
        )
        expected = [rule.head for rule in parse_program(text)]
        assert list(repro.datalog.parser._scan_facts(text).items()) == (
            grouped(expected))
        assert expected[0].args[-1] == Constant(3)

    def test_scan_shares_predicates_and_constants(self, monkeypatch):
        # With interning off, only the scan's own tables can share.
        monkeypatch.setattr(repro.datalog.terms, "_INTERN_LIMIT", 0)
        (edge, (first, second)), (_node, (third,)) = (
            repro.datalog.parser._scan_facts(
                'edge(zq_a, 7). edge("7", zq_a). node(zq_a).'
            ).items()
        )
        assert edge == ("edge", 2)
        assert first[0] is second[1] is third[0]
        assert first[0] == Constant("zq_a")
        assert first[0] is not Constant("zq_a")
        # Keyed on the text as written, so the number 7 and the string
        # "7" stay distinct constants.
        assert first[1] == Constant(7) != second[0]

    def test_scan_shares_one_row_per_one_argument_constant(self, monkeypatch):
        monkeypatch.setattr(repro.datalog.terms, "_INTERN_LIMIT", 0)
        relations = repro.datalog.parser._scan_facts(
            "leaf(zq_k1). other(zq_k1). leaf(zq_k2). pair(zq_k1, zq_k1).\n"
            "pair(zq_k1, zq_k1). leaf( zq_k1 % note\n). leaf(zq_k2)."
        )
        assert list(relations) == [("leaf", 1), ("other", 1), ("pair", 2)]
        leaf, second, spaced, second_again = relations["leaf", 1]
        (other,) = relations["other", 1]
        pair, pair_again = relations["pair", 2]
        # Every one-argument fact over a constant shares its one row,
        # in any relation and however it is laid out.
        assert leaf is other is spaced == (Constant("zq_k1"),)
        assert second is second_again is not leaf
        # A wider row is one per fact, over the shared constants.
        assert pair == pair_again and pair is not pair_again
        assert pair[0] is pair[1] is pair_again[0] is leaf[0]

    @pytest.mark.parametrize("text", [
        "p(X).", "p(a) :- q(a).", "P(a).", "p(a)", "p(a). 1.", 'p("a).',
        "p(a) & q(b).", "@ab.", "p(a).5", "p(1a).", "p(a b).", "p().",
        "p(-a).", "not p(a).", "p(_x).", "p(a).q(X).",
        # The quote opens no string, as the backslash ends its line; a
        # comment cut after it must not close it.
        'p("a %c\\\n").',
    ])
    def test_scan_declines_what_is_not_certainly_facts(self, text):
        assert repro.datalog.parser._scan_facts(text) is None

    def test_over_long_integer_gets_the_general_error(self):
        # Past int's digit limit the scan declines, so the general
        # parser's first error wins, as it did before the scan.
        with pytest.raises(ParseError, match="unexpected character '&'"):
            Database.from_program("p(" + "1" * 5_000 + "). q(&).")

    @pytest.mark.parametrize("read, text, where", [
        (parse_program, "p(a).\nq(b, {}).", (2, 6)),
        (parse_query, "q(b, {})?", (1, 6)),
        (Database.from_program, "p(a).\nq(b, {}).", (2, 6)),
    ], ids=["parse_program", "parse_query", "from_program"])
    def test_over_long_integer_is_a_parse_error(self, read, text, where):
        """An integer literal past ``int``'s digit limit is a
        :class:`ParseError` at its token, as every other grammar error
        is, never the conversion's bare ``ValueError``."""
        with pytest.raises(ParseError) as raised:
            read(text.format("1" * 5_000))
        assert (raised.value.line, raised.value.column) == where
        assert "integer literal too long" in str(raised.value)

    @pytest.mark.parametrize("shape", sorted(SLOW_SHAPES))
    def test_malformed_text_fails_fast_with_the_general_error(self, shape):
        text = SLOW_SHAPES[shape]()
        with pytest.raises(ParseError) as general:
            parse_program(text)
        start = time.perf_counter()
        with pytest.raises(ParseError) as raised:
            Database.from_program(text)
        assert time.perf_counter() - start < 5.0
        assert (str(raised.value), raised.value.line, raised.value.column) == (
            str(general.value), general.value.line, general.value.column
        )


# -- the findall reading against the positional reference ---------------

def positional(text, production):
    """The positional reference for ``_parse``: the productions over
    every token :func:`tokenize` reads from the start, with the error
    at the positional token where they stop."""
    positions = list(tokenize(text))
    try:
        return production(repro.datalog.parser._Parser(
            [token.text for token in positions]))
    except repro.datalog.parser._Declined as declined:
        raise declined.at(positions[declined.index]) from None


def outcome(read, text):
    """What ``read(text)`` gives: its result, rules with their labels,
    or the error with its message, line and column."""
    try:
        result = read(text)
    except ParseError as error:
        return ("raised", str(error), error.line, error.column)
    except Exception as error:  # an unsafe rule, from the RuleBase
        return ("raised", type(error), str(error))
    if isinstance(result, Atom):
        return ("read", result)
    if isinstance(result, Rule):
        return ("read", [(result, result.name)])
    return ("read", [(rule, rule.name) for rule in result])


def facts_by_rules(text):
    """The heads of ``parse_program``'s rules, which must all be facts:
    the general parser's reading of a whole fact text."""
    heads = []
    for rule in parse_program(text):
        if not rule.is_fact:
            raise DatalogError(f"not a fact: {rule}")
        heads.append(rule.head)
    return heads


def loaded(load, text):
    """What ``load(text)`` gives: the facts of the store it built, in
    order, or its error's type, message, line and column."""
    try:
        store = load(text)
    except Exception as error:
        return ("raised", type(error), str(error),
                getattr(error, "line", None), getattr(error, "column", None))
    return ("built", list(store))


#: Argument texts: names, numbers and strings holding what ends an
#: argument, a clause, a string or a line, and starts a comment.
ARGUMENTS = st.sampled_from([
    "a", "b1", "c_c", "0", "-7", "4.5", "\u0663", '"s"', '"a, b)."',
    '"50% (off)"', '"q\\"r"', '"two\nlines"',
])
#: What goes between two clauses.
BETWEEN = st.sampled_from(["\n", "", " ", "\t\n", "\r\n", " % note p(a).\n"])
#: What one random edit puts in: grammar, stray and non-ASCII characters.
EDITS = st.sampled_from([
    "", "(", ")", ",", ".", ":-", " :- q(X)", "X", "_", '"', "%", "&", "@",
    "-", "1", "\n", "\\+", "not ", "p", "\u00e9", "\u00b2", "\u0663", "?",
])


def edited(draw, text):
    """``text``, or ``text`` with one drawn edit: a piece of
    :data:`EDITS` put in at a drawn place over up to two characters."""
    if not draw(st.booleans()):
        return text
    at = draw(st.integers(0, len(text)))
    return text[:at] + draw(EDITS) + text[at + draw(st.integers(0, 2)):]


@st.composite
def fact_runs(draw):
    """Fact text in runs of one predicate: mixed arities, zero-arity
    facts, a label or a string inside a run, comments between clauses,
    and sometimes one random edit."""
    clauses = []
    for _ in range(draw(st.integers(1, 4))):
        predicate = draw(st.sampled_from(["p", "p2", "q", "not", "leaf_0"]))
        for _ in range(draw(st.integers(1, 8))):
            label = draw(st.sampled_from(["", "", "", "@L ", "@_x\n"]))
            arity = draw(st.sampled_from([0, 1, 1, 1, 2, 3]))
            arguments = ", ".join(draw(ARGUMENTS) for _ in range(arity))
            spelled = f"({arguments})" if arguments else ""
            clauses.append(f"{label}{predicate}{spelled}.{draw(BETWEEN)}")
    return edited(draw, "".join(clauses))


@st.composite
def query_texts(draw):
    """A query line: an atom over names, variables, numbers and
    strings, an optional ``?`` or ``.``, and sometimes one random
    edit."""
    terms = [draw(st.one_of(ARGUMENTS, st.sampled_from(["X", "_y", "Ab"])))
             for _ in range(draw(st.integers(0, 3)))]
    predicate = draw(st.sampled_from(["f3", "tc", "not", "q_1"]))
    spelled = f"({', '.join(terms)})" if terms else ""
    end = draw(st.sampled_from(["", "?", ".", " ?  "]))
    return edited(draw, f"{predicate}{spelled}{end}")


class TestFindallReading:
    """Rules and queries are read from one ``findall``'s tokens and,
    when that reading declines, again by ``tokenize`` from the declined
    token; fact text first goes to the scan, a run per match."""

    @given(text=fact_runs())
    @example(text="p(a). p(b). q. q(c, d). q(e). @L q(f). q(\"g\"). q(h).")
    def test_the_scan_gives_none_or_the_heads_parse_program_reads(self, text):
        rows = repro.datalog.parser._scan_facts(text)
        if rows is not None:
            rules = parse_program(text)
            assert all(rule.is_fact for rule in rules)
            assert list(rows.items()) == grouped(rule.head for rule in rules)

    @given(text=fact_runs())
    @example(text="p(a). p(b). p(c). p(X). p(d).")
    @example(text="% a\np(a). p(b). p(c). % b\n p(d). p(e f).\n% c\nq(&).")
    @example(text="p(a).\np(b).\np(c, " + "1" * 5_000 + ").\nq(\n&).")
    @example(text="p(a). p(b).\n  q(c) :- r(c). s(X).")
    def test_from_program_reads_what_the_general_parser_reads(self, text):
        """Where the scan stops, the rest of the text is parsed alone:
        the store holds ``parse_program``'s facts, or the load raises
        its error with the same message, line and column."""
        reference = loaded(lambda text: Database(facts_by_rules(text)), text)
        assert loaded(Database.from_program, text) == reference
        if reference[0] == "built":
            # The rows read, duplicates and all, are the heads' rows.
            assert list(repro.datalog.parser._read_facts(text).items()) == (
                grouped(facts_by_rules(text)))

    @given(text=st.one_of(fact_runs(), query_texts()))
    @example(text="p(a) q(b). &")
    @example(text="p(a). P(b). %\n q(\"é")
    @example(text="tc(X, \u00e9)")
    @example(text="\u00e9t\u00e9(a)")
    def test_every_reader_gives_the_positional_reference_reading(self, text):
        readers = (parse_program, parse_rule, parse_atom, parse_query)
        got = [outcome(read, text) for read in readers]
        with mock.patch.object(repro.datalog.parser, "_parse", positional):
            expected = [outcome(read, text) for read in readers]
        assert got == expected
