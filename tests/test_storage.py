"""Storage backends: the FactStore contract, SQLite, and federation.

Every backend must be observationally identical to the in-memory
:class:`Database` on healthy paths — same answers, same enumeration
order, same catalog — and the federated backend must degrade to
*partial* answers (never raise, never invent facts) when shards go
dark.  The completeness verdict must thread through the system layer
and gate the learner.
"""

import gc
import random
import re
import tracemalloc
from unittest import mock

import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from repro import SessionConfig, open_session
from repro.datalog import parser
from repro.datalog.bottomup import BottomUpEngine
from repro.datalog.database import Database
from repro.datalog.parser import parse_program, parse_query
from repro.datalog.qsqn import QSQNEngine
from repro.datalog.rules import QueryForm
from repro.datalog.terms import Atom, Constant, Variable
from repro.datalog.unify import match
from repro.errors import DatalogError, RetrievalFaultError
from repro.resilience.circuit import CircuitBreaker
from repro.resilience.faults import FaultPlan, FaultSpec, FlakyDatabase
from repro.storage import (
    COMPLETE,
    Completeness,
    FactStore,
    FederatedStore,
    SQLiteFactStore,
)
from repro.storage.interface import _FactRows, bucket_keys
from repro.system import SelfOptimizingQueryProcessor
from repro.workloads import db1, university_rule_base


def base_facts():
    return [
        Atom("e1", ["a"]),
        Atom("e1", ["b"]),
        Atom("e2", ["a", "b"]),
        Atom("e2", ["b", "c"]),
        Atom("e2", ["c", "c"]),
        Atom("flag", []),
    ]


PATTERNS = [
    "e1(X)", "e1(a)", "e1(c)", "e2(X, Y)", "e2(X, X)", "e2(a, Y)",
    "e2(X, c)", "e2(b, c)", "missing(X)",
]


def all_backends():
    facts = base_facts()
    return [
        ("memory", Database(facts)),
        ("sqlite", SQLiteFactStore(facts)),
        ("federated", FederatedStore(facts, shards=3, seed=5)),
        ("federated-replicated",
         FederatedStore(facts, shards=2, seed=5, replicas=True)),
        ("flaky", FlakyDatabase(Database(facts), FaultPlan(seed=0))),
    ]


# -- fact-only program text ---------------------------------------------

#: Layout between two tokens: whitespace, newlines and ``%`` comments
#: holding the characters a careless scan would trip on.
LAYOUT = st.lists(
    st.sampled_from([" ", "\t", "\n", "\r\n", '% c, (d). "%\n']), max_size=2
).map("".join)
NAMES = st.from_regex(r"[a-z][A-Za-z0-9_]{0,2}", fullmatch=True)
DIGITS = st.text("0123456789\u0663\u0967", min_size=1, max_size=3)
NUMBERS = st.tuples(
    st.sampled_from(["", "-"]), DIGITS,
    st.one_of(st.just(""), DIGITS.map(lambda digits: "." + digits)),
).map("".join)
STRINGS = st.lists(
    st.sampled_from(["a", " ", "%", ",", ")", ".", '\\"', "\\\\"]), max_size=4
).map(lambda parts: '"' + "".join(parts) + '"')
LABELS = st.from_regex(r"[A-Za-z_][A-Za-z0-9_]{0,2}", fullmatch=True)

#: Edits that make a fact-only text something the scan must not accept.
MUTATIONS = ("variable", "body", "uppercase", "no-dot", "number-clause",
             "open-string", "ampersand")


@st.composite
def fact_clauses(draw):
    """Fact clauses as token lists: ``@Label``s, zero-arity facts, the
    predicate ``not`` and duplicate facts included."""
    clauses = []
    for _ in range(draw(st.integers(0, 6))):
        label = draw(st.one_of(st.none(), LABELS))
        tokens = [] if label is None else ["@", label]
        tokens.append(draw(st.one_of(st.just("not"), NAMES)))
        args = draw(st.lists(st.one_of(NAMES, NUMBERS, STRINGS), max_size=3))
        if args:
            tokens.append("(")
            for arg in args:
                tokens += [arg, ","]
            tokens[-1] = ")"
        clauses.append(tokens + ["."])
    for index in draw(st.lists(st.integers(0, 5), max_size=2)):
        if clauses:
            clauses.insert(index % len(clauses), list(clauses[index % len(clauses)]))
    return clauses


def render(draw, clauses):
    """Join the tokens with drawn layout before and after each one."""
    pieces = [draw(LAYOUT)]
    for tokens in clauses:
        for index, token in enumerate(tokens):
            pieces.append(token)
            # A label needs layout before its predicate, or the two names
            # would lex as one.
            gap = draw(LAYOUT)
            pieces.append(gap or (" " if index and tokens[index - 1] == "@" else ""))
    return "".join(pieces)


def mutate(draw, clauses):
    """A copy of ``clauses`` with one edit from :data:`MUTATIONS`."""
    clauses = [list(tokens) for tokens in clauses] or [["p", "(", "a", ")", "."]]
    where = draw(st.integers(0, len(clauses) - 1))
    tokens = clauses[where]
    predicate = 2 if tokens[0] == "@" else 0
    kind = draw(st.sampled_from(MUTATIONS))
    if kind == "variable":
        if "(" in tokens:
            tokens[tokens.index("(") + 1] = "X"
        else:
            tokens[-1:] = ["(", "X", ")", "."]
    elif kind == "body":
        tokens[-1:] = [":-", "q", "(", "a", ")", "."]
    elif kind == "uppercase":
        tokens[predicate] = tokens[predicate].capitalize()
    elif kind == "no-dot":
        tokens.pop()
    elif kind == "number-clause":
        clauses.insert(where, ["1", "."])
    else:
        stray = '"ab' if kind == "open-string" else "&"
        tokens.insert(draw(st.integers(0, len(tokens))), stray)
    return clauses


@st.composite
def fact_programs(draw):
    """A fact-only text, and the same text with one mutation."""
    clauses = draw(fact_clauses())
    return render(draw, clauses), render(draw, mutate(draw, clauses))


def load_by_rules(kind, text, **kwargs):
    """``kind.from_program`` with the scan turned off (it reads no
    fact): a fresh store fed the heads of ``parse_program``'s rules,
    after the ``is_fact`` check."""
    with mock.patch.object(parser, "_scan",
                           side_effect=lambda text: (_FactRows(), 0)):
        return kind.from_program(text, **kwargs)


def snapshot(store):
    """What a reader sees of a store: its facts in order, its catalog
    and its generation."""
    return list(store), len(store), store.signatures(), store.generation


def outcome(load, *args, **kwargs):
    """What ``load(*args, **kwargs)`` did: the store it built, or the
    error it raised."""
    try:
        return ("built", snapshot(load(*args, **kwargs)))
    except Exception as error:
        return ("raised", type(error), str(error),
                getattr(error, "line", None), getattr(error, "column", None))


# -- mutation histories and patterns -------------------------------------

#: Relations of arity 0 to 3; ``r`` at two arities must never mix,
#: and ``r`` and ``s`` can hold the same argument tuple.
RELATIONS = [("t", 0), ("u", 1), ("r", 2), ("r", 3), ("s", 2)]
CONSTANTS = st.sampled_from(["a", "b", "c", 1, "1"]).map(Constant)
#: Constants for fact text, with strings holding what ends an argument
#: list, a clause or a string, or starts a comment.
LOADED = st.sampled_from(
    ["a", "b", "c", 1, "1", "f(x, y).", 'say "50%",\\']
).map(Constant)
#: Few names, so patterns repeat variables, adjacent or not.
VARIABLES = st.sampled_from(["X", "Y", "Z"]).map(Variable)


@st.composite
def relation_atoms(draw, terms):
    predicate, arity = draw(st.sampled_from(RELATIONS))
    return Atom(predicate, draw(st.lists(terms, min_size=arity,
                                         max_size=arity)))


#: Adds, removes and re-adds over a small fact space.
HISTORIES = st.lists(
    st.tuples(st.sampled_from(["add", "remove"]),
              relation_atoms(CONSTANTS)),
    max_size=24,
)
PATTERNS_DRAWN = st.lists(
    relation_atoms(st.one_of(CONSTANTS, VARIABLES)), min_size=1, max_size=6
)


def matcher_backends():
    """One empty store of each backend; the fault plan injects nothing."""
    return [
        Database(),
        SQLiteFactStore(),
        FederatedStore(shards=3, seed=5),
        FlakyDatabase((), FaultPlan(seed=0)),
    ]


class CountingDatabase(Database):
    """A Database that counts ``add`` calls across all its instances."""

    adds = 0

    def add(self, fact):
        CountingDatabase.adds += 1
        return super().add(fact)


STORE_KINDS = [
    (Database, {}),
    (SQLiteFactStore, {}),
    (FederatedStore, {"shards": 3, "seed": 5}),
]


class TestBackendParity:
    """All backends are observationally identical to Database."""

    def test_all_are_fact_stores(self):
        for _, store in all_backends():
            assert isinstance(store, FactStore)

    def test_enumeration_order(self):
        reference = list(Database(base_facts()))
        for name, store in all_backends():
            assert list(store) == reference, name

    def test_retrieve_parity(self):
        reference = Database(base_facts())
        for text in PATTERNS:
            pattern = parse_query(text)
            expected = list(reference.retrieve(pattern))
            for name, store in all_backends():
                assert list(store.retrieve(pattern)) == expected, (
                    name, text,
                )

    def test_facts_matching_parity(self):
        reference = Database(base_facts())
        for text in PATTERNS:
            pattern = parse_query(text)
            expected = list(reference.facts_matching(pattern))
            for name, store in all_backends():
                assert list(store.facts_matching(pattern)) == expected, (
                    name, text,
                )

    def test_succeeds_parity(self):
        reference = Database(base_facts())
        for text in PATTERNS:
            pattern = parse_query(text)
            for name, store in all_backends():
                assert store.succeeds(pattern) == reference.succeeds(
                    pattern
                ), (name, text)

    @settings(deadline=None)
    @given(history=HISTORIES, patterns=PATTERNS_DRAWN)
    @example(
        history=[("add", parse_query(text)) for text in (
            "r(a, c, a)", "r(a, c, b)", "r(b, c, b)", "r(c, a, c)")]
        + [("remove", parse_query("r(a, c, a)")),
           ("add", parse_query("r(a, c, a)"))],
        patterns=[parse_query(text) for text in (
            "r(X, c, X)", "r(X, X, Y)", "r(a, c, a)", "r(X, Y, Z)")],
    )
    def test_matching_agrees_with_match_over_any_history(
        self, history, patterns
    ):
        """Every probe of every backend is the facts of the history, in
        insertion order, that :func:`match` accepts; every fact a
        backend rebuilds from its rows equals, and hashes like, the
        same fact parsed afresh; and after every step each backend
        reads the in-memory store's version of every relation and
        bucket key of the history's facts."""
        model = []
        relations = []  # relation first-insertion order
        stores = matcher_backends()
        keys = store_keys(fact for _, fact in history)
        for op, fact in history:
            if op == "add":
                effective = fact not in model
                if effective:
                    model.append(fact)
                    if fact.signature not in relations:
                        relations.append(fact.signature)
            else:
                effective = fact in model
                if effective:
                    model.remove(fact)
            for store in stores:
                assert getattr(store, op)(fact) == effective, (store, op, fact)
            versions = {key: stores[0].version([key]) for key in keys}
            for store in stores[1:]:
                assert {key: store.version([key]) for key in keys} == versions, (
                    store, op, fact)
        for pattern in patterns:
            matching = [fact for fact in model if match(pattern, fact) is not None]
            bindings = [match(pattern, fact) for fact in matching]
            for store in stores:
                assert list(store.facts_matching(pattern)) == matching, (
                    store, pattern)
                assert list(store.retrieve(pattern)) == bindings, (
                    store, pattern)
                assert store.succeeds(pattern) == bool(matching), (
                    store, pattern)

        def parsed(facts):
            return [parse_query(render_fact(fact)) for fact in facts]

        def same_atoms(got, expected):
            return got == expected and [hash(atom) for atom in got] == [
                hash(atom) for atom in expected]

        everything = [fact for signature in relations for fact in model
                      if fact.signature == signature]
        for store in stores:
            assert same_atoms(list(store), parsed(everything)), store
            for signature in relations:
                assert same_atoms(store.relation(*signature), parsed(
                    fact for fact in model if fact.signature == signature
                )), (store, signature)

    @given(history=HISTORIES)
    @example(history=[("add", Atom("r", [f"k{index}", "b"])) for index in range(200)])
    def test_shard_copies_keep_their_catalog_and_no_read_stamps(self, history):
        """No reader versions a shard's primary or replica, so through
        any history of adds and removes they stamp no read key; the
        federated store still reads the in-memory store's version of
        every key, and each copy still counts its shard's facts."""
        reference = Database()
        store = FederatedStore(shards=3, seed=5, replicas=True)
        for op, fact in history:
            assert getattr(store, op)(fact) == getattr(reference, op)(fact)
        keys = store_keys(fact for _, fact in history)
        assert {key: store.version([key]) for key in keys} == {
            key: reference.version([key]) for key in keys}
        for shard in store.shards:
            owned = {signature for signature in reference.signatures()
                     if store.shard_for(signature) is shard}
            for copy in (shard.primary, shard.replica):
                assert copy._stamps == {}
                assert copy.signatures() == owned
                assert len(copy) == sum(reference.count(*s) for s in owned)

    @pytest.mark.parametrize("kind", [Database, SQLiteFactStore, FederatedStore])
    def test_iteration_builds_each_fact_as_it_is_consumed(self, kind, monkeypatch):
        """Taking the first fact of a 100,000-fact relation builds one
        :class:`Atom`, not the relation's: a view that built
        ``relation()`` first peaked at about 10 MB here."""
        monkeypatch.setattr(Constant, "_intern", {})
        store = kind(_FactRows({("p", 1): [(Constant(i),) for i in range(100_000)]}))
        facts = iter(store)
        gc.collect()
        tracemalloc.start()
        try:
            first = next(facts)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert first == Atom("p", [0])
        assert peak < 32 * 1024, peak

    def test_removed_then_readded_enumerates_last(self):
        fact = Atom("e1", ["a"])
        for name, store in all_backends():
            assert store.remove(fact)
            assert store.add(fact)
            bucket = list(store.facts_matching(parse_query("e1(X)")))
            assert bucket == [Atom("e1", ["b"]), fact], name

    def test_duplicate_add_rejected_everywhere(self):
        for name, store in all_backends():
            generation = store.generation
            assert not store.add(Atom("e1", ["a"])), name
            assert store.generation == generation, name

    def test_catalog_parity(self):
        reference = Database(base_facts())
        for name, store in all_backends():
            assert store.signatures() == reference.signatures(), name
            assert len(store) == len(reference), name
            for predicate, arity in reference.signatures():
                assert store.count(predicate, arity) == reference.count(
                    predicate, arity
                ), name
                assert store.relation(predicate, arity) == (
                    reference.relation(predicate, arity)
                ), name

    def test_catalog_tracks_emptied_and_refilled_relations(self):
        e2 = [fact for fact in base_facts() if fact.predicate == "e2"]
        reference = list(Database(base_facts()))
        for name, store in all_backends():
            store.add(Atom("e2", ["x"]))  # a second arity of e2
            assert store.count("e2") == 4, name
            assert store.remove(Atom("flag", [])), name
            assert ("flag", 0) not in store.signatures(), name
            assert store.count("flag", 0) == 0 == store.count("flag"), name
            for fact in e2:
                assert store.remove(fact), name
            assert store.count("e2") == 1, name
            assert store.signatures() == {("e1", 1), ("e2", 1)}, name
            assert len(store) == 3, name
            # A refilled relation returns to its first-insertion slot.
            for fact in e2 + [Atom("flag", [])]:
                assert store.add(fact), name
            assert list(store) == reference + [Atom("e2", ["x"])], name

    @settings(deadline=None)
    @given(program=fact_programs())
    @example(program=("e2(a, b). e1(a). e2(b, c). flag. e1(b).",
                      "e1(X) :- e2(X, X)."))
    def test_from_program_builds_the_same_store(self, program):
        """``from_program`` builds what the general path builds from a
        fact-only text, and raises what it raises on a mutated one,
        without a single ``add`` first."""
        text, malformed = program
        reference = load_by_rules(Database, text)
        # A fresh store's generation counts its facts: 5 for the example.
        assert reference.generation == len(reference)
        for kind, kwargs in STORE_KINDS:
            # The general parser is off, so the scan built this store.
            with mock.patch.object(parser, "parse_program",
                                   side_effect=AssertionError(text)):
                store = kind.from_program(text, **kwargs)
            assert snapshot(store) == snapshot(
                load_by_rules(kind, text, **kwargs)
            ), kind
            assert snapshot(store) == snapshot(reference), kind
            assert outcome(kind.from_program, malformed, **kwargs) == (
                outcome(load_by_rules, kind, malformed, **kwargs)
            ), kind
        database = Database.from_program(text)
        for fact in reference:
            for key in [fact.signature, *bucket_keys(fact)]:
                assert database.version([key]) == reference.version([key]), key
        flaky = FlakyDatabase(Database.from_program(text), FaultPlan(seed=0))
        assert snapshot(flaky) == snapshot(reference)
        CountingDatabase.adds = 0
        if outcome(CountingDatabase.from_program, malformed)[0] == "raised":
            assert CountingDatabase.adds == 0

    def test_contains(self):
        for name, store in all_backends():
            assert Atom("e2", ["b", "c"]) in store, name
            assert Atom("e2", ["c", "b"]) not in store, name

    def test_contains_is_false_for_a_non_atom(self):
        for name, store in all_backends():
            for item in ("p(a)", "e1(a)", None, 3):
                assert item not in store, (name, item)

    def test_copy_is_independent(self):
        for name, store in all_backends():
            clone = store.copy()
            assert list(clone) == list(store), name
            clone.add(Atom("e1", ["z"]))
            assert Atom("e1", ["z"]) not in store, name

    def test_copy_leaves_out_an_emptied_relation(self):
        """A relation emptied by ``remove`` keeps its catalog slot in the
        store, at count 0, but a copy has only relations with facts."""
        for name, store in all_backends():
            assert store.remove(Atom("flag", [])), name
            clone = store.copy()
            assert clone.signatures() == store.signatures(), name
            assert ("flag", 0) not in clone._counts, name
            assert 0 not in clone._counts.values(), name
            assert list(clone) == list(store), name
            assert clone.add(Atom("flag", [])), name
            assert ("flag", 0) in clone.signatures() - store.signatures(), name

    def test_cache_keys_distinct_across_backends(self):
        keys = [store.cache_key for _, store in all_backends()]
        assert len(set(keys)) == len(keys)

    def test_generation_bumps_on_effective_mutations_only(self):
        for name, store in all_backends():
            generation = store.generation
            store.add(Atom("e1", ["q"]))
            assert store.generation == generation + 1, name
            store.remove(Atom("e1", ["nope"]))
            assert store.generation == generation + 1, name


#: Ways to lay out an argument list, as (open, separator, close):
#: tight, spaced, and broken by comments holding the characters a
#: careless scan would trip on.
ARGUMENT_LAYOUTS = [
    ("(", ",", ")"),
    ("( ", " , ", " )"),
    ("(", ' % c, (d). "%\n, ', ' %)\n)'),
]


def render_fact(fact, layout=("(", ", ", ")")):
    """``fact`` as fact text with its arguments laid out as ``layout``
    says: a string constant that is not a lowercase name is quoted,
    its quotes and backslashes escaped, so ``1`` and ``"1"`` stay
    apart."""
    if not fact.args:
        return f"{fact.predicate}."
    opening, separator, closing = layout
    args = separator.join(
        str(arg.value) if not isinstance(arg.value, str)
        or re.fullmatch(r"[a-z][A-Za-z0-9_]*", arg.value)
        else '"' + arg.value.replace("\\", "\\\\").replace('"', '\\"') + '"'
        for arg in fact.args
    )
    return f"{fact.predicate}{opening}{args}{closing}."


def fact_text(facts, layouts):
    """``facts`` as one fact text, each laid out by the next of
    ``layouts`` in turn, so one argument text recurs in several
    layouts."""
    return " ".join(
        render_fact(fact, layouts[index % len(layouts)])
        for index, fact in enumerate(facts)
    )


#: Facts to load, relations interleaved as drawn, and the layouts to
#: write them in.
LOADED_FACTS = st.lists(relation_atoms(LOADED), max_size=16)
LAYOUTS_DRAWN = st.lists(st.sampled_from(ARGUMENT_LAYOUTS), min_size=1, max_size=4)


def database_state(database):
    """What a one-pass build must reproduce: the facts in order, the
    catalog, the generation, the per-relation and per-name counts, each
    relation in order, and the argument buckets with their rows in
    order."""
    relations = sorted(database.signatures())
    return (
        list(database), len(database), set(relations), database.generation,
        [database.count(*signature) for signature in relations],
        [database.count(predicate) for predicate, _ in relations],
        [database.relation(*signature) for signature in relations],
        {key: list(bucket) for key, bucket in database._arg_index.items()},
    )


def grouped(facts):
    """The ``(signature, rows)`` pairs the fact scan gives for
    ``facts``: relations in first-fact order, rows in fact order."""
    relations = {}
    for fact in facts:
        relations.setdefault(fact.signature, []).append(fact.args)
    return list(relations.items())


def store_keys(facts):
    """Every relation and bucket key a write of one of ``facts`` stamps."""
    return {key for fact in facts for key in (fact.signature, *bucket_keys(fact))}


#: What ``add`` raises for a fact it cannot store, in every backend.
UNSTORABLE = [
    ("p(a)", TypeError, "facts must be Atoms"),
    (Atom("p", ["a", "X"]), DatalogError, "facts must be ground, got p(a, X)"),
]


class TestLoading:
    """A fresh store's facts: every backend builds them in one pass, and
    all check them alike."""

    @pytest.mark.parametrize("fact, error, message", UNSTORABLE,
                             ids=["non-atom", "non-ground"])
    @pytest.mark.parametrize("via", ["constructor", "add"])
    @pytest.mark.parametrize("kind, kwargs", STORE_KINDS,
                             ids=["memory", "sqlite", "federated"])
    def test_unstorable_fact_raises_the_same_error(
        self, kind, kwargs, via, fact, error, message
    ):
        with pytest.raises(error) as raised:
            if via == "constructor":
                kind([Atom("p", ["a"]), fact], **kwargs)
            else:
                kind(**kwargs).add(fact)
        assert type(raised.value) is error
        assert str(raised.value) == message

    def test_flaky_database_from_program(self):
        text = "leaf(c1). pair(c1, c2). leaf(c1). flag."
        plan = FaultPlan(seed=1, per_arc={"leaf": FaultSpec(fail_first=1)})
        flaky = FlakyDatabase.from_program(text, plan=plan)
        wrapped = FlakyDatabase(Database.from_program(text), FaultPlan(seed=1))
        assert list(flaky) == list(wrapped)
        assert len(flaky) == len(wrapped) == 3
        assert flaky.generation == wrapped.generation == 3
        keys = store_keys(flaky)
        assert [flaky.version([key]) for key in keys] == [
            wrapped.version([key]) for key in keys
        ]
        assert flaky.plan is plan
        with pytest.raises(RetrievalFaultError):
            flaky.succeeds(parse_query("leaf(c1)"))
        assert flaky.succeeds(parse_query("leaf(c1)"))

    @settings(deadline=None)
    @given(facts=LOADED_FACTS, layouts=LAYOUTS_DRAWN, history=HISTORIES,
           patterns=PATTERNS_DRAWN)
    @example(
        facts=[parse_query(text) for text in (
            "r(a, 1)", 'r(a, "1")', "u(b)", "r(a, 1)", "t", "r(1, a, a)", "u(b)",
            "s(a, 1)", "r(a, 1)", 'u("f(x, y).")', 'r("say \\"50%\\",\\\\", a)')],
        layouts=ARGUMENT_LAYOUTS,
        history=[("remove", parse_query("r(a, 1)")), ("add", parse_query("u(c)")),
                 ("add", parse_query("r(a, 1)"))],
        patterns=[parse_query(text) for text in ("r(a, X)", "u(X)", "r(X, Y, Y)")],
    )
    def test_one_pass_build_equals_one_add_per_fact(
        self, facts, layouts, history, patterns
    ):
        """A store built in one pass, from atoms or from fact text in
        any layout, is the store of one ``add`` per fact, and keeps its
        probes and read versions alike through a write history."""
        built = Database(facts)
        added = Database()
        for fact in facts:
            added.add(fact)
        reference = database_state(added)
        assert database_state(built) == reference
        assert {key[:2] for key in built._arg_index} == {
            signature for signature in built.signatures() if signature[1] > 1
        }
        for pattern in patterns:
            assert list(built.retrieve(pattern)) == list(added.retrieve(pattern))
            assert list(built.facts_matching(pattern)) == list(
                added.facts_matching(pattern))
        # Writes move the same keys in both stores.
        keys = store_keys(facts + [fact for _, fact in history])
        before = [(built.version([key]), added.version([key])) for key in keys]
        for op, fact in history:
            assert getattr(built, op)(fact) == getattr(added, op)(fact)
        for key, (built_was, added_was) in zip(keys, before):
            assert (built.version([key]) != built_was) == (
                added.version([key]) != added_was), key
        assert database_state(built) == database_state(added)
        # The scan reads the same facts as rows, grouped by relation,
        # and a row rebuilds its fact, hash and all.
        text = fact_text(facts, layouts)
        scanned = list(parser._scan_facts(text).items())
        assert scanned == grouped(facts)
        in_scan_order = [fact for signature, _rows in scanned
                         for fact in facts if fact.signature == signature]
        assert [hash(Atom._ground(signature, args))
                for signature, rows in scanned for args in rows] == [
            hash(fact) for fact in in_scan_order]
        loaded = Database.from_program(text)
        assert database_state(loaded) == reference
        # One row per one-argument constant, one per fact otherwise.
        rows = [args for relation in loaded._facts.values() for args in relation]
        assert len({id(args) for args in rows if len(args) == 1}) == len(
            {args for args in rows if len(args) == 1})
        assert len({id(args) for args in rows if len(args) > 1}) == len(
            [args for args in rows if len(args) > 1])

    @settings(deadline=None)
    @given(facts=LOADED_FACTS, layouts=LAYOUTS_DRAWN, history=HISTORIES,
           patterns=PATTERNS_DRAWN)
    @example(
        facts=[parse_query(text) for text in (
            "r(a, 1)", 'r(a, "1")', "u(b)", "r(a, 1)", "t", "t", "r(1, a, a)",
            "s(a, 1)", 'u("f(x, y).")')],
        layouts=ARGUMENT_LAYOUTS,
        history=[("remove", parse_query("r(a, 1)")), ("add", parse_query("t")),
                 ("add", parse_query("r(a, 1)"))],
        patterns=[parse_query(text) for text in ("r(a, X)", "u(X)", "r(X, Y, Y)")],
    )
    def test_sqlite_one_pass_build_equals_one_add_per_fact(
        self, facts, layouts, history, patterns
    ):
        """SQLite loads in one transaction, one insert per relation: the
        same store as one ``add`` per fact, duplicates skipped and not
        counted, rowids in fact order, only stored constants decoded."""

        def state(store):
            relations = sorted(store.signatures())
            return (
                list(store), len(store), set(relations), store.generation,
                [store.count(*signature) for signature in relations],
                [store.relation(*signature) for signature in relations],
                store._constants, list(store._tables),
            )

        built = SQLiteFactStore(facts)
        added = SQLiteFactStore()
        for fact in facts:
            added.add(fact)
        assert not built._conn.in_transaction
        assert state(built) == state(added)
        assert built.generation == len(set(facts))
        assert set(built._constants.values()) == {
            arg for fact in facts for arg in fact.args}
        text = fact_text(facts, layouts)
        assert state(SQLiteFactStore.from_program(text)) == state(added)
        for op, fact in history:
            assert getattr(built, op)(fact) == getattr(added, op)(fact)
        assert state(built) == state(added)
        for pattern in patterns:
            assert list(built.retrieve(pattern)) == list(added.retrieve(pattern))
            assert list(built.facts_matching(pattern)) == list(
                added.facts_matching(pattern))

    @settings(deadline=None)
    @given(facts=LOADED_FACTS, layouts=LAYOUTS_DRAWN, history=HISTORIES,
           patterns=PATTERNS_DRAWN, replicas=st.booleans())
    @example(
        facts=[parse_query(text) for text in (
            "r(a, 1)", 'r(a, "1")', "u(b)", "r(a, 1)", "t", "u(b)", "r(1, a, a)",
            "s(a, 1)", 'u("f(x, y).")')],
        layouts=ARGUMENT_LAYOUTS,
        history=[("remove", parse_query("r(a, 1)")), ("add", parse_query("u(c)")),
                 ("add", parse_query("r(a, 1)"))],
        patterns=[parse_query(text) for text in ("r(a, X)", "u(X)", "r(X, Y, Y)")],
        replicas=True,
    )
    def test_federated_one_pass_build_equals_one_add_per_fact(
        self, facts, layouts, history, patterns, replicas
    ):
        """The federated store builds each shard's primary and replica
        from the shard's rows in one pass, and records its catalog once:
        the same store as one ``add`` per fact, whose probes route and
        answer alike, before and after a write history."""

        def state(store):
            relations = sorted(store.signatures())
            return (
                list(store), len(store), set(relations), store.generation,
                [store.count(*signature) for signature in relations],
                [store.count(predicate) for predicate, _ in relations],
                [store.relation(*signature) for signature in relations],
                [(list(shard.primary),
                  None if shard.replica is None else list(shard.replica))
                 for shard in store.shards],
            )

        def probes(store):
            return [
                (list(store.retrieve(pattern)),
                 list(store.facts_matching(pattern)),
                 list(store._rows_matching(pattern)),
                 store.succeeds(pattern), pattern in store)
                for pattern in patterns
            ]

        kwargs = {"shards": 3, "seed": 5, "replicas": replicas}
        built = FederatedStore(facts, **kwargs)
        added = FederatedStore(**kwargs)
        for fact in facts:
            added.add(fact)
        assert state(built) == state(added)
        assert built.generation == len(set(facts))
        for shard in built.shards:
            if shard.replica is not None:
                assert all(
                    primary is replica for primary, replica in zip(
                        (args for rows in shard.primary._facts.values()
                         for args in rows),
                        (args for rows in shard.replica._facts.values()
                         for args in rows),
                    )
                )
        text = fact_text(facts, layouts)
        assert state(FederatedStore.from_program(text, **kwargs)) == state(added)
        assert probes(built) == probes(added)
        # Writes move the same keys in both stores.
        keys = store_keys(facts + [fact for _, fact in history])
        before = [(built.version([key]), added.version([key])) for key in keys]
        for op, fact in history:
            assert getattr(built, op)(fact) == getattr(added, op)(fact)
        for key, (built_was, added_was) in zip(keys, before):
            assert (built.version([key]) != built_was) == (
                added.version([key]) != added_was), key
        assert state(built) == state(added)
        assert probes(built) == probes(added)
        assert built.summary() == added.summary()

    def test_one_argument_facts_hold_one_row_per_constant(self):
        """Unary facts over K constants, spread over many relations,
        hold exactly K row objects; wider facts keep one row each."""
        rng = random.Random(3)
        constants = [f"k{index}" for index in range(40)] + ["7", '"7"', "-2.5"]
        unary = [f"leaf{relation}({constant})."
                 for relation in range(30)
                 for constant in rng.sample(constants, 20)]
        used = {fact[fact.index("(") + 1:-2] for fact in unary}
        pairs = [f"pair({rng.choice(constants)}, {rng.choice(constants)})."
                 for _ in range(50)]
        text = " ".join(unary + pairs + unary[:5])
        database = Database.from_program(text)
        assert database_state(database) == database_state(
            Database([parse_query(fact) for fact in unary + pairs]))
        rows = [args for relation in database._facts.values() for args in relation]
        assert len(rows) == len(database) == len(unary) + len(set(pairs))
        assert len({id(args) for args in rows if len(args) == 1}) == len(used)
        assert len({id(args) for args in rows if len(args) == 2}) == len(set(pairs))

    def test_loading_holds_under_140_bytes_per_fact(self, monkeypatch):
        """A learn-shaped text, 80 unary relations of 245 out of 2,000
        constants, costs about 67 traced bytes per fact once loaded
        from the text (bound: 95), and 44 from its atoms, whose
        constants and rows already exist (bound: 140): the relation
        dicts, the catalog and, from the text, the constants, their
        intern table and the one row each unary fact over a constant
        shares.  A row per fact made these 110 and 87, and an
        :class:`Atom` per fact, as the store once kept, 218 and 194.

        The intern table starts empty, so what earlier tests interned
        cannot move a resize of it into the measured window."""
        monkeypatch.setattr(Constant, "_intern", {})
        rng = random.Random(0)
        constants = [f"k{index}" for index in range(2000)]
        text = " ".join(
            f"leaf{relation}({constant})."
            for relation in range(80)
            for constant in rng.sample(constants, 245)
        )

        def from_atoms(text):
            atoms = list(Database.from_program(text))
            return Database(atoms)

        for load, bound in ((Database.from_program, 95), (from_atoms, 140)):
            gc.collect()
            tracemalloc.start()
            try:
                before = tracemalloc.get_traced_memory()[0]
                database = load(text)
                gc.collect()
                held = tracemalloc.get_traced_memory()[0] - before
            finally:
                tracemalloc.stop()
            assert len(database) == 80 * 245
            assert held / len(database) <= bound, load
            del database


class TestSQLiteEncoding:
    def test_int_and_string_constants_stay_distinct(self):
        store = SQLiteFactStore()
        store.add(Atom("n", [1]))
        store.add(Atom("n", ["1"]))
        assert len(store) == 2
        facts = list(store.facts_matching(parse_query("n(X)")))
        assert facts == [Atom("n", [1]), Atom("n", ["1"])]

    def test_probes_and_removes_do_not_grow_the_decode_table(self):
        store = SQLiteFactStore.from_program("e(a, b).")
        assert len(store._constants) == 2
        for index in range(1000):
            assert Atom("e", ["a", f"z{index}"]) not in store
            assert not store.remove(Atom("e", [f"y{index}", "b"]))
        assert len(store._constants) == 2
        # A constant first probed, then stored, still decodes.
        assert store.add(Atom("e", ["a", "z7"]))
        assert len(store._constants) == 3
        stored = [Atom("e", ["a", "b"]), Atom("e", ["a", "z7"])]
        assert list(store) == stored
        assert list(store.retrieve(parse_query("e(a, X)"))) == [
            match(parse_query("e(a, X)"), fact) for fact in stored
        ]

    def test_close_is_idempotent(self):
        store = SQLiteFactStore(base_facts())
        store.close()
        store.close()

    def test_column_indexes_only_for_arity_two_or_more(self):
        store = SQLiteFactStore(base_facts())

        def indexes(signature):
            table = store._tables[signature]
            rows = store._conn.execute(f"PRAGMA index_list({table})")
            return sorted(row[1] for row in rows)

        # A unary table's UNIQUE index already covers its one column.
        assert indexes(("e1", 1)) == ["r1_uq"]
        assert indexes(("e2", 2)) == ["r2_i0", "r2_i1", "r2_uq"]
        assert indexes(("flag", 0)) == ["r3_uq"]


class TestCompleteness:
    def test_complete_singleton(self):
        assert COMPLETE.complete and not COMPLETE.partial
        assert COMPLETE.describe() == "complete"

    def test_missing_is_sorted_and_deduplicated(self):
        verdict = Completeness.missing(["s2", "s0", "s2"])
        assert verdict.partial
        assert verdict.missing_shards == ("s0", "s2")
        assert "s0" in verdict.describe()

    def test_missing_of_nothing_is_complete(self):
        assert Completeness.missing([]) is COMPLETE


def dark_store(signature, **kwargs):
    """A federated store whose shard owning ``signature`` always faults."""
    probe = FederatedStore(base_facts(), shards=2, seed=0)
    owner = probe.shard_for(signature).name
    return owner, FederatedStore(
        base_facts(),
        shards=2,
        seed=0,
        per_shard={owner: FaultSpec(fault_rate=1.0)},
        **kwargs,
    )


class TestFederation:
    def test_healthy_window_is_complete_and_billed(self):
        store = FederatedStore(base_facts(), shards=3, seed=1, latency=2.0)
        store.begin_probe_window()
        assert list(store.retrieve(parse_query("e1(X)")))
        window = store.end_probe_window()
        assert window.completeness is COMPLETE
        assert window.probes == 1
        assert window.billed_cost == 2.0

    def test_dark_shard_degrades_to_partial_without_raising(self):
        owner, store = dark_store(("e1", 1))
        store.begin_probe_window()
        assert list(store.retrieve(parse_query("e1(X)"))) == []
        assert not store.succeeds(parse_query("e1(a)"))
        window = store.end_probe_window()
        assert window.completeness.partial
        assert window.completeness.missing_shards == (owner,)
        assert store.dark_probes == 2

    def test_dark_shard_hides_only_its_relations(self):
        owner, store = dark_store(("e1", 1))
        other = store.shard_for(("e2", 2)).name
        if other == owner:
            pytest.skip("both relations landed on one shard")
        store.begin_probe_window()
        assert list(store.facts_matching(parse_query("e2(X, Y)"))) == [
            Atom("e2", ["a", "b"]),
            Atom("e2", ["b", "c"]),
            Atom("e2", ["c", "c"]),
        ]
        assert store.end_probe_window().completeness is COMPLETE

    def test_hedged_read_rescues_through_clean_replica(self):
        owner, store = dark_store(("e1", 1), replicas=True)
        store.begin_probe_window()
        facts = list(store.facts_matching(parse_query("e1(X)")))
        window = store.end_probe_window()
        assert facts == [Atom("e1", ["a"]), Atom("e1", ["b"])]
        assert window.completeness is COMPLETE
        assert store.hedged_reads == 1
        assert store.dark_probes == 0

    def test_breaker_opens_on_consecutive_faults(self):
        owner, store = dark_store(
            ("e1", 1), failure_threshold=3, cooldown=100,
        )
        for _ in range(5):
            store.succeeds(parse_query("e1(a)"))
        assert store.breaker_states()[owner] == "open"

    def test_same_seed_same_injections(self):
        def run(seed):
            store = FederatedStore(
                base_facts(), shards=3, seed=seed,
                fault=FaultSpec(fault_rate=0.4, timeout_rate=0.1),
            )
            outcomes = []
            for _ in range(30):
                store.begin_probe_window()
                outcomes.append(
                    (
                        len(list(store.retrieve(parse_query("e2(X, Y)")))),
                        store.end_probe_window().completeness.missing_shards,
                    )
                )
            return outcomes, round(store.billed_cost, 9)

        assert run(3) == run(3)

    def test_copy_gets_fresh_fault_streams(self):
        store = FederatedStore(
            base_facts(), shards=2, seed=9,
            fault=FaultSpec(fault_rate=0.5),
        )
        for _ in range(10):
            store.succeeds(parse_query("e1(a)"))
        clone = store.copy()
        assert list(clone) == list(store)
        assert clone.probes == 0 and clone.billed_cost == 0.0
        assert all(
            state == "closed" for state in clone.breaker_states().values()
        )

    def test_mutations_are_administrative(self):
        _, store = dark_store(("e1", 1))
        assert store.add(Atom("e1", ["new"]))
        assert store.remove(Atom("e1", ["new"]))
        assert store.billed_cost == 0.0 and store.probes == 0

    def test_window_peek_tracks_missing_so_far(self):
        owner, store = dark_store(("e1", 1))
        store.begin_probe_window()
        assert store.probe_window_missing() == frozenset()
        store.succeeds(parse_query("e1(a)"))
        assert store.probe_window_missing() == frozenset({owner})
        store.end_probe_window()
        assert store.probe_window_missing() == frozenset()


class TestSystemCompleteness:
    """The verdict threads through the processor and gates the learner."""

    def learner_of(self, processor):
        return processor._states[QueryForm("instructor", "b")].learner

    def test_healthy_federated_answer_is_complete_and_recorded(self):
        processor = SelfOptimizingQueryProcessor(university_rule_base())
        store = FederatedStore(db1(), shards=2, seed=0)
        plain_cost = SelfOptimizingQueryProcessor(
            university_rule_base()
        ).query(parse_query("instructor(manolis)"), db1()).cost
        answer = processor.query(parse_query("instructor(manolis)"), store)
        assert answer.proved
        assert answer.completeness is COMPLETE
        # Remote latency is billed on top of the strategy cost.
        assert answer.cost > plain_cost
        assert self.learner_of(processor).total_tests > 0

    def test_dark_shard_yields_partial_and_no_learner_sample(self):
        probe = FederatedStore(db1(), shards=2, seed=0)
        owner = probe.shard_for(("grad", 1)).name
        store = FederatedStore(
            db1(), shards=2, seed=0,
            per_shard={owner: FaultSpec(fault_rate=1.0)},
        )
        processor = SelfOptimizingQueryProcessor(university_rule_base())
        answer = processor.query(parse_query("instructor(manolis)"), store)
        assert answer.completeness.partial
        assert owner in answer.completeness.missing_shards
        assert self.learner_of(processor).total_tests == 0

    def test_partial_answers_never_invent_bindings(self):
        probe = FederatedStore(db1(), shards=2, seed=0)
        owner = probe.shard_for(("grad", 1)).name
        store = FederatedStore(
            db1(), shards=2, seed=0,
            per_shard={owner: FaultSpec(fault_rate=1.0)},
        )
        processor = SelfOptimizingQueryProcessor(university_rule_base())
        # instructor(fred) is false in the complete world; hiding facts
        # can only keep it false (shards hide facts, never invent them).
        complete = SelfOptimizingQueryProcessor(university_rule_base()).query(
            parse_query("instructor(fred)"), db1()
        )
        assert not complete.proved
        answer = processor.query(parse_query("instructor(fred)"), store)
        assert not answer.proved


#: A ten-edge chain under transitive closure, which no form compiles
#: to an inference graph, so the configured engine answers every goal.
CHAIN_RULES = "tc(X, Y) :- e(X, Y).\ntc(X, Y) :- e(X, Z), tc(Z, Y).\n"
CHAIN_FACTS = " ".join(f"e(n{index}, n{index + 1})." for index in range(10))


class TestDerivedState:
    """What an engine derives from a whole store — the bottom-up model,
    QSQN's net — is the store's, one entry per engine, built at one
    generation."""

    def test_state_is_kept_per_store_and_engine_until_a_write(self):
        rules = parse_program(CHAIN_RULES)
        store = Database.from_program(CHAIN_FACTS)
        engine, other = BottomUpEngine(rules), BottomUpEngine(rules)
        model = engine.model(store)
        assert engine.model(store) is model
        assert other.model(store) is not model
        assert engine.model(Database.from_program(CHAIN_FACTS)) is not model
        assert set(store._derived) == {engine, other}
        store.add(parse_query("e(n10, n11)"))
        rebuilt = engine.model(store)
        assert rebuilt is not model
        assert parse_query("tc(n0, n11)") in rebuilt
        assert parse_query("tc(n0, n11)") not in model

    @pytest.mark.parametrize("make", [
        lambda: FederatedStore.from_program(
            CHAIN_FACTS, shards=2, seed=0, fault=FaultSpec(fault_rate=1.0)),
        lambda: FlakyDatabase.from_program(
            CHAIN_FACTS, plan=FaultPlan(default=FaultSpec(fault_rate=1.0))),
        lambda: SQLiteFactStore.from_program(CHAIN_FACTS),
    ], ids=["dark-federated", "faulting-flaky", "sqlite"])
    def test_model_is_built_in_memory_from_the_rows(self, make):
        """The model reads the store's rows, never its probes: no
        fault draw and no dark shard can drop a fact from it."""
        store = make()
        model = BottomUpEngine(parse_program(CHAIN_RULES)).model(store)
        assert type(model) is Database
        assert parse_query("tc(n0, n10)") in model
        assert len(model) == 10 + 55
        if isinstance(store, FederatedStore):
            assert store.probes == 0
        if isinstance(store, FlakyDatabase):
            assert store.plan.summary()["faults"] == 0

    def test_qsqn_drops_a_net_drained_while_a_shard_was_dark(self):
        engine = QSQNEngine(parse_program(CHAIN_RULES))
        store = FederatedStore.from_program(
            CHAIN_FACTS, shards=2, seed=0, fault=FaultSpec(fault_rate=1.0))
        store.begin_probe_window()
        assert not engine.prove(parse_query("tc(n0, n3)"), store).proved
        assert store.end_probe_window().completeness.partial
        assert engine not in store._derived
        healthy = FederatedStore.from_program(CHAIN_FACTS, shards=2, seed=0)
        healthy.begin_probe_window()
        assert engine.prove(parse_query("tc(n0, n3)"), healthy).proved
        assert healthy.end_probe_window().completeness is COMPLETE
        assert engine in healthy._derived

    def test_qsqn_drops_a_dark_net_drained_outside_a_window(self):
        """A net drained with no probe window open saw its dark shard
        all the same; once the shards heal, the processor that owns the
        engine must not serve that net's "no" as clean."""
        store = FederatedStore.from_program(
            CHAIN_FACTS, shards=2, seed=0, fault=FaultSpec(fault_rate=1.0),
            retry_budget=0,
        )
        processor = SelfOptimizingQueryProcessor(
            parse_program(CHAIN_RULES), config=SessionConfig(engine="qsqn"))
        goal = parse_query("tc(n0, n3)")
        assert not processor._fallback.prove(goal, store).proved
        assert processor._fallback not in store._derived
        store.plan.per_arc.clear()
        for shard in store.shards:
            shard.breaker = CircuitBreaker(
                failure_threshold=store.failure_threshold,
                cooldown=store.cooldown,
            )
        answer = processor.query(goal, store)
        assert answer.proved and answer.clean

    @pytest.mark.parametrize("engine", ["bottomup", "qsqn"])
    def test_no_wrong_answer_is_served_clean_over_faulty_shards(self, engine):
        """Twenty faulty two-shard stores, four closure goals asked three
        rounds each: every answer served as clean is the model's.  With
        an engine cache of its own, bottom-up served 180 of the 240
        answers wrong and clean (its copy of the store probed fresh
        fault streams outside the query's window), and QSQN 60 (a net
        drained while a shard was dark served the next query)."""
        rules = parse_program(CHAIN_RULES)
        model = BottomUpEngine(rules).model(Database.from_program(CHAIN_FACTS))
        queries = [parse_query(text) for text in (
            "tc(n0, n10)", "tc(n0, n5)", "tc(n3, n9)", "tc(n5, n2)")]
        wrong = []
        for seed in range(20):
            store = FederatedStore.from_program(
                CHAIN_FACTS, shards=2, seed=seed,
                fault=FaultSpec(fault_rate=0.3), retry_budget=0,
            )
            config = SessionConfig(engine=engine)
            with open_session(rules, store, config=config) as session:
                for _ in range(3):
                    for query in queries:
                        answer = session.query(query)
                        if answer.clean and answer.proved != model.succeeds(query):
                            wrong.append((seed, str(query)))
        assert wrong == []
