"""Shared fixtures: the paper's graphs, databases, and seeded RNGs."""

import random

import pytest
from hypothesis import settings

from repro.workloads import (
    db1,
    db2,
    figure2_probabilities,
    g_a,
    g_b,
    intended_probabilities,
    theta_1,
    theta_2,
    theta_abcd,
    university_rule_base,
)

#: The nightly deep run of the property tests
#: (``--hypothesis-profile=nightly``); tier-1 keeps Hypothesis's default.
settings.register_profile("nightly", max_examples=5000)


@pytest.fixture
def dropped_head_test(monkeypatch):
    """A planted bug: a rule head on an arc's path that rejects the
    query is taken as accepting it, with no bindings, both where the
    learned path probes (``LazyDatalogContext._resolve``) and where it
    recovers bindings (``SelfOptimizingQueryProcessor._binding_for``)."""
    import repro.graphs.contexts as contexts
    import repro.system as system
    from repro.datalog.terms import Substitution

    unify = contexts.unify

    def lenient(heads, query):
        return unify(heads, query) or Substitution()

    monkeypatch.setattr(contexts, "unify", lenient)
    monkeypatch.setattr(system, "unify", lenient)


@pytest.fixture
def dropped_head_bindings(monkeypatch):
    """A planted bug: ``SelfOptimizingQueryProcessor._binding_for``
    drops the head unifier, so a winning retrieval's bindings are not
    composed with the rule heads' on its path."""
    import repro.system as system
    from repro.datalog.terms import Substitution

    monkeypatch.setattr(system, "unify", lambda heads, query: Substitution())


@pytest.fixture
def rng():
    """A deterministically seeded generator; never share across tests."""
    return random.Random(0xC0FFEE)


@pytest.fixture
def graph_a():
    """Figure 1's ``G_A`` with the paper's arc names."""
    return g_a()


@pytest.fixture
def graph_b():
    """Figure 2's ``G_B``."""
    return g_b()


@pytest.fixture
def strategy_theta1(graph_a):
    return theta_1(graph_a)


@pytest.fixture
def strategy_theta2(graph_a):
    return theta_2(graph_a)


@pytest.fixture
def strategy_abcd(graph_b):
    return theta_abcd(graph_b)


@pytest.fixture
def probs_a():
    """The intended Section 2 probabilities (``C[Θ1]=3.7, C[Θ2]=2.8``)."""
    return intended_probabilities()


@pytest.fixture
def probs_b():
    return figure2_probabilities()


@pytest.fixture
def database_1():
    return db1()


@pytest.fixture
def database_2():
    return db2(n_prof=200, n_grad=50)  # scaled-down DB_2 for speed


@pytest.fixture
def rules_university():
    return university_rule_base()
