"""Datalog substrate: terms, rules, parser, database, and evaluation.

This subpackage implements the knowledge-base machinery the paper's
query processor runs on: a database of ground atomic facts plus a rule
base of Datalog rules (Section 2), a top-down satisficing SLD engine,
a bottom-up semi-naive oracle, and a goal-directed set-at-a-time
query-subquery-net engine.
"""

from .._lazy import lazy_names

__getattr__, __dir__, __all__ = lazy_names(__name__, {
    ".terms": ("Atom", "Constant", "Substitution", "Term", "Variable",
               "variables_of"),
    ".unify": ("match", "rename_apart", "unify"),
    ".rules": ("Literal", "QueryForm", "Rule", "RuleBase"),
    ".parser": ("parse_atom", "parse_program", "parse_query", "parse_rule"),
    ".database": ("Database",),
    ".engine": ("Answer", "CostModel", "ProofTrace", "RetrievalEvent",
                "TopDownEngine"),
    ".bottomup": ("BottomUpEngine", "naive_evaluate", "seminaive_evaluate"),
    ".qsqn": ("QSQNEngine",),
})
