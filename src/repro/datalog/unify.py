"""Unification and matching for function-free (Datalog) atoms.

Because Datalog terms contain no function symbols, unification here is
the simple variable/constant case — no occurs check is needed beyond
rejecting a variable bound against itself, and most-general unifiers
are unique up to variable renaming.

Three operations are provided:

* :func:`unify` — most general unifier of two atoms (or ``None``);
* :func:`match` — the general one-sided matcher: bind variables of a
  *pattern* to make it equal a *target*, which may itself hold
  variables.  Stored-fact retrieval runs the storage base's own loop
  (:class:`~repro.storage.interface.FactStore`), and the storage
  property tests hold every backend's probes to :func:`match`;
* :func:`rename_apart` — freshen the variables of a clause before
  resolution so distinct rule applications never share variables.

``unify`` and ``match`` build a single raw binding dict in place and
hand it to the trusted :meth:`~repro.datalog.terms.Substitution._resolved`
constructor after a final chain-resolution pass, instead of
re-validating through ``Substitution.__init__``.
"""

from __future__ import annotations

import itertools
from typing import Dict, Optional, Tuple

from .terms import Atom, Substitution, Term, Variable

__all__ = ["unify", "unify_terms", "match", "rename_apart", "fresh_variable_factory"]


def unify_terms(left: Term, right: Term,
                bindings: Optional[Dict[Variable, Term]] = None
                ) -> Optional[Dict[Variable, Term]]:
    """Unify two terms under existing raw ``bindings``.

    Returns the extended raw binding dict, or ``None`` when the terms
    do not unify.  The input dict is never mutated.
    """
    bindings = dict(bindings) if bindings else {}
    left = _resolve(left, bindings)
    right = _resolve(right, bindings)
    if left == right:
        return bindings
    if isinstance(left, Variable):
        bindings[left] = right
        return bindings
    if isinstance(right, Variable):
        bindings[right] = left
        return bindings
    return None  # two distinct constants


def unify(left: Atom, right: Atom) -> Optional[Substitution]:
    """Most general unifier of two atoms, or ``None`` if none exists.

    >>> from repro.datalog.terms import Atom
    >>> unify(Atom("p", ["X"]), Atom("p", ["a"]))
    {X: a}
    """
    if left.signature != right.signature:
        return None
    bindings: Dict[Variable, Term] = {}
    for l_arg, r_arg in zip(left.args, right.args):
        while type(l_arg) is Variable and l_arg in bindings:
            l_arg = bindings[l_arg]
        while type(r_arg) is Variable and r_arg in bindings:
            r_arg = bindings[r_arg]
        if l_arg is r_arg or l_arg == r_arg:
            continue
        if type(l_arg) is Variable:
            bindings[l_arg] = r_arg
        elif type(r_arg) is Variable:
            bindings[r_arg] = l_arg
        else:
            return None  # two distinct constants
    if not bindings:
        return Substitution._resolved({})
    for var, term in bindings.items():
        # Chase variable-to-variable chains so the result is resolved.
        while type(term) is Variable and term in bindings:
            term = bindings[term]
        bindings[var] = term
    return Substitution._resolved(bindings)


def match(pattern: Atom, target: Atom) -> Optional[Substitution]:
    """One-sided unification: bind ``pattern``'s variables to equal ``target``.

    Variables in ``target`` are treated as constants-like and never
    bound.  This is the general matcher: the fact stores' retrieval
    loop is its ground-target case, and the storage property tests
    use it as their reference.  Returns ``None`` when no such binding
    exists.
    """
    if pattern.signature != target.signature:
        return None
    bindings: Dict[Variable, Term] = {}
    for p_arg, t_arg in zip(pattern.args, target.args):
        while type(p_arg) is Variable and p_arg in bindings:
            p_arg = bindings[p_arg]
        if type(p_arg) is Variable:
            if p_arg != t_arg:
                bindings[p_arg] = t_arg
        elif p_arg != t_arg:
            return None
    if bindings:
        for var, term in bindings.items():
            # Chains (and cycles) arise only when pattern and target
            # share variables; walk with cycle detection like
            # ``Substitution.__init__`` would.
            seen = None
            while type(term) is Variable and term in bindings:
                if seen is None:
                    seen = {var}
                if term in seen:
                    raise ValueError(f"cyclic substitution through {term}")
                seen.add(term)
                term = bindings[term]
            bindings[var] = term
    return Substitution._resolved(bindings)


def _resolve(term: Term, bindings: Dict[Variable, Term]) -> Term:
    """Follow variable bindings to the representative term."""
    while isinstance(term, Variable) and term in bindings:
        term = bindings[term]
    return term


class fresh_variable_factory:
    """Generate variables guaranteed fresh across a resolution session.

    Produced names look like ``X#3`` — the ``#`` cannot appear in parsed
    variable names, so fresh variables never collide with user ones,
    and no text names them, so they skip the variable intern table.
    """

    def __init__(self):
        self._counter = itertools.count()

    def __call__(self, base: str = "V") -> Variable:
        root = base.split("#", 1)[0]
        return Variable._fresh(f"{root}#{next(self._counter)}")


def rename_apart(atoms: Tuple[Atom, ...],
                 factory: fresh_variable_factory) -> Tuple[Atom, ...]:
    """Return the atoms with every variable consistently replaced by a
    fresh one from ``factory``.

    Shared variables stay shared: renaming ``(p(X, Y), q(X))`` yields
    ``(p(X#i, Y#j), q(X#i))``.
    """
    mapping: Dict[Variable, Term] = {}
    for atom in atoms:
        for var in atom.variables():
            if var not in mapping:
                mapping[var] = factory(var.name)
    subst = Substitution(mapping)
    return tuple(atom.substitute(subst) for atom in atoms)
