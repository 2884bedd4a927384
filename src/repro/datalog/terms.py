"""Core Datalog term language: constants, variables, atoms, substitutions.

The paper's knowledge bases contain a database of *ground atomic facts*
and a rule base of *Datalog rules* (function-free Horn clauses).  This
module supplies the term-level vocabulary those objects are written in:

* :class:`Constant` — an uninterpreted symbol such as ``manolis`` or an
  interpreted literal value (``42``, ``"abc"``);
* :class:`Variable` — a logic variable such as ``X``;
* :class:`Atom` — a predicate applied to terms, e.g.
  ``instructor(manolis)``;
* :class:`Substitution` — an immutable mapping from variables to terms,
  applied with :meth:`Substitution.apply`.

All objects are immutable, hashable and comparable, so they can be used
freely as dictionary keys and set members — the database indexes depend
on this.

Terms sit on the engine's hottest path (every unification, every index
probe, every trace event hashes and compares them), so the
representation is tuned accordingly:

* hashes are computed **once at construction** and stored in a slot;
* :class:`Variable` and :class:`Constant` are **interned** through a
  bounded table, so the working set compares by identity first (the
  table stops growing past its cap instead of evicting, which bounds a
  long-lived process reading adversarial text).  The resolution
  engines' fresh variables skip the table (:meth:`Variable._fresh`):
  nothing looks them up by name, and each renaming shares one object
  per variable anyway;
* :class:`Atom` precomputes ``signature`` and ``is_ground`` as plain
  attributes and exposes the trusted fast constructor
  :meth:`Atom._make` for callers (the compiled rule plans, the fact
  indexes) that already hold a tuple of ``Term`` arguments, and
  :meth:`Atom._ground`, with which a store rebuilds facts from their
  stored argument tuples on one shared ``signature`` tuple.
"""

from __future__ import annotations

from typing import Dict, Iterable, Iterator, Mapping, Optional, Sequence, Tuple, Union

__all__ = [
    "Term",
    "Constant",
    "Variable",
    "Atom",
    "Substitution",
    "EMPTY_SUBSTITUTION",
    "make_term",
    "variables_of",
]

#: Interning stops (new objects are still created, just not remembered)
#: once a table reaches this many entries, bounding memory under
#: adversarial workloads such as a long-lived process reading ever new
#: names from text.  Fresh variables never enter the table.
_INTERN_LIMIT = 1 << 16


class Term:
    """Abstract base class for Datalog terms (constants and variables)."""

    __slots__ = ()

    @property
    def is_ground(self) -> bool:
        """Whether the term contains no variables."""
        raise NotImplementedError

    def substitute(self, subst: "Substitution") -> "Term":
        """Return the term with ``subst`` applied."""
        raise NotImplementedError


class Constant(Term):
    """An uninterpreted constant symbol or interpreted literal value.

    The ``value`` may be any hashable Python object; in practice the
    parser produces strings, integers and floats.  Two constants are
    equal iff their values are equal and of the same type, so the
    constant ``1`` and the constant ``"1"`` are distinct.
    """

    __slots__ = ("value", "_hash")

    is_ground = True  # shadows Term.is_ground: constants are ground

    #: Value type -> value -> its constant.  One table per type keeps
    #: ``1``, ``1.0``, ``True`` and ``"1"`` apart with no key tuple per
    #: constant; ``_INTERN_LIMIT`` bounds all of them together.
    _intern: Dict[type, Dict[object, "Constant"]] = {}

    def __new__(cls, value):
        table = cls._intern.get(value.__class__)
        if table is not None:
            cached = table.get(value)
            if cached is not None:
                return cached
        if isinstance(value, Term):
            raise TypeError("Constant value must be a plain value, not a Term")
        self = super().__new__(cls)
        self.value = value
        self._hash = hash((Constant, type(value).__name__, value))
        if sum(map(len, cls._intern.values())) < _INTERN_LIMIT:
            if table is None:
                table = cls._intern[value.__class__] = {}
            table[value] = self
        return self

    def substitute(self, subst: "Substitution") -> "Constant":
        return self

    def __eq__(self, other) -> bool:
        if self is other:
            return True
        return (
            isinstance(other, Constant)
            and type(self.value) is type(other.value)
            and self.value == other.value
        )

    def __hash__(self) -> int:
        return self._hash

    def __reduce__(self):
        return (Constant, (self.value,))

    def __repr__(self) -> str:
        return f"Constant({self.value!r})"

    def __str__(self) -> str:
        return str(self.value)


class Variable(Term):
    """A logic variable, identified by name.

    Variables are scoped per clause; :func:`repro.datalog.unify.rename_apart`
    freshens them before resolution.  Names beginning with ``_`` are
    conventionally anonymous but receive no special treatment here.
    """

    __slots__ = ("name", "_hash")

    is_ground = False  # shadows Term.is_ground: variables never are

    _intern: Dict[str, "Variable"] = {}

    def __new__(cls, name: str):
        table = cls._intern
        cached = table.get(name)
        if cached is not None:
            return cached
        if not isinstance(name, str) or not name:
            raise TypeError("Variable name must be a non-empty string")
        self = super().__new__(cls)
        self.name = name
        self._hash = hash((Variable, name))
        if len(table) < _INTERN_LIMIT:
            table[name] = self
        return self

    @classmethod
    def _fresh(cls, name: str) -> "Variable":
        """Trusted constructor for a variable no text can name: skips
        validation and the intern table.  The result equals and hashes
        like ``Variable(name)``; it is just not remembered, since
        nothing looks a fresh variable up by name again."""
        self = object.__new__(cls)
        self.name = name
        self._hash = hash((Variable, name))
        return self

    def substitute(self, subst: "Substitution") -> Term:
        return subst.get(self, self)

    def __eq__(self, other) -> bool:
        if self is other:
            return True
        return isinstance(other, Variable) and self.name == other.name

    def __hash__(self) -> int:
        return self._hash

    def __reduce__(self):
        return (Variable, (self.name,))

    def __repr__(self) -> str:
        return f"Variable({self.name!r})"

    def __str__(self) -> str:
        return self.name


def make_term(value) -> Term:
    """Coerce a Python value into a :class:`Term`.

    Existing terms pass through; strings that look like Datalog
    variables (leading uppercase letter or underscore) become
    :class:`Variable`; everything else becomes :class:`Constant`.
    """
    if isinstance(value, Term):
        return value
    if isinstance(value, str) and value and (value[0].isupper() or value[0] == "_"):
        return Variable(value)
    return Constant(value)


class Atom:
    """A predicate applied to a tuple of terms, e.g. ``prof(manolis)``.

    ``predicate`` is the relation name; ``args`` is the (possibly empty)
    argument tuple.  Atoms are immutable and hashable; ``signature``,
    ``is_ground`` and the hash are computed once at construction.
    """

    __slots__ = ("predicate", "args", "signature", "is_ground", "_hash")

    def __init__(self, predicate: str, args: Sequence = ()):
        if not isinstance(predicate, str) or not predicate:
            raise TypeError("predicate must be a non-empty string")
        self.predicate = predicate
        self.args: Tuple[Term, ...] = tuple(make_term(a) for a in args)
        self.signature = (predicate, len(self.args))
        self.is_ground = all(type(a) is not Variable for a in self.args)
        self._hash = hash((Atom, predicate, self.args))

    @classmethod
    def _make(cls, predicate: str, args: Tuple[Term, ...]) -> "Atom":
        """Trusted fast constructor: ``args`` must already be a tuple of
        :class:`Term` objects.  Skips coercion and validation — this is
        the constructor the compiled rule plans and indexes use."""
        atom = object.__new__(cls)
        atom.predicate = predicate
        atom.args = args
        atom.signature = (predicate, len(args))
        atom.is_ground = all(type(a) is not Variable for a in args)
        atom._hash = hash((Atom, predicate, args))
        return atom

    @classmethod
    def _ground(cls, signature: Tuple[str, int], args: Tuple[Constant, ...]) -> "Atom":
        """Trusted constructor for a ground fact: ``args`` must be a
        tuple of :class:`Constant` objects and ``signature`` must equal
        ``(predicate, len(args))``.  It skips :meth:`_make`'s
        per-argument ground test and keeps the ``signature`` object it
        is given, so the facts a caller builds for one relation share
        one tuple."""
        atom = object.__new__(cls)
        atom.predicate = predicate = signature[0]
        atom.args = args
        atom.signature = signature
        atom.is_ground = True
        atom._hash = hash((Atom, predicate, args))
        return atom

    @property
    def arity(self) -> int:
        """Number of arguments."""
        return len(self.args)

    def variables(self) -> Iterator[Variable]:
        """Yield the variables of the atom, left to right, with repeats."""
        for arg in self.args:
            if type(arg) is Variable:
                yield arg

    def substitute(self, subst: "Substitution") -> "Atom":
        """Return the atom with ``subst`` applied to every argument."""
        if not subst:
            return self
        changed = False
        new_args = []
        for arg in self.args:
            new = arg.substitute(subst)
            if new is not arg:
                changed = True
            new_args.append(new)
        if not changed:
            return self
        return Atom._make(self.predicate, tuple(new_args))

    def binding_pattern(self) -> str:
        """The paper's query-form adornment: ``'b'``/``'f'`` per argument.

        An argument is bound (``b``) when it is a constant and free
        (``f``) when it is a variable; ``instructor(manolis)`` has
        pattern ``"b"`` and ``age(russ, X)`` has pattern ``"bf"``.
        """
        return "".join("b" if a.is_ground else "f" for a in self.args)

    def __eq__(self, other) -> bool:
        if self is other:
            return True
        return (
            isinstance(other, Atom)
            and self._hash == other._hash
            and self.predicate == other.predicate
            and self.args == other.args
        )

    def __hash__(self) -> int:
        return self._hash

    def __reduce__(self):
        return (Atom, (self.predicate, self.args))

    def __repr__(self) -> str:
        return f"Atom({self.predicate!r}, {list(self.args)!r})"

    def __str__(self) -> str:
        if not self.args:
            return self.predicate
        return f"{self.predicate}({', '.join(str(a) for a in self.args)})"


class Substitution(Mapping[Variable, Term]):
    """An immutable mapping from variables to terms.

    Bindings are *fully resolved at construction*: if the raw mapping
    sends ``X -> Y`` and ``Y -> c``, the stored binding is ``X -> c``.
    This keeps :meth:`apply` a single-pass operation and makes composed
    substitutions idempotent, a property the unit tests rely on.
    """

    __slots__ = ("_bindings", "_hash")

    def __init__(self, bindings: Optional[Mapping[Variable, Term]] = None):
        resolved: Dict[Variable, Term] = {}
        raw = dict(bindings) if bindings else {}
        for var, term in raw.items():
            if not isinstance(var, Variable):
                raise TypeError(f"substitution keys must be Variables, got {var!r}")
            if not isinstance(term, Term):
                term = make_term(term)
            resolved[var] = _walk(term, raw)
        for var, term in resolved.items():
            if var == term:
                raise ValueError(f"substitution binds {var} to itself")
        self._bindings = resolved
        self._hash = None

    @classmethod
    def _resolved(cls, bindings: Dict[Variable, Term]) -> "Substitution":
        """Trusted fast constructor: ``bindings`` must already be fully
        resolved (no value is itself a bound variable) and free of
        identity bindings.  The dict is adopted, not copied — callers
        must hand over ownership."""
        sub = object.__new__(cls)
        sub._bindings = bindings
        sub._hash = None
        return sub

    def __getitem__(self, var: Variable) -> Term:
        return self._bindings[var]

    def __iter__(self) -> Iterator[Variable]:
        return iter(self._bindings)

    def __len__(self) -> int:
        return len(self._bindings)

    def get(self, var: Variable, default=None):
        return self._bindings.get(var, default)

    def apply(self, target: Union[Term, Atom]) -> Union[Term, Atom]:
        """Apply the substitution to a term or atom."""
        return target.substitute(self)

    def compose(self, other: "Substitution") -> "Substitution":
        """Return ``self`` followed by ``other`` (``other ∘ self``).

        Applying the result is equivalent to applying ``self`` and then
        ``other``.
        """
        mine = self._bindings
        theirs = other._bindings
        if not theirs:
            return self
        if not mine:
            return other
        merged: Dict[Variable, Term] = {}
        for var, term in mine.items():
            # Both inputs are fully resolved, so one substitution step
            # fully resolves the composed binding.
            new = term.substitute(other) if type(term) is Variable else term
            if var is not new and var != new:
                merged[var] = new
        for var, term in theirs.items():
            if var not in merged and var not in mine:
                merged[var] = term
        return Substitution._resolved(merged)

    def restrict(self, variables: Iterable[Variable]) -> "Substitution":
        """Project the substitution onto ``variables``."""
        bindings = self._bindings
        return Substitution._resolved(
            {v: bindings[v] for v in set(variables) if v in bindings}
        )

    def is_ground(self) -> bool:
        """Whether every binding maps to a ground term."""
        return all(t.is_ground for t in self._bindings.values())

    def __eq__(self, other) -> bool:
        return isinstance(other, Substitution) and self._bindings == other._bindings

    def __hash__(self) -> int:
        if self._hash is None:
            self._hash = hash(frozenset(self._bindings.items()))
        return self._hash

    def __repr__(self) -> str:
        inner = ", ".join(f"{v}: {t}" for v, t in sorted(
            self._bindings.items(), key=lambda item: item[0].name))
        return "{" + inner + "}"


def _walk(term: Term, bindings: Mapping[Variable, Term]) -> Term:
    """Chase variable-to-variable links in ``bindings`` to a fixed point."""
    seen = set()
    while isinstance(term, Variable) and term in bindings:
        if term in seen:
            raise ValueError(f"cyclic substitution through {term}")
        seen.add(term)
        term = bindings[term]
        if not isinstance(term, Term):
            term = make_term(term)
    return term


EMPTY_SUBSTITUTION = Substitution()


def _variant_key(atom: Atom) -> tuple:
    """A variant-invariant key: ``(predicate, *args)`` with each
    variable replaced by the ``int`` numbering it by first occurrence.

    Two atoms are variants (equal up to variable renaming) iff their
    keys coincide.  The names are forgotten but the repetition
    structure is kept — ``p(X, X)`` and ``p(X, Y)`` differ — and an
    ``int`` never equals a :class:`Constant`, so the two kinds of entry
    cannot collide.  A ground atom's key is its predicate and
    arguments, built without the loop.
    """
    if atom.is_ground:
        return (atom.predicate,) + atom.args
    numbering: Dict[Variable, int] = {}
    key: list = [atom.predicate]
    for arg in atom.args:
        if type(arg) is Variable:
            arg = numbering.setdefault(arg, len(numbering))
        key.append(arg)
    return tuple(key)


def variables_of(*items: Union[Term, Atom]) -> "set[Variable]":
    """Collect the set of variables occurring in the given terms/atoms."""
    found: set = set()
    for item in items:
        if isinstance(item, Variable):
            found.add(item)
        elif isinstance(item, Atom):
            found.update(item.variables())
    return found
