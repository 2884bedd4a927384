"""Inference graphs: the search space a query-processing strategy orders.

Section 2.1 of the paper defines an inference graph
``G = ⟨N, A, S, f⟩``: nodes for atomic goals, directed arcs for rule
reductions and database retrievals, success nodes ``S`` (the boxes in
the paper's Figure 1), and a positive cost ``f`` on every arc.  This
module implements that structure for the *tree-shaped* class
:math:`\\mathcal{AOT}` the paper's algorithms operate on, together with
the derived quantities of Note 5:

* ``f*`` — the cost of an arc plus everything below it;
* ``F¬`` — the cost of all arcs *off* the root-to-leaf paths through an
  arc;
* the path ``Π(e)`` from the root down to an arc (Definition 1).

Arcs can be *blockable* (the paper's "probabilistic experiments"):
database retrievals always are — the required literal may be absent
from the context's database — and rule reductions may be, as with the
``grad(fred) :- admitted(fred, X)`` rule of Section 4.1 that only
applies to one query constant.
"""

from __future__ import annotations

import enum
from typing import Dict, List, Optional, Sequence, Set, Tuple

from ..errors import GraphError
from ..datalog.rules import Rule
from ..datalog.terms import Atom, Substitution, Variable
from ..datalog.unify import fresh_variable_factory, unify

__all__ = ["ArcKind", "Node", "Arc", "InferenceGraph", "GraphBuilder"]

#: A blockable arc's test compiled over the query: the predicate; per
#: argument either the ``int`` position of the query argument it stands
#: for or a term kept as it is; and the arc's head test, or ``None`` on
#: a path with no blockable reduction.  The head test is the root goal
#: as the rule heads of the path's blockable reductions (the arc's own
#: included) bind it, renamed apart from any query: a query reaches the
#: arc only if it unifies with it, and the unifier carries those heads'
#: bindings into the arc's probe and the answer.
ProbeTemplate = Tuple[str, Tuple[object, ...], Optional[Atom]]


class ArcKind(enum.Enum):
    """The two arc flavours of Section 2.1."""

    REDUCTION = "reduction"  # following a rule from goal to subgoal
    RETRIEVAL = "retrieval"  # an attempted database retrieval


class Node:
    """A graph node: a goal literal, or a success box under a retrieval."""

    __slots__ = ("name", "goal", "is_success")

    def __init__(self, name: str, goal: Optional[Atom] = None,
                 is_success: bool = False):
        if not isinstance(name, str) or not name:
            raise TypeError("node name must be a non-empty string")
        self.name = name
        self.goal = goal
        self.is_success = bool(is_success)

    def __repr__(self) -> str:
        flags = ", success" if self.is_success else ""
        return f"Node({self.name!r}{flags})"

    def __str__(self) -> str:
        return self.name


class Arc:
    """A directed arc with a positive cost.

    ``blockable`` marks the arc as a probabilistic experiment: a
    context may prevent its traversal.  ``goal`` carries the
    (prototype) literal a retrieval arc would look up, and ``rule`` the
    rule a reduction arc follows; both are optional for synthetic
    graphs.

    ``blocked_cost`` implements Note 4's extension — "the cost of
    traversing an arc [may] depend on … the success or failure of that
    traversal" [OG90]: a blocked attempt is charged ``blocked_cost``
    instead of ``cost`` (a failed index probe is often cheaper than a
    successful scan, or dearer when it exhausts an overflow chain).
    It defaults to ``cost``, recovering the paper's symmetric model.
    """

    __slots__ = ("name", "source", "target", "kind", "cost", "blockable",
                 "rule", "goal", "blocked_cost")

    def __init__(
        self,
        name: str,
        source: Node,
        target: Node,
        kind: ArcKind,
        cost: float = 1.0,
        blockable: Optional[bool] = None,
        rule: Optional[Rule] = None,
        goal: Optional[Atom] = None,
        blocked_cost: Optional[float] = None,
    ):
        if cost <= 0:
            raise GraphError(f"arc {name!r} must have positive cost, got {cost}")
        self.name = name
        self.source = source
        self.target = target
        self.kind = kind
        self.cost = float(cost)
        # Retrievals are always experiments; reductions only when flagged.
        if blockable is None:
            blockable = kind is ArcKind.RETRIEVAL
        if kind is ArcKind.RETRIEVAL and not blockable:
            raise GraphError(f"retrieval arc {name!r} must be blockable")
        self.blockable = bool(blockable)
        if blocked_cost is None:
            blocked_cost = self.cost
        elif blocked_cost <= 0:
            raise GraphError(
                f"arc {name!r} must have positive blocked_cost, got {blocked_cost}"
            )
        elif not self.blockable:
            raise GraphError(
                f"arc {name!r} is not blockable; blocked_cost is meaningless"
            )
        self.blocked_cost = float(blocked_cost)
        self.rule = rule
        self.goal = goal

    def expected_attempt_cost(self, success_probability: float) -> float:
        """Mean charge for one attempt: ``p·f + (1−p)·f_blocked``."""
        if not self.blockable:
            return self.cost
        return (
            success_probability * self.cost
            + (1.0 - success_probability) * self.blocked_cost
        )

    def __repr__(self) -> str:
        return (
            f"Arc({self.name!r}, {self.source.name!r} -> {self.target.name!r}, "
            f"{self.kind.value}, cost={self.cost})"
        )

    def __str__(self) -> str:
        return self.name


class InferenceGraph:
    """A tree-shaped inference graph (the paper's class ``AOT``).

    Construct via :class:`GraphBuilder` (or
    :func:`repro.graphs.builder.build_inference_graph` from a rule
    base).  The graph is immutable once built; arc iteration order is
    declaration order, which doubles as the default depth-first,
    left-to-right strategy (the paper's ``Θ_ABCD``).
    """

    def __init__(self, root: Node, nodes: Sequence[Node], arcs: Sequence[Arc]):
        self.root = root
        self._nodes: Dict[str, Node] = {}
        self._arcs: Dict[str, Arc] = {}
        self._children: Dict[str, List[Arc]] = {}
        self._incoming: Dict[str, Arc] = {}

        for node in nodes:
            if node.name in self._nodes:
                raise GraphError(f"duplicate node name {node.name!r}")
            self._nodes[node.name] = node
            self._children[node.name] = []
        if root.name not in self._nodes:
            raise GraphError("root must be among the nodes")

        for arc in arcs:
            if arc.name in self._arcs:
                raise GraphError(f"duplicate arc name {arc.name!r}")
            for endpoint in (arc.source, arc.target):
                if self._nodes.get(endpoint.name) is not endpoint:
                    raise GraphError(
                        f"arc {arc.name!r} references unknown node {endpoint.name!r}"
                    )
            if arc.target.name in self._incoming:
                raise GraphError(
                    f"node {arc.target.name!r} has two incoming arcs; "
                    "tree-shaped graphs need a unique path to every node"
                )
            if arc.target is self.root:
                raise GraphError("no arc may point back at the root")
            self._arcs[arc.name] = arc
            self._children[arc.source.name].append(arc)
            self._incoming[arc.target.name] = arc

        self._validate()
        # f* and F¬ are used as Chernoff *ranges* by the learners, so
        # under Note 4's asymmetric costs they conservatively charge
        # each arc max(f, f_blocked); with symmetric costs (the paper's
        # model) this is exactly the printed definition.
        self._f_star: Dict[str, float] = {}
        self._total_cost = sum(
            max(arc.cost, arc.blocked_cost) for arc in self._arcs.values()
        )
        for arc in reversed(list(self._arcs.values())):
            below = sum(
                self._f_star[child.name] for child in self._children[arc.target.name]
            )
            self._f_star[arc.name] = max(arc.cost, arc.blocked_cost) + below
        self._probes = self._compile_probes()

    def _compile_probes(self) -> Dict[str, ProbeTemplate]:
        """Each blockable arc's test as a :data:`ProbeTemplate`.

        A retrieval tests its own goal and a blockable reduction its
        source node's goal.  Every variable of the root goal becomes the
        position of the query argument it stands for; constants and
        rule-local variables stay.  Filling query arguments in by
        position keeps the query's variables apart from the root
        goal's even where their names coincide, which unifying the
        root goal with the query would not.

        A blockable reduction's rule head, renamed apart, specializes
        its source goal: it binds a goal variable to a constant, or two
        of them to one.  Walking down from the root, each such head's
        unifier with its source goal is applied to the root goal, and
        the result, with the root goal's variables renamed apart, is
        the head test of every blockable arc at or below it.  Fresh
        variables come from one factory and skip every variable of the
        graph's goals; no parsed text names them.
        """
        root_goal = self.root.goal
        positions: Dict[Variable, int] = {}
        if root_goal is not None:
            for index, arg in enumerate(root_goal.args):
                if type(arg) is Variable:
                    positions.setdefault(arg, index)
        taken = {var for item in (*self._nodes.values(), *self._arcs.values())
                 if item.goal is not None for var in item.goal.variables()}
        factory = fresh_variable_factory()

        def apart(atom: Atom, variables) -> Atom:
            renaming = {}
            for var in variables:
                fresh = factory(var.name)
                while fresh in taken:
                    fresh = factory(var.name)
                renaming[var] = fresh
            return atom.substitute(Substitution(renaming))

        probes: Dict[str, ProbeTemplate] = {}
        stack: List[Tuple[Node, Optional[Atom]]] = [(self.root, None)]
        while stack:
            node, heads = stack.pop()
            for arc in self._children[node.name]:
                goal = arc.goal if arc.kind is ArcKind.RETRIEVAL else node.goal
                below = heads
                if (arc.blockable and arc.rule is not None
                        and goal is not None and root_goal is not None):
                    head = arc.rule.head
                    unifier = unify(apart(head, head.variables()), goal)
                    if unifier is None:
                        raise GraphError(
                            f"rule head of arc {arc.name!r} does not unify "
                            f"with its source goal {goal}"
                        )
                    below = (heads or root_goal).substitute(unifier)
                if arc.blockable and goal is not None:
                    probes[arc.name] = (goal.predicate, tuple(
                        positions.get(arg, arg) for arg in goal.args
                    ), None if below is None else apart(below, positions))
                stack.append((arc.target, below))
        return probes

    def _validate(self) -> None:
        """Check connectivity and the retrieval/success invariants."""
        reached: Set[str] = set()
        stack = [self.root.name]
        while stack:
            name = stack.pop()
            if name in reached:
                raise GraphError("inference graph contains a cycle")
            reached.add(name)
            stack.extend(arc.target.name for arc in self._children[name])
        unreachable = set(self._nodes) - reached
        if unreachable:
            raise GraphError(
                f"nodes unreachable from root: {sorted(unreachable)}"
            )
        for arc in self._arcs.values():
            if arc.kind is ArcKind.RETRIEVAL:
                if not arc.target.is_success:
                    raise GraphError(
                        f"retrieval arc {arc.name!r} must end in a success node"
                    )
                if self._children[arc.target.name]:
                    raise GraphError(
                        f"success node {arc.target.name!r} must be a leaf"
                    )
            elif arc.target.is_success:
                raise GraphError(
                    f"reduction arc {arc.name!r} may not end in a success node"
                )

    # ------------------------------------------------------------------
    # Access
    # ------------------------------------------------------------------

    def node(self, name: str) -> Node:
        """Look up a node by name."""
        return self._nodes[name]

    def arc(self, name: str) -> Arc:
        """Look up an arc by name."""
        return self._arcs[name]

    def arcs(self) -> List[Arc]:
        """All arcs in declaration (depth-first, left-to-right) order."""
        return list(self._arcs.values())

    def nodes(self) -> List[Node]:
        """All nodes in declaration order."""
        return list(self._nodes.values())

    def children(self, node: Node) -> List[Arc]:
        """Outgoing arcs of ``node`` in declaration order."""
        return list(self._children[node.name])

    def incoming(self, node: Node) -> Optional[Arc]:
        """The unique arc into ``node`` (``None`` for the root)."""
        return self._incoming.get(node.name)

    def parent_arc(self, arc: Arc) -> Optional[Arc]:
        """The arc whose traversal makes ``arc`` attemptable."""
        return self._incoming.get(arc.source.name)

    def retrieval_arcs(self) -> List[Arc]:
        """All database-retrieval arcs, in declaration order."""
        return [a for a in self._arcs.values() if a.kind is ArcKind.RETRIEVAL]

    def experiments(self) -> List[Arc]:
        """All blockable arcs (Theorem 3's probabilistic experiments)."""
        return [a for a in self._arcs.values() if a.blockable]

    def probe_template(self, arc: Arc) -> ProbeTemplate:
        """The compiled test of blockable ``arc`` (see :meth:`probe`)."""
        template = self._probes.get(arc.name)
        if template is None:
            raise GraphError(f"blockable arc {arc.name!r} has no goal pattern")
        return template

    def probe(self, arc: Arc, query: Atom) -> Atom:
        """The atom blockable ``arc`` tests for a concrete ``query``: a
        retrieval's goal, or a blockable reduction's source goal, with
        the query's arguments in place of the root goal's variables.
        Under a blockable reduction the template's head test binds it
        further (see :data:`ProbeTemplate`)."""
        predicate, specs, _heads = self.probe_template(arc)
        args = query.args
        return Atom._make(predicate, tuple([
            args[spec] if type(spec) is int else spec for spec in specs
        ]))

    def is_simple_disjunctive(self) -> bool:
        """Whether only retrieval arcs are experiments (Note 4's class)."""
        return all(
            a.kind is ArcKind.RETRIEVAL or not a.blockable
            for a in self._arcs.values()
        )

    # ------------------------------------------------------------------
    # Derived cost functions (Note 5)
    # ------------------------------------------------------------------

    @property
    def total_cost(self) -> float:
        """Sum of all arc costs."""
        return self._total_cost

    def f(self, arc: Arc) -> float:
        """The arc-cost function ``f`` of Section 2.1."""
        return arc.cost

    def f_star(self, arc: Arc) -> float:
        """``f*(a)``: cost of ``a`` plus all arcs below it (Note 5)."""
        return self._f_star[arc.name]

    def subtree_arcs(self, arc: Arc) -> List[Arc]:
        """``arc`` and every arc below it, in declaration order."""
        members: List[Arc] = []
        frontier = [arc]
        while frontier:
            current = frontier.pop()
            members.append(current)
            frontier.extend(self._children[current.target.name])
        order = {a.name: i for i, a in enumerate(self._arcs.values())}
        members.sort(key=lambda a: order[a.name])
        return members

    def ancestors(self, arc: Arc) -> List[Arc]:
        """Arcs strictly above ``arc`` on its root path, topmost first.

        This is the paper's ``Π(e)`` (Definition 1): the sequence of
        arcs descending from the root down to, but not including, ``e``.
        """
        chain: List[Arc] = []
        current = self.parent_arc(arc)
        while current is not None:
            chain.append(current)
            current = self.parent_arc(current)
        chain.reverse()
        return chain

    def pi(self, arc: Arc) -> List[Arc]:
        """Alias for :meth:`ancestors`, in the paper's ``Π(e)`` notation."""
        return self.ancestors(arc)

    def f_not(self, arc: Arc) -> float:
        """``F¬(a)``: total cost of arcs on paths *other* than ``a``'s.

        Note 5's examples fix the meaning: for ``G_A``,
        ``F¬[D_g] = f(R_p) + f(D_p)``.  Equivalently, it is the total
        graph cost minus the arcs on root-to-leaf paths through ``a``
        (its ancestors, itself, and its descendants).
        """
        on_path = sum(max(a.cost, a.blocked_cost) for a in self.ancestors(arc))
        on_path += self._f_star[arc.name]
        return self._total_cost - on_path

    def depth(self, arc: Arc) -> int:
        """Number of arcs above ``arc`` (0 for a top-level arc)."""
        return len(self.ancestors(arc))

    def __repr__(self) -> str:
        return (
            f"InferenceGraph(root={self.root.name!r}, "
            f"{len(self._nodes)} nodes, {len(self._arcs)} arcs)"
        )

    def pretty(self) -> str:
        """An indented text rendering of the tree, for debugging."""
        lines: List[str] = [self.root.name]

        def walk(node: Node, indent: int) -> None:
            for arc in self._children[node.name]:
                marker = "[]" if arc.target.is_success else arc.target.name
                lines.append(
                    "  " * indent
                    + f"--{arc.name} (f={arc.cost:g}"
                    + (", blockable" if arc.blockable else "")
                    + f")--> {marker}"
                )
                walk(arc.target, indent + 1)

        walk(self.root, 1)
        return "\n".join(lines)


class GraphBuilder:
    """Fluent constructor for tree-shaped inference graphs.

    >>> b = GraphBuilder("instructor")
    >>> b.reduction("Rp", "instructor", "prof")
    >>> b.retrieval("Dp", "prof")
    >>> b.reduction("Rg", "instructor", "grad")
    >>> b.retrieval("Dg", "grad")
    >>> g_a = b.build()

    Nodes are created on first mention.  Declaration order fixes the
    default strategy order.
    """

    def __init__(self, root_name: str, root_goal: Optional[Atom] = None):
        self._root = Node(root_name, goal=root_goal)
        self._nodes: Dict[str, Node] = {root_name: self._root}
        self._node_order: List[Node] = [self._root]
        self._arcs: List[Arc] = []
        self._success_counter = 0

    def _get_node(self, name: str, goal: Optional[Atom] = None) -> Node:
        if name not in self._nodes:
            node = Node(name, goal=goal)
            self._nodes[name] = node
            self._node_order.append(node)
        return self._nodes[name]

    def reduction(
        self,
        name: str,
        source: str,
        target: str,
        cost: float = 1.0,
        blockable: bool = False,
        rule: Optional[Rule] = None,
        goal: Optional[Atom] = None,
        blocked_cost: Optional[float] = None,
    ) -> "GraphBuilder":
        """Add a rule-reduction arc ``source -> target``."""
        arc = Arc(
            name,
            self._get_node(source),
            self._get_node(target, goal=goal),
            ArcKind.REDUCTION,
            cost=cost,
            blockable=blockable,
            rule=rule,
            goal=goal,
            blocked_cost=blocked_cost,
        )
        self._arcs.append(arc)
        return self

    def retrieval(
        self,
        name: str,
        source: str,
        cost: float = 1.0,
        goal: Optional[Atom] = None,
        blocked_cost: Optional[float] = None,
    ) -> "GraphBuilder":
        """Add a database-retrieval arc from ``source`` to a fresh success box."""
        self._success_counter += 1
        success = Node(f"_success_{self._success_counter}", is_success=True)
        self._nodes[success.name] = success
        self._node_order.append(success)
        arc = Arc(
            name,
            self._get_node(source),
            success,
            ArcKind.RETRIEVAL,
            cost=cost,
            goal=goal,
            blocked_cost=blocked_cost,
        )
        self._arcs.append(arc)
        return self

    def build(self) -> InferenceGraph:
        """Finalize and validate the graph."""
        return InferenceGraph(self._root, self._node_order, self._arcs)
