"""Road-network tree environment.

A rooted tree with edges of integer distance: a node that edges leave is a
junction, and a node that none leave is a terminal node.  An edge of distance
``d`` expands into ``d - 1`` intermediate "road" states with a single action
each, so the agent drives a long, decision-free stretch between junctions.
Reward is delivered on entering a junction or terminal node (the node's own
reward; the root's is never delivered); road states pay zero.  Entering a
terminal node ends the episode: the step pays the node's reward and moves
into the shared TERMINAL sink, so a terminal node has no state of its own.
The states are the junctions and the roads, then the sink.

Criticality is 1 at junctions and the sink (states where the outcome hinges
on a choice or has just been decided) and 0 on road states.
"""

from __future__ import annotations

__all__ = [
    "RoadTreeEnv", "TreeEdge", "TreeNode", "TreeSpec", "fig1_tree", "fig3_tree", "fig4_tree", "fig6_tree",
    "optimal_return_oracle",
]

import math
from dataclasses import asdict, dataclass, fields
from functools import cached_property
from operator import itemgetter

from .core import ConfigError, CriticalityFn, Draws, Environment, StateId
from .core import _finite_real, _integer, _positive_int, _setting, _state_error


@dataclass(frozen=True)
class TreeNode:
    """A node and the reward paid on entering it; it is a junction if edges leave it."""

    id: int
    reward: float


@dataclass(frozen=True)
class TreeEdge:
    parent: int
    child: int
    distance: int


@dataclass(frozen=True)
class TreeSpec:
    """Declarative tree description; the edge order of a parent fixes its action order.

    Checked when built: ids, ``root`` and distances must be ints and rewards
    finite real numbers, bools being neither, and a field that is not raises a
    ``ConfigError`` naming it (``edges[0].distance``).  A malformed tree raises
    a ``ValueError`` naming its offender; the root must have children.  The
    first fault is named, each node in order, then ``root``, then each edge."""

    root: int
    nodes: tuple[TreeNode, ...]
    edges: tuple[TreeEdge, ...]

    def __post_init__(self) -> None:
        known: set[int] = set()
        for i, n in enumerate(self.nodes):
            _setting(f"nodes[{i}].id", n.id, _integer)
            _setting(f"nodes[{i}].reward", n.reward, _finite_real)
            if n.id in known:
                raise ValueError(f"duplicate node id {n.id}")
            known.add(n.id)
        _setting("root", self.root, _integer)
        if self.root not in known:
            raise ValueError(f"root node {self.root} is not declared")
        children: set[int] = set()
        for i, e in enumerate(self.edges):
            for key in ("parent", "child", "distance"):
                _setting(f"edges[{i}].{key}", getattr(e, key), _integer)
            if e.parent not in known:
                raise ValueError(f"edge parent {e.parent} is not a declared node")
            if e.child not in known:
                raise ValueError(f"edge child {e.child} is not a declared node")
            if e.distance < 1:
                raise ValueError(f"edge {e.parent}->{e.child} has distance {e.distance} < 1")
            if e.child == self.root:
                raise ValueError(f"root node {self.root} cannot be a child")
            if e.child in children:
                raise ValueError(f"node {e.child} has more than one parent")
            children.add(e.child)
        if self.root not in self._edges_by_parent:
            raise ValueError(f"root node {self.root} has no children")
        # A cycle the root reached would give a node two parents, so a cycle shows as unreachable.
        unreachable = known.difference(self._order)
        if unreachable:
            raise ValueError(f"node {min(unreachable)} is unreachable from the root")

    @cached_property
    def _edges_by_parent(self) -> dict[int, list[TreeEdge]]:
        by_parent: dict[int, list[TreeEdge]] = {}
        for e in self.edges:
            by_parent.setdefault(e.parent, []).append(e)
        return by_parent

    @cached_property
    def _order(self) -> list[int]:
        """The ids the root reaches, each after its parent; each node has at
        most one parent and the root none, so the walk meets each once."""
        order = [self.root]
        for node_id in order:  # grows: every node after its parent
            order.extend(e.child for e in self._edges_by_parent.get(node_id, ()))
        return order

    def to_dict(self) -> dict:
        return {"root": self.root, "nodes": [asdict(n) for n in self.nodes], "edges": [asdict(e) for e in self.edges]}

    @classmethod
    def from_dict(cls, doc: dict) -> "TreeSpec":
        """The tree of a document in the layout of :meth:`to_dict`, its values
        taken as they are.  A key it does not read, such as the ``kind`` that
        older documents give each node, is ignored.  A document that is not an
        object raises ``ValueError("must be an object")``, a missing entry or a
        wrong container a ``ConfigError`` naming it (``nodes[1].id: missing``,
        ``edges: must be a list of objects``), and a bad value or tree what
        building the tree raises."""
        root, nodes, edges = _entries("root", "nodes", "edges")(doc)
        return cls(root, _records("nodes", nodes, TreeNode), _records("edges", edges, TreeEdge))


def _entries(*keys):
    """A converter from an object to its values of ``keys``, in order; a
    missing one raises a ``ConfigError`` naming it."""
    get = itemgetter(*keys)

    def entries(doc) -> tuple:
        if not isinstance(doc, dict):
            raise ValueError("must be an object")
        try:
            return get(doc)
        except KeyError as exc:
            raise ConfigError(exc.args[0], "missing") from None

    return entries


def _records(key: str, items, cls) -> tuple:
    """A ``cls`` from the entries its fields name in each object of the list
    ``items``, which the document names ``key``; a bad one raises a
    ``ConfigError`` naming it (``key[i]``)."""
    if not isinstance(items, (list, tuple)):
        raise ConfigError(key, "must be a list of objects")
    entries = _entries(*(f.name for f in fields(cls)))
    record = lambda d: cls(*entries(d))
    return tuple(_setting(f"{key}[{i}]", item, record) for i, item in enumerate(items))


# The most Q-table values a road tree from a config may have: a row for each
# junction, road state and the sink, each as wide as the widest junction.
# 2**20 doubles are 8 MiB of address range, resident only where written; the
# env itself keeps nothing per state, so its size grows with the junctions only.
_MAX_TABLE = 1 << 20


def _check_table(key: str, got: str, states: int, width: int) -> None:
    """Raise a ``ConfigError`` naming ``key`` if ``states`` rows of ``width``
    actions exceed ``_MAX_TABLE`` values; ``got`` is what made them."""
    if states * width > _MAX_TABLE:
        raise ConfigError(
            key, f"must keep the Q-table within {_MAX_TABLE} values, got {got} ({states} states x {width} actions)"
        )


def _config_tree(tree) -> TreeSpec:
    """The tree of a ``tree`` document, whose Q-table keeps within
    ``_MAX_TABLE`` values.  A tree too big at distance 1 blames ``tree``;
    otherwise the first edge, in declared order, whose road states take the
    table over the bound blames its ``distance``."""
    spec = _setting("tree", tree, TreeSpec.from_dict)
    junctions = len(spec._edges_by_parent)
    width = max(map(len, spec._edges_by_parent.values()))
    states = junctions + 1
    _check_table("tree", f"{junctions} junctions at distance 1", states, width)
    for i, e in enumerate(spec.edges):
        states += e.distance - 1
        _check_table(f"tree.edges[{i}].distance", repr(e.distance), states, width)
    return spec


# ----------------------------------------------------------------------
# Built-in trees
# ----------------------------------------------------------------------


def fig1_tree() -> TreeSpec:
    """Two-level tree: a long zero-reward road hides the big payoff."""
    return TreeSpec(
        root=0,
        nodes=(
            TreeNode(0, 0.0),
            TreeNode(1, 0.0),
            TreeNode(2, 1.0),
            TreeNode(3, 0.0),
            TreeNode(4, 7.0),
            TreeNode(5, 1.0),
            TreeNode(6, 1.0),
        ),
        edges=(
            TreeEdge(0, 1, 20),
            TreeEdge(0, 2, 10),
            TreeEdge(1, 3, 10),
            TreeEdge(1, 4, 15),
            TreeEdge(2, 5, 15),
            TreeEdge(2, 6, 15),
        ),
    )


def _one_junction_tree(left: int) -> TreeSpec:
    """A root junction with a branch of length ``left`` worth 1 and one of 50 worth 2."""
    return TreeSpec(
        root=0,
        nodes=(TreeNode(0, 0.0), TreeNode(1, 1.0), TreeNode(2, 2.0)),
        edges=(TreeEdge(0, 1, left), TreeEdge(0, 2, 50)),
    )


def fig3_tree() -> TreeSpec:
    """One junction, a short cheap branch against a long branch worth double."""
    return _one_junction_tree(10)


def fig4_tree() -> TreeSpec:
    """Like fig3 but with equally long branches."""
    return _one_junction_tree(50)


def fig6_tree(k: int = 10, distance: int = 10) -> TreeSpec:
    """Three-level tree where the richer junction hides one good child among ``k`` traps.

    The left junction pays 0 and leads to children worth 0 and 1; the right
    junction pays 1 and fans out into ``k`` children worth -2 plus a single
    child worth +1 (the last action).  Every edge has the same ``distance``.
    Both are positive integers; a bad one, or a pair that overflows the
    Q-table bound, raises a ``ConfigError`` naming it.
    """
    k = _setting("k", k, _positive_int)
    distance = _setting("distance", distance, _positive_int)
    # Three junctions and the sink, k + 1 actions wide, then distance - 1 road
    # states on each of the k + 5 edges; checked before a node is built.
    _check_table("k", repr(k), 4, k + 1)
    _check_table("distance", repr(distance), 4 + (k + 5) * (distance - 1), k + 1)
    nodes = [
        TreeNode(0, 0.0),
        TreeNode(1, 0.0),
        TreeNode(2, 1.0),
        TreeNode(3, 0.0),
        TreeNode(4, 1.0),
    ]
    edges = [
        TreeEdge(0, 1, distance),
        TreeEdge(0, 2, distance),
        TreeEdge(1, 3, distance),
        TreeEdge(1, 4, distance),
    ]
    next_id = 5
    for _ in range(k):
        nodes.append(TreeNode(next_id, -2.0))
        edges.append(TreeEdge(2, next_id, distance))
        next_id += 1
    nodes.append(TreeNode(next_id, 1.0))
    edges.append(TreeEdge(2, next_id, distance))
    return TreeSpec(root=0, nodes=tuple(nodes), edges=tuple(edges))


# ----------------------------------------------------------------------
# Environment
# ----------------------------------------------------------------------


class RoadTreeEnv(Environment):
    """Expanded tabular MDP for a :class:`TreeSpec`.

    Each edge's road states take consecutive ids, so a state steps to
    ``(0.0, s + 1)`` under its one action unless its row of steps is listed
    (a junction's or a chain end's).  The root's state is the first and the
    sink the last; a junction's state is the one its parent's move enters
    (``junction_moves[parent][action][1]``).  It keeps per junction its moves
    (``junction_moves``, the contracted tree that ``h``, the layout and the
    oracle read) and its row for ``step``, and nothing per state or node.
    """

    root_state: StateId = 0

    def __init__(self, tree: TreeSpec):
        by_parent = tree._edges_by_parent
        reward = {n.id: n.reward for n in tree.nodes}
        # Every junction (a node with edges) and every edge's d - 1 road
        # states get a state, so the sink, allocated last, gets this id.
        sink = len(by_parent) + sum(e.distance - 1 for e in tree.edges)
        rows: dict[StateId, list[tuple[float, StateId]]] = {}  # state -> action -> its step
        node_state = {tree.root: self.root_state}
        # junction state -> per action (child node reward, child junction state
        # or the sink): the tree with its roads contracted.
        moves: dict[StateId, list[tuple[float, StateId]]] = {}
        free = 1  # the next id to allocate; the root's is 0
        # The walk from the root meets each junction after its parent, which
        # allocated its state; terminal nodes have none.  Each edge's chain
        # and child follow the previous edge's, so a parent's action k
        # follows its k-th declared edge.
        for p in tree._order:
            p_state = node_state.get(p)
            if p_state is None:
                continue
            rows[p_state], moves[p_state] = [], []
            for e in by_parent[p]:
                road = range(free, free + e.distance - 1)
                free = road.stop
                if e.child in by_parent:
                    node_state[e.child], free = free, free + 1
                step = (reward[e.child], node_state.get(e.child, sink))
                moves[p_state].append(step)
                rows[p_state].append((0.0, road.start) if road else step)
                if road:
                    rows[road[-1]] = [step]

        self._sink = sink
        # keep the rows the road rule does not give; -0.0 == 0.0, so a signed zero is kept by its sign
        self._rows = {s: r for s, r in rows.items() if r != [(0.0, s + 1)] or math.copysign(1.0, r[0][0]) < 0}
        self.junction_moves = moves

    @property
    def terminal(self) -> StateId:
        return self._sink

    def action_layout(self) -> tuple[int, dict[StateId, int], int]:
        counts = {s: len(row) for s, row in self.junction_moves.items() if len(row) > 1}
        return max(counts.values(), default=1), counts, 1

    def reset(self, rng: Draws) -> StateId:
        return self.root_state

    def step(self, s: StateId, a: int, rng: Draws) -> tuple[float, StateId]:
        if s not in self._rows and 0 <= s < self._sink and a == 0:
            return 0.0, s + 1
        row = self._rows.get(s, ())
        if 0 <= a < len(row):
            return row[a]
        if not 0 <= s < self._sink:
            raise _state_error(self._sink, s, "cannot step from the TERMINAL state")
        raise ValueError(f"action {a} invalid for state {s}")

    def criticality(self) -> CriticalityFn:  # 1 at the junctions and the sink, 0 on the roads
        moves, sink = self.junction_moves, self._sink
        return lambda s: 1.0 if s in moves or s == sink else 0.0


def optimal_return_oracle(env: RoadTreeEnv) -> tuple[float, list[int]]:
    """Exhaustive best undiscounted root-to-terminal return and its action path.

    Solves ``env.junction_moves``, the tree with its roads contracted, whose
    road states pay exactly 0.0.  Each return is summed from the root down,
    starting at 0.0, as a rollout adds it, so the value equals the return of
    replaying the path bit for bit.  Ties prefer the lower action index.
    Both passes are loops over the junctions, so a tree of any depth works.
    """
    moves, sink = env.junction_moves, env.terminal
    # junction -> the return paid on the way to it; a parent comes before its children
    paid = {env.root_state: 0.0}
    for s, row in moves.items():
        for reward, child in row:
            if child != sink:
                paid[child] = paid[s] + reward
    # junction -> (its best leaf total, the first action that reaches it)
    best: dict[StateId, tuple[float, int]] = {}
    for s in reversed(moves):
        best_total, best_a = -math.inf, 0
        for a, (reward, child) in enumerate(moves[s]):
            total = paid[s] + reward if child == sink else best[child][0]
            if total > best_total:
                best_total, best_a = total, a
        best[s] = best_total, best_a
    path: list[int] = []
    s = env.root_state
    while s != sink:
        path.append(best[s][1])
        s = moves[s][path[-1]][1]
    return best[env.root_state][0], path
