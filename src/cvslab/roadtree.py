"""Road-network tree environment.

A rooted tree of junction and terminal nodes, with edges of integer distance.
An edge of distance ``d`` expands into ``d - 1`` intermediate "road" states
with a single action each, so the agent drives a long, decision-free stretch
between junctions.  Reward is delivered on entering a junction or terminal
node (the node's own reward; the root's is never delivered); road states pay
zero.  Entering a terminal node ends the episode: the step pays the node's
reward and moves into the shared TERMINAL sink, so a terminal node has no
state of its own.  The states are the junctions and the roads, then the sink.

Criticality is 1 at junctions and the sink (states where the outcome hinges
on a choice or has just been decided) and 0 on road states.
"""

from __future__ import annotations

import math
from collections import Counter
from dataclasses import dataclass
from functools import cached_property

from .core import CriticalityFn, Draws, Environment, StateId
from .core import _finite_real, _integer, _positive_int, _setting, _state_error

KIND_JUNCTION = "junction"
KIND_TERMINAL = "terminal"


@dataclass(frozen=True)
class TreeNode:
    id: int
    reward: float
    kind: str


@dataclass(frozen=True)
class TreeEdge:
    parent: int
    child: int
    distance: int


@dataclass(frozen=True)
class TreeSpec:
    """Declarative tree description; the edge order of a parent fixes its action order.

    Checked when built: a malformed tree raises a ``ValueError`` naming its first offender."""

    root: int
    nodes: tuple[TreeNode, ...]
    edges: tuple[TreeEdge, ...]

    def __post_init__(self) -> None:
        ids = [n.id for n in self.nodes]
        if len(set(ids)) != len(ids):
            counts = Counter(ids)
            dup = next(i for i in ids if counts[i] > 1)
            raise ValueError(f"duplicate node id {dup}")
        known = set(ids)
        if self.root not in known:
            raise ValueError(f"root node {self.root} is not declared")
        if self.node(self.root).kind != KIND_JUNCTION:
            raise ValueError(f"root node {self.root} must be a junction")
        for n in self.nodes:
            if n.kind not in (KIND_JUNCTION, KIND_TERMINAL):
                raise ValueError(f"node {n.id} has unknown kind {n.kind!r}")
        parents: dict[int, int] = {}
        for e in self.edges:
            if e.parent not in known:
                raise ValueError(f"edge parent {e.parent} is not a declared node")
            if e.child not in known:
                raise ValueError(f"edge child {e.child} is not a declared node")
            if e.distance < 1:
                raise ValueError(f"edge {e.parent}->{e.child} has distance {e.distance} < 1")
            if e.child == self.root:
                raise ValueError(f"root node {self.root} cannot be a child")
            if e.child in parents:
                raise ValueError(f"node {e.child} has more than one parent")
            parents[e.child] = e.parent
        # The root reaching a cycle would give one of its nodes two parents,
        # so a cycle shows here as unreachable.
        unreachable = known.difference(self._order)
        if unreachable:
            raise ValueError(f"node {min(unreachable)} is unreachable from the root")
        for n in self.nodes:
            has_children = n.id in self._edges_by_parent
            if n.kind == KIND_JUNCTION and not has_children:
                raise ValueError(f"junction node {n.id} has no children")
            if n.kind == KIND_TERMINAL and has_children:
                raise ValueError(f"terminal node {n.id} has children")

    @cached_property
    def _node_by_id(self) -> dict[int, TreeNode]:
        return {n.id: n for n in self.nodes}

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

    def node(self, node_id: int) -> TreeNode:
        try:
            return self._node_by_id[node_id]
        except KeyError:
            raise KeyError(f"no node {node_id}") from None

    def children(self, node_id: int) -> list[TreeEdge]:
        return list(self._edges_by_parent.get(node_id, ()))

    def to_dict(self) -> dict:
        return {
            "root": self.root,
            "nodes": [{"id": n.id, "reward": n.reward, "kind": n.kind} for n in self.nodes],
            "edges": [
                {"parent": e.parent, "child": e.child, "distance": e.distance} for e in self.edges
            ],
        }

    @classmethod
    def from_dict(cls, doc: dict) -> "TreeSpec":
        """Ids, ``root`` and distances must be ints and rewards finite real
        numbers, bools being neither; the error names a bad entry."""

        def read(entry: dict, prefix: str, key: str, convert):
            try:
                return convert(entry[key])
            except ValueError as exc:
                raise ValueError(f"{prefix}{key} {exc}") from None

        try:
            nodes = tuple(
                TreeNode(
                    read(n, f"nodes[{i}].", "id", _integer),
                    read(n, f"nodes[{i}].", "reward", _finite_real),
                    str(n["kind"]),
                )
                for i, n in enumerate(doc["nodes"])
            )
            edges = tuple(
                TreeEdge(
                    read(e, f"edges[{i}].", "parent", _integer),
                    read(e, f"edges[{i}].", "child", _integer),
                    read(e, f"edges[{i}].", "distance", _integer),
                )
                for i, e in enumerate(doc["edges"])
            )
            root = read(doc, "", "root", _integer)
        except (KeyError, TypeError, ValueError) as exc:
            raise ValueError(f"malformed tree document: {exc}") from exc
        return cls(root=root, nodes=nodes, edges=edges)  # a structural fault raises here


# ----------------------------------------------------------------------
# Built-in trees
# ----------------------------------------------------------------------


def fig1_tree() -> TreeSpec:
    """Two-level tree: a long zero-reward road hides the big payoff."""
    return TreeSpec(
        root=0,
        nodes=(
            TreeNode(0, 0.0, KIND_JUNCTION),
            TreeNode(1, 0.0, KIND_JUNCTION),
            TreeNode(2, 1.0, KIND_JUNCTION),
            TreeNode(3, 0.0, KIND_TERMINAL),
            TreeNode(4, 7.0, KIND_TERMINAL),
            TreeNode(5, 1.0, KIND_TERMINAL),
            TreeNode(6, 1.0, KIND_TERMINAL),
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


def fig3_tree() -> TreeSpec:
    """One junction, a short cheap branch against a long branch worth double."""
    return TreeSpec(
        root=0,
        nodes=(
            TreeNode(0, 0.0, KIND_JUNCTION),
            TreeNode(1, 1.0, KIND_TERMINAL),
            TreeNode(2, 2.0, KIND_TERMINAL),
        ),
        edges=(TreeEdge(0, 1, 10), TreeEdge(0, 2, 50)),
    )


def fig4_tree() -> TreeSpec:
    """Like fig3 but with equally long branches."""
    return TreeSpec(
        root=0,
        nodes=(
            TreeNode(0, 0.0, KIND_JUNCTION),
            TreeNode(1, 1.0, KIND_TERMINAL),
            TreeNode(2, 2.0, KIND_TERMINAL),
        ),
        edges=(TreeEdge(0, 1, 50), TreeEdge(0, 2, 50)),
    )


def fig6_tree(k: int = 10, distance: int = 10) -> TreeSpec:
    """Three-level tree where the richer junction hides one good child among ``k`` traps.

    The left junction pays 0 and leads to children worth 0 and 1; the right
    junction pays 1 and fans out into ``k`` children worth -2 plus a single
    child worth +1 (the last action).  Every edge has the same ``distance``.
    Both are positive integers; a bad one raises a ``ConfigError`` naming it.
    """
    k = _setting("k", k, _positive_int)
    distance = _setting("distance", distance, _positive_int)
    nodes = [
        TreeNode(0, 0.0, KIND_JUNCTION),
        TreeNode(1, 0.0, KIND_JUNCTION),
        TreeNode(2, 1.0, KIND_JUNCTION),
        TreeNode(3, 0.0, KIND_TERMINAL),
        TreeNode(4, 1.0, KIND_TERMINAL),
    ]
    edges = [
        TreeEdge(0, 1, distance),
        TreeEdge(0, 2, distance),
        TreeEdge(1, 3, distance),
        TreeEdge(1, 4, distance),
    ]
    next_id = 5
    for _ in range(k):
        nodes.append(TreeNode(next_id, -2.0, KIND_TERMINAL))
        edges.append(TreeEdge(2, next_id, distance))
        next_id += 1
    nodes.append(TreeNode(next_id, 1.0, KIND_TERMINAL))
    edges.append(TreeEdge(2, next_id, distance))
    return TreeSpec(root=0, nodes=tuple(nodes), edges=tuple(edges))


BUILTIN_TREES = {
    "fig1": fig1_tree,
    "fig3": fig3_tree,
    "fig4": fig4_tree,
    "fig6": fig6_tree,
}


# ----------------------------------------------------------------------
# Environment
# ----------------------------------------------------------------------


class RoadTreeEnv(Environment):
    """Expanded tabular MDP for a :class:`TreeSpec`.

    Each state keeps its criticality and a row of ``(reward, next_state)``
    steps, one per action.  :meth:`node_state` gives the state of a declared
    junction; the sink is the last state.
    """

    def __init__(self, tree: TreeSpec):
        self.tree = tree
        table: list[list[tuple[float, StateId]]] = []  # state -> action -> its step
        crit: list[float] = []

        def new_state(h: float) -> StateId:
            table.append([])
            crit.append(h)
            return len(table) - 1

        # Every junction and every edge's d - 1 road states get a state, so
        # the sink, allocated last, gets this id.
        junctions = sum(n.kind == KIND_JUNCTION for n in tree.nodes)
        sink = junctions + sum(e.distance - 1 for e in tree.edges)
        node_state = {tree.root: new_state(1.0)}
        # junction state -> per action (child node reward, child junction state
        # or the sink): the tree with its roads contracted.
        moves: dict[StateId, list[tuple[float, StateId]]] = {}
        # Junctions are expanded in allocation order, each edge's chain and
        # child right after the previous edge's, so a parent's action k
        # follows its k-th declared edge.
        order = [tree.root]
        for p in order:  # grows as junction children are allocated
            p_state = node_state[p]
            moves[p_state] = []
            for e in tree.children(p):
                last = p_state
                for _ in range(e.distance - 1):
                    road = new_state(0.0)
                    table[last].append((0.0, road))
                    last = road
                child = tree.node(e.child)
                if child.kind == KIND_TERMINAL:
                    entered = sink
                else:
                    entered = node_state[child.id] = new_state(1.0)
                    order.append(child.id)
                table[last].append((child.reward, entered))
                moves[p_state].append((child.reward, entered))
        crit.append(1.0)  # the sink's, which has no row of steps

        self._node_state = node_state
        self._sink = sink
        self._table = table
        self._crit = crit
        self.junction_moves = moves

    @property
    def terminal(self) -> StateId:
        return self._sink

    @property
    def root_state(self) -> StateId:
        return self._node_state[self.tree.root]

    def node_state(self, node_id: int) -> StateId:
        return self._node_state[node_id]

    def action_layout(self) -> tuple[int, dict[StateId, int]]:
        width = max(map(len, self._table))
        return width, {s: len(row) for s, row in enumerate(self._table) if len(row) < width}

    def reset(self, rng: Draws) -> StateId:
        return self.root_state

    def step(self, s: StateId, a: int, rng: Draws) -> tuple[float, StateId]:
        if not 0 <= s < self._sink:
            raise _state_error(self._sink, s, "cannot step from the TERMINAL state")
        row = self._table[s]
        if not 0 <= a < len(row):
            raise ValueError(f"action {a} invalid for state {s}")
        return row[a]

    def criticality(self) -> CriticalityFn:
        crit = self._crit

        def h(s: StateId) -> float:
            return crit[s]

        return h


def optimal_return_oracle(env: RoadTreeEnv) -> tuple[float, list[int]]:
    """Exhaustive best undiscounted root-to-terminal return and its action path.

    Walks the declared tree, not the expanded dynamics, so it can serve as an
    independent check on them.  Ties prefer the lower action index.  The walk
    is iterative (children are solved before their parent), so a tree of any
    depth works.
    """
    tree = env.tree
    # node -> (best return below it, its action or None at a leaf)
    best: dict[int, tuple[float, int | None]] = {}
    for node_id in reversed(tree._order):
        edges = tree.children(node_id)
        best_val, best_idx = (-math.inf if edges else 0.0), None
        for idx, e in enumerate(edges):
            val = tree.node(e.child).reward + best[e.child][0]
            if val > best_val:
                best_val, best_idx = val, idx
        best[node_id] = float(best_val), best_idx
    path: list[int] = []
    node_id = tree.root
    while (idx := best[node_id][1]) is not None:
        path.append(idx)
        node_id = tree.children(node_id)[idx].child
    return best[tree.root][0], path
