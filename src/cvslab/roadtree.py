"""Road-network tree environment.

A rooted tree of junction and terminal nodes, with edges of integer distance.
An edge of distance ``d`` expands into ``d - 1`` intermediate "road" states
with a single action each, so the agent drives a long, decision-free stretch
between junctions.  Reward is delivered on entering a junction or terminal
node (the node's own reward; the root's is never delivered); road states pay
zero.  Entering a terminal node ends the episode: the step fuses the node's
reward with the move into the shared TERMINAL sink, so terminal-node states
are indexed but never occupied.

Criticality is 1 at junctions, terminal nodes and the sink (states where the
outcome hinges on a choice or has just been decided) and 0 on road states.
"""

from __future__ import annotations

from collections import Counter
from dataclasses import dataclass
from functools import cached_property

import numpy as np

from .core import CriticalityFn, Draws, Environment, StateId, Transition, _finite_real, _is_int

KIND_JUNCTION = "junction"
KIND_TERMINAL = "terminal"


def _integer(value) -> int:
    if not _is_int(value):
        raise ValueError(f"must be an integer, got {value!r}")
    return value


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
    """Declarative tree description; the edge order of a parent fixes its action order."""

    root: int
    nodes: tuple[TreeNode, ...]
    edges: tuple[TreeEdge, ...]

    @cached_property
    def _node_by_id(self) -> dict[int, TreeNode]:
        by_id: dict[int, TreeNode] = {}
        for n in self.nodes:
            by_id.setdefault(n.id, n)  # the first of duplicate ids, as a scan finds
        return by_id

    @cached_property
    def _edges_by_parent(self) -> dict[int, list[TreeEdge]]:
        by_parent: dict[int, list[TreeEdge]] = {}
        for e in self.edges:
            by_parent.setdefault(e.parent, []).append(e)
        return by_parent

    def node(self, node_id: int) -> TreeNode:
        try:
            return self._node_by_id[node_id]
        except KeyError:
            raise KeyError(f"no node {node_id}") from None

    def children(self, node_id: int) -> list[TreeEdge]:
        return list(self._edges_by_parent.get(node_id, ()))

    def validate(self) -> None:
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
        # Walk from the root: catches cycles and disconnected nodes in one pass.
        seen = {self.root}
        frontier = [self.root]
        while frontier:
            nxt = []
            for p in frontier:
                for e in self.children(p):
                    if e.child in seen:
                        raise ValueError(f"node {e.child} closes a cycle")
                    seen.add(e.child)
                    nxt.append(e.child)
            frontier = nxt
        unreachable = known - seen
        if unreachable:
            raise ValueError(f"node {min(unreachable)} is unreachable from the root")
        for n in self.nodes:
            has_children = bool(self.children(n.id))
            if n.kind == KIND_JUNCTION and not has_children:
                raise ValueError(f"junction node {n.id} has no children")
            if n.kind == KIND_TERMINAL and has_children:
                raise ValueError(f"terminal node {n.id} has children")

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
            spec = cls(root=read(doc, "", "root", _integer), nodes=nodes, edges=edges)
        except (KeyError, TypeError, ValueError) as exc:
            raise ValueError(f"malformed tree document: {exc}") from exc
        spec.validate()
        return spec


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
    """
    if k < 1:
        raise ValueError(f"k must be >= 1, got {k}")
    if distance < 1:
        raise ValueError(f"distance must be >= 1, got {distance}")
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

    Each state keeps its row of transitions, one per action (so its action
    count is the row's length), and its criticality.  :meth:`node_state`
    gives the state of a declared node; the sink is the last state.
    """

    def __init__(self, tree: TreeSpec):
        tree.validate()
        self.tree = tree
        table: list[list[Transition]] = []  # state -> action -> its transition
        crit: list[float] = []

        def new_state(h: float) -> StateId:
            table.append([])
            crit.append(h)
            return len(table) - 1

        # Every non-root node adds its edge's d - 1 road states plus its own,
        # so the sink, allocated last, gets this id.
        sink = 1 + sum(e.distance for e in tree.edges)
        node_state = {tree.root: new_state(1.0)}
        # junction state -> per action (child node reward, child junction state
        # or None for a terminal child): the tree with its roads contracted.
        moves: dict[StateId, list[tuple[float, StateId | None]]] = {}
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
                    table[last].append(Transition(0.0, road, False))
                    last = road
                child = tree.node(e.child)
                c_state = node_state[child.id] = new_state(1.0)
                if child.kind == KIND_TERMINAL:
                    table[last].append(Transition(child.reward, sink, True))
                    moves[p_state].append((child.reward, None))
                else:
                    table[last].append(Transition(child.reward, c_state, False))
                    moves[p_state].append((child.reward, c_state))
                    order.append(child.id)
        new_state(1.0)

        self._node_state = node_state
        self._sink = sink
        self._table = table
        self._crit = crit
        self.junction_moves = moves

    @property
    def num_states(self) -> int:
        return len(self._table)

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

    def step(self, s: StateId, a: int, rng: Draws) -> Transition:
        if not 0 <= s < self._sink:
            if s == self._sink:
                raise ValueError("cannot step from the TERMINAL state")
            raise ValueError(f"state {s} out of range")
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
    independent check on them.  Ties prefer the lower action index.
    """

    tree = env.tree

    def best_from(node_id: int) -> tuple[float, list[int]]:
        edges = tree.children(node_id)
        if not edges:
            return 0.0, []
        best_val = -np.inf
        best_path: list[int] = []
        for idx, e in enumerate(edges):
            child = tree.node(e.child)
            sub_val, sub_path = best_from(child.id)
            val = child.reward + sub_val
            if val > best_val:
                best_val = val
                best_path = [idx] + sub_path
        return float(best_val), best_path

    return best_from(tree.root)
