from __future__ import annotations

import json
import math
import time
import tracemalloc

import numpy as np
import pytest
from hypothesis import given, settings

from cvslab import (
    ConfigError,
    ExperimentConfig,
    QTable,
    RoadTreeEnv,
    TreeEdge,
    TreeNode,
    TreeSpec,
    fig1_tree,
    fig3_tree,
    fig4_tree,
    fig6_tree,
    optimal_return_oracle,
    run_experiment,
)
from references import reference_road_tree
from strategies import road_trees

ALL_TREES = {
    "fig1": fig1_tree(),
    "fig3": fig3_tree(),
    "fig4": fig4_tree(),
    "fig6": fig6_tree(),
}


def action_counts(env: RoadTreeEnv) -> list[int]:
    """The action count of each state below the sink, read from the action
    layout."""
    _, counts, default = env.action_layout()
    return [counts.get(s, default) for s in range(env.terminal)]


def walk(env: RoadTreeEnv) -> dict[int, set[tuple[float, int]]]:
    """Each state below the sink reachable from the root, mapped to the set
    of its steps."""
    counts = action_counts(env)
    steps: dict[int, set[tuple[float, int]]] = {}
    frontier = [env.reset(None)]
    while frontier:
        s = frontier.pop()
        if s in steps or s == env.terminal:
            continue
        steps[s] = {env.step(s, a, None) for a in range(counts[s])}
        frontier.extend(s2 for _, s2 in steps[s])
    return steps


def road_states(tree: TreeSpec) -> list[int]:
    """The states of the per-state reference that are neither a junction's
    nor the sink."""
    rows, node_state, _, _ = reference_road_tree(tree)
    return sorted(set(range(len(rows))).difference(node_state.values()))


def test_fig1_state_layout():
    env = RoadTreeEnv(fig1_tree())
    _, node_state, _, _ = reference_road_tree(fig1_tree())
    # six edges with distances 20/10/10/15/15/15 expand into 79 road states;
    # the four leaves have no states, their steps end in the sink
    assert (len(road_states(fig1_tree())), sorted(node_state)) == (79, [0, 1, 2])
    assert env.terminal + 1 == 83
    assert action_counts(env)[env.root_state] == 2


def test_fig3_state_layout():
    env = RoadTreeEnv(fig3_tree())
    assert len(road_states(fig3_tree())) == 9 + 49
    assert env.terminal + 1 == 60
    assert action_counts(env)[env.root_state] == 2


def test_road_states_have_one_action():
    counts = action_counts(RoadTreeEnv(fig1_tree()))
    assert [counts[s] for s in road_states(fig1_tree())] == [1] * 79


def test_reset_returns_root():
    env = RoadTreeEnv(fig3_tree())
    rng = np.random.default_rng(0)
    assert env.reset(rng) == env.root_state
    assert reference_road_tree(fig3_tree())[1][fig3_tree().root] == env.root_state


def replay(env: RoadTreeEnv, actions: list[int]) -> tuple[float, int]:
    """Drive the action path from the root; junction choices come from
    ``actions``, road states take their only action."""
    rng = np.random.default_rng(0)
    counts = action_counts(env)
    s = env.reset(rng)
    total = 0.0
    steps = 0
    it = iter(actions)
    while True:
        a = next(it) if counts[s] > 1 else 0
        r, s = env.step(s, a, rng)
        total += r
        steps += 1
        if s == env.terminal:
            return total, steps


def test_fig1_path_rewards_and_lengths():
    env = RoadTreeEnv(fig1_tree())
    # root -> node 1 (d 20) -> node 4 (d 15): rewards 0 then 7
    assert replay(env, [0, 1]) == (7.0, 35)
    # root -> node 2 (d 10, reward 1) -> node 5 (d 15, reward 1)
    assert replay(env, [1, 0]) == (2.0, 25)
    assert replay(env, [0, 0]) == (0.0, 30)


def test_terminal_entry_fuses_reward_and_sink():
    env = RoadTreeEnv(fig3_tree())
    rng = np.random.default_rng(0)
    s = env.reset(rng)
    for _ in range(9):
        r, s = env.step(s, 0, rng)
        assert r == 0.0
        assert s != env.terminal
    # the ninth road step arrived at the last road state before the leaf
    assert env.step(s, 0, rng) == (1.0, env.terminal)


def test_step_guards():
    env = RoadTreeEnv(fig3_tree())
    rng = np.random.default_rng(0)
    with pytest.raises(ValueError):
        env.step(env.terminal, 0, rng)
    with pytest.raises(ValueError):
        env.step(env.root_state, 2, rng)


def test_criticality_marks_roads_zero():
    env = RoadTreeEnv(fig1_tree())
    h = env.criticality()
    roads = road_states(fig1_tree())
    assert [h(s) for s in range(env.terminal + 1)] == [0.0 if s in roads else 1.0 for s in range(env.terminal + 1)]


@pytest.mark.parametrize("name", sorted(ALL_TREES))
def test_criticality_is_one_exactly_where_the_action_matters(name):
    # A tree's h is structural: 1 exactly at the reachable states where two
    # actions give different steps, 0 elsewhere.
    env = RoadTreeEnv(ALL_TREES[name])
    h = env.criticality()
    steps = walk(env)
    assert sorted(steps) == list(range(env.terminal))
    for s, out in steps.items():
        assert h(s) == (1.0 if len(out) > 1 else 0.0), s


@given(tree=road_trees())
def test_layout_lists_states_below_the_sink_and_each_is_reachable(tree):
    env = RoadTreeEnv(tree)
    width, counts, default = env.action_layout()
    assert all(0 <= s < env.terminal and 1 <= k <= width and k != default for s, k in counts.items())
    assert sorted(walk(env)) == list(range(env.terminal))


def enumerate_paths(tree: TreeSpec) -> list[tuple[float, list[int]]]:
    """All root-to-leaf (return, action path) pairs, brute force, lowest
    actions first.  Each return is summed from the root down, starting at
    0.0, as a rollout adds it.  Reads ``tree.nodes`` and ``tree.edges`` only."""
    reward = {n.id: n.reward for n in tree.nodes}
    children: dict[int, list[int]] = {}
    for e in tree.edges:
        children.setdefault(e.parent, []).append(e.child)

    def below(node_id: int, paid: float, path: list[int]) -> list[tuple[float, list[int]]]:
        if node_id not in children:
            return [(paid, path)]
        return [p for a, c in enumerate(children[node_id]) for p in below(c, paid + reward[c], path + [a])]

    return below(tree.root, 0.0, [])


def check_oracle_against_enumeration(tree: TreeSpec) -> None:
    """The oracle's value is the brute-force maximum and its path the first
    best path in enumeration order (lowest actions first)."""
    value, path = optimal_return_oracle(RoadTreeEnv(tree))
    paths = enumerate_paths(tree)
    best = max(v for v, _ in paths)
    assert value == best
    assert path == next(p for v, p in paths if v == best)


@pytest.mark.parametrize("name", sorted(ALL_TREES))
def test_oracle_agrees_with_exhaustive_enumeration(name):
    check_oracle_against_enumeration(ALL_TREES[name])


@given(tree=road_trees())
def test_oracle_agrees_with_exhaustive_enumeration_on_random_trees(tree):
    # The strategy numbers nodes depth-first, so the oracle's reversed
    # breadth-first walk is exercised.  Its rewards are integers, so every
    # sum is exact; in tenths they are not, and the order of the sums counts.
    check_oracle_against_enumeration(tree)
    tenths = tuple(TreeNode(n.id, n.reward / 10) for n in tree.nodes)
    check_oracle_against_enumeration(TreeSpec(tree.root, tenths, tree.edges))


def tenths_tree() -> TreeSpec:
    """A chain worth 0.1, 0.2 and 0.3 against a leaf worth 0: summed from the
    root down, as a rollout adds it, the chain pays 0.6000000000000001, and
    summed from the leaf up 0.6."""
    return TreeSpec(
        root=0,
        nodes=(TreeNode(0, 0.0), TreeNode(1, 0.1), TreeNode(2, 0.2), TreeNode(3, 0.3), TreeNode(4, 0.0)),
        edges=(TreeEdge(0, 1, 2), TreeEdge(1, 2, 2), TreeEdge(2, 3, 2), TreeEdge(0, 4, 2)),
    )


@pytest.mark.parametrize("name", [*sorted(ALL_TREES), "tenths"])
def test_oracle_path_replays_to_its_value(name):
    env = RoadTreeEnv({**ALL_TREES, "tenths": tenths_tree()}[name])
    value, path = optimal_return_oracle(env)
    total, _steps = replay(env, path)
    assert total == value


@pytest.mark.parametrize("name", sorted(ALL_TREES))
def test_every_leaf_path_matches_declared_rewards(name):
    tree = ALL_TREES[name]
    env = RoadTreeEnv(tree)
    for want, path in enumerate_paths(tree):
        got, _ = replay(env, path)
        assert got == want


def test_fig6_fan_out():
    tree = fig6_tree(k=3, distance=2)
    env = RoadTreeEnv(tree)
    right = env.junction_moves[env.root_state][1][1]  # node 2's state
    assert action_counts(env)[right] == 4
    value, path = optimal_return_oracle(env)
    assert value == 2.0
    assert path == [1, 3]


def test_wide_tree_builds_in_linear_time():
    # Scanning the node and edge lists once per node or edge made this take
    # about 38 s on a 2-core Xeon, against 0.1 s indexed.  The tree has 4
    # states, so its 20001-wide table is 640 032 bytes.
    k = 20_000
    start = time.perf_counter()
    env = RoadTreeEnv(fig6_tree(k=k, distance=1))
    value, path = optimal_return_oracle(env)
    q = QTable.for_env(env)
    assert time.perf_counter() - start < 10.0
    assert q._values.nbytes == 4 * (k + 1) * 8
    assert (value, path) == (2.0, [1, k])
    width, counts, default = env.action_layout()
    assert width == k + 1
    assert counts[env.junction_moves[env.root_state][1][1]] == width  # node 2's state


def junction_chain(n: int) -> TreeSpec:
    """``n`` junctions in a line.  Junction ``i`` exits (action 0) to a
    terminal worth 0 or goes on (action 1) to junction ``i + 1``, worth 1;
    the last one's action 1 reaches a terminal worth 1.  Every edge has
    distance 1, so the best return is ``n``, by taking action 1 ``n`` times."""
    nodes = [TreeNode(i, float(i > 0)) for i in range(n)]
    nodes += [TreeNode(n + i, 0.0) for i in range(n)]
    nodes.append(TreeNode(2 * n, 1.0))
    edges = []
    for i in range(n):
        edges += [TreeEdge(i, n + i, 1), TreeEdge(i, i + 1 if i < n - 1 else 2 * n, 1)]
    return TreeSpec(root=0, nodes=tuple(nodes), edges=tuple(edges))


def test_oracle_solves_a_tree_deeper_than_the_recursion_limit():
    n = 2_000
    tree = junction_chain(n)
    assert optimal_return_oracle(RoadTreeEnv(tree)) == (float(n), [1] * n)
    cfg = ExperimentConfig({"name": "roadtree", "tree": tree.to_dict()}, episodes=1, runs=1)
    (result,) = run_experiment(cfg)
    assert len(result.returns) == len(result.greedy_optimal) == 1


def test_fig6_rejects_bad_arguments():
    # At k = 10 the Q-table holds (4 + 15 (distance - 1)) x 11 values:
    # distance 6355 keeps within 2**20 of them, 6356 does not.
    assert len(fig6_tree(k=10, distance=6355).edges) == 15
    cases = [
        ({"k": 0}, "k"),
        ({"k": True}, "k"),
        ({"k": 2.5}, "k"),
        ({"distance": 0}, "distance"),
        ({"k": 10, "distance": 6356}, "distance"),
        ({"k": 2**18, "distance": 1}, "k"),  # 4 x (2**18 + 1) values
        ({"k": 10**5, "distance": 2}, "distance"),  # k alone fits at distance 1
        ({"k": 10**12, "distance": 10**12}, "k"),  # k alone does not; no node is built
    ]
    for kwargs, key in cases:
        with pytest.raises(ConfigError) as info:
            fig6_tree(**kwargs)
        assert info.value.key == key, kwargs


def test_tree_spec_round_trip():
    tree = fig6_tree(k=4, distance=3)
    again = TreeSpec.from_dict(tree.to_dict())
    assert again == tree
    assert TreeSpec.from_dict(json.loads(json.dumps(tree.to_dict()))) == tree


def nodes_doc(*rows):
    return [{"id": i, "reward": reward} for i, reward in rows]


def edges_doc(*rows):
    return [{"parent": p, "child": c, "distance": d} for p, c, d in rows]


TREE_DOCS = {
    "fig1": (
        fig1_tree(),
        {
            "root": 0,
            "nodes": nodes_doc((0, 0.0), (1, 0.0), (2, 1.0), (3, 0.0), (4, 7.0), (5, 1.0), (6, 1.0)),
            "edges": edges_doc((0, 1, 20), (0, 2, 10), (1, 3, 10), (1, 4, 15), (2, 5, 15), (2, 6, 15)),
        },
    ),
    "fig6-k2-d3": (
        fig6_tree(k=2, distance=3),
        {
            "root": 0,
            "nodes": nodes_doc((0, 0.0), (1, 0.0), (2, 1.0), (3, 0.0), (4, 1.0), (5, -2.0), (6, -2.0), (7, 1.0)),
            "edges": edges_doc(
                (0, 1, 3), (0, 2, 3), (1, 3, 3), (1, 4, 3), (2, 5, 3), (2, 6, 3), (2, 7, 3)
            ),
        },
    ),
}


@pytest.mark.parametrize("name", sorted(TREE_DOCS))
def test_tree_spec_to_dict_is_pinned(name):
    tree, doc = TREE_DOCS[name]
    assert tree.to_dict() == doc
    # the same key order and value types: a JSON dump compares both
    assert json.dumps(tree.to_dict()) == json.dumps(doc)


def test_tree_spec_from_file(tmp_path):
    path = tmp_path / "tree.json"
    path.write_text(json.dumps(fig3_tree().to_dict()))
    assert TreeSpec.from_dict(json.loads(path.read_text())) == fig3_tree()


@given(tree=road_trees())
def test_tree_spec_dict_round_trip_on_random_trees(tree):
    doc = tree.to_dict()
    assert TreeSpec.from_dict(doc) == tree
    assert TreeSpec.from_dict(json.loads(json.dumps(doc))) == tree


def node(i, reward=0.0):
    return TreeNode(i, reward)


@pytest.mark.parametrize(
    "spec, fragment",
    [
        (
            (0, (node(0), node(1), node(1)), (TreeEdge(0, 1, 1),)),
            "duplicate node id 1",
        ),
        ((9, (node(0), node(1)), (TreeEdge(0, 1, 1),)), "root node 9"),
        ((0, (node(0), node(1)), (TreeEdge(0, 7, 1),)), "edge child 7"),
        ((0, (node(0), node(1)), (TreeEdge(5, 1, 1),)), "edge parent 5"),
        (
            (0, (node(0), node(1)), (TreeEdge(0, 1, 0),)),
            "distance 0",
        ),
        (
            (0, (node(0), node(1), node(2)), (TreeEdge(0, 1, 1), TreeEdge(1, 2, 1), TreeEdge(1, 0, 1))),
            "cannot be a child",
        ),
        (
            (
                0,
                (node(0), node(1), node(2)),
                (TreeEdge(0, 1, 1), TreeEdge(0, 2, 1), TreeEdge(1, 2, 1)),
            ),
            "more than one parent",
        ),
        (
            (0, (node(0), node(1), node(2)), (TreeEdge(0, 1, 1),)),
            "unreachable",
        ),
        ((0, (node(0), node(1)), ()), "^root node 0 has no children$"),
        (  # a cycle detached from a valid tree
            (
                0,
                (node(0), node(1), node(2), node(3)),
                (TreeEdge(0, 1, 1), TreeEdge(2, 3, 1), TreeEdge(3, 2, 1)),
            ),
            "^node 2 is unreachable from the root$",
        ),
    ],
)
def test_tree_spec_validation_names_offender(spec, fragment):
    """``spec`` holds a malformed tree's fields; building it raises."""
    with pytest.raises(ValueError, match=fragment):
        TreeSpec(*spec)


@pytest.mark.parametrize(
    "fields, message",
    [
        ((0, (node(0), node(1)), (TreeEdge(0, 1, 2.5),)), "edges[0].distance: must be an integer, got 2.5"),
        ((0, (node(0), node(1)), (TreeEdge(0, 1, 3.0),)), "edges[0].distance: must be an integer, got 3.0"),
        ((0, (node(0), node(1)), (TreeEdge(0, 1, True),)), "edges[0].distance: must be an integer, got True"),
        ((0, (node(0), node(1)), (TreeEdge(0.0, 1, 1),)), "edges[0].parent: must be an integer, got 0.0"),
        ((0, (node(0), node(1)), (TreeEdge(0, "1", 1),)), "edges[0].child: must be an integer, got '1'"),
        ((0, (node(0), node(1, math.nan)), (TreeEdge(0, 1, 1),)), "nodes[1].reward: must be a finite number, got nan"),
        ((0, (node(0), node(1, math.inf)), (TreeEdge(0, 1, 1),)), "nodes[1].reward: must be a finite number, got inf"),
        ((0, (node(0), node(1, -math.inf)), (TreeEdge(0, 1, 1),)), "nodes[1].reward: must be a finite number, got -inf"),
        ((0, (node(0), node(1, False)), (TreeEdge(0, 1, 1),)), "nodes[1].reward: must be a finite number, got False"),
        ((0, (node(0), node(1.5)), (TreeEdge(0, 1.5, 1),)), "nodes[1].id: must be an integer, got 1.5"),
        ((True, (node(1), node(2)), (TreeEdge(1, 2, 1),)), "root: must be an integer, got True"),
        ((1.0, (node(1), node(2)), (TreeEdge(1, 2, 1),)), "root: must be an integer, got 1.0"),
    ],
)
def test_tree_spec_checks_field_types_and_names_offender(fields, message):
    # such a tree used to build, or fail only in RoadTreeEnv with a TypeError
    with pytest.raises(ConfigError) as info:
        TreeSpec(*fields)
    assert str(info.value) == message
    assert info.value.key == message.split(":")[0]


@pytest.mark.parametrize(
    "spec, message",
    [
        ((0, (node(0), node(1), node(1)), (TreeEdge(0, 1, 2.5),)), "duplicate node id 1"),
        ((0, (node(0), node(2), node(2), node(0)), (TreeEdge(0, 2, 1),)), "duplicate node id 2"),
        ((9, (node(0), node(1)), (TreeEdge(0, 1, "3"),)), "root node 9 is not declared"),
        (
            (0, (node(0), node(1), node(2)), (TreeEdge(0, 5, 1), TreeEdge(0, 2, 2.5))),
            "edge child 5 is not a declared node",
        ),
    ],
)
def test_tree_spec_names_its_first_fault_nodes_then_root_then_edges(spec, message):
    # Two faults each: the first met, each node in order, then the root, then
    # each edge (its fields, then its tree rules), is the one named.
    with pytest.raises(ValueError) as info:
        TreeSpec(*spec)
    assert type(info.value) is ValueError
    assert str(info.value) == message


def test_from_dict_rejects_malformed_documents():
    # a missing entry or a wrong container is named, not Python's own message
    node = {"id": 0, "reward": 0.0}
    malformed = [
        ({"root": 0}, "nodes: missing"),
        ({"nodes": [], "edges": []}, "root: missing"),
        ({"root": 0, "nodes": [{"id": 0}], "edges": []}, "nodes[0].reward: missing"),
        ({"root": 0, "nodes": [node, {"reward": 1.0}], "edges": []}, "nodes[1].id: missing"),
        ({"root": 0, "nodes": [[0, 0.0]], "edges": []}, "nodes[0]: must be an object"),
        ({"root": 0, "nodes": {"id": 0}, "edges": []}, "nodes: must be a list of objects"),
        ({"root": 0, "nodes": [node], "edges": 5}, "edges: must be a list of objects"),
        ({"root": 0, "nodes": [node], "edges": [{"parent": 0, "child": 1}]}, "edges[0].distance: missing"),
    ]
    for doc, message in malformed:
        with pytest.raises(ConfigError) as info:
            TreeSpec.from_dict(doc)
        assert str(info.value) == message
    with pytest.raises(ValueError, match="^must be an object$"):
        TreeSpec.from_dict([fig3_tree().to_dict()])
    # ids, root and distances are ints, rewards finite reals; bools are neither
    bad = [
        ("nodes", "reward", "nan"),
        ("nodes", "reward", float("inf")),
        ("nodes", "reward", True),
        ("nodes", "id", 0.7),
        ("edges", "parent", False),
        ("edges", "child", "1"),
        ("edges", "distance", 2.9),
        ("edges", "distance", "3"),
    ]
    for part, key, value in bad:
        doc = fig3_tree().to_dict()
        doc[part][0][key] = value
        with pytest.raises(ConfigError, match=rf"^{part}\[0\]\.{key}: must be "):
            TreeSpec.from_dict(doc)
    with pytest.raises(ConfigError, match="^root: must be an integer"):
        TreeSpec.from_dict({**fig3_tree().to_dict(), "root": True})
    # a well-formed document that is not a tree raises the tree's own message
    doc = fig3_tree().to_dict()
    doc["nodes"][2]["id"] = 1
    with pytest.raises(ValueError, match="^duplicate node id 1$"):
        TreeSpec.from_dict(doc)


def signed_zero_tree() -> TreeSpec:
    """Junctions and terminals worth -0.0 and +0.0, each behind a road, so a
    step must keep the sign of the reward it pays."""
    return TreeSpec(
        root=0,
        nodes=(node(0), node(1, -0.0), node(2, 0.0), node(3, -0.0), node(4, 0.0), node(5, -0.0)),
        edges=(TreeEdge(0, 1, 3), TreeEdge(0, 2, 2), TreeEdge(1, 3, 2), TreeEdge(1, 4, 1), TreeEdge(2, 5, 4)),
    )


REFERENCE_TREES = {
    "fig1": fig1_tree,
    "fig3": fig3_tree,
    "fig4": fig4_tree,
    "fig6": fig6_tree,
    "fig6-k1-d1": lambda: fig6_tree(k=1, distance=1),
    "fig6-k2-d777": lambda: fig6_tree(k=2, distance=777),
    "fig6-k1-d87381": lambda: fig6_tree(k=1, distance=87381),  # the config bound, 524 284 states
    "signed zeros": signed_zero_tree,
}


def check_against_per_state_reference(tree: TreeSpec) -> None:
    """Every step, action count, ``h`` and junction move (so each junction's
    state) of ``RoadTreeEnv(tree)`` and its layout's width equal the
    per-state reference's, and a step from the sink, from an id out of range
    or with action -1 or the first action a state lacks raises."""
    env = RoadTreeEnv(tree)
    rows, _, moves, h = reference_road_tree(tree)
    sink = len(rows)
    assert env.terminal == sink
    width, counts, default = env.action_layout()
    assert width == max(map(len, rows))
    assert [counts.get(s, default) for s in range(sink)] == [*map(len, rows)]
    # repr tells -0.0 from 0.0, an int from a float and a list from a tuple
    steps = [env.step(s, a, None) for s, row in enumerate(rows) for a in range(len(row))]
    assert repr(steps) == repr([step for row in rows for step in row])
    crit = env.criticality()
    assert repr([crit(s) for s in range(sink + 1)]) == repr(h)
    assert repr(env.junction_moves) == repr(moves)
    with pytest.raises(ValueError, match="^cannot step from the TERMINAL state$"):
        env.step(sink, 0, None)
    for s in (-1, sink + 1):
        with pytest.raises(ValueError, match=f"^state {s} out of range$"):
            env.step(s, 0, None)
    errors = []
    bad = [(s, a) for s, row in enumerate(rows) for a in (-1, len(row))]  # len(row) is 1 on a road state
    for s, a in bad:
        try:
            env.step(s, a, None)
        except ValueError as exc:
            errors.append(str(exc))
    assert errors == [f"action {a} invalid for state {s}" for s, a in bad]


@pytest.mark.parametrize("name", sorted(REFERENCE_TREES))
def test_dynamics_match_the_per_state_reference(name):
    check_against_per_state_reference(REFERENCE_TREES[name]())


@settings(max_examples=200)
@given(tree=road_trees())
def test_dynamics_match_the_per_state_reference_on_random_trees(tree):
    check_against_per_state_reference(tree)


@pytest.mark.parametrize("k, distance", [(1, 87381), (10, 6355)])
def test_a_tree_at_the_table_bound_builds_in_a_few_mib(k, distance):
    # Nothing a built tree or its table keeps grows with the roads: the peak
    # is about 3 KiB at k=1, distance=87381 (524 284 states), where any list
    # of 8 B a state would take 4 MiB.
    spec = fig6_tree(k=k, distance=distance)
    tracemalloc.start()
    try:
        env = RoadTreeEnv(spec)
        QTable.for_env(env)
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    assert peak < 64 * 2**10
    layout = env.action_layout()
    assert len(layout[1]) == 3  # the three junctions
    assert QTable(layout, env.terminal)._counts is layout[1]
