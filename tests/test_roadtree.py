from __future__ import annotations

import json
import time
from collections import Counter

import numpy as np
import pytest
from hypothesis import given

from cvslab import (
    ConfigError,
    ExperimentConfig,
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
from cvslab.roadtree import KIND_JUNCTION, KIND_TERMINAL
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
    width, narrow = env.action_layout()
    return [narrow.get(s, width) for s in range(env.terminal)]


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


def test_fig1_state_layout():
    env = RoadTreeEnv(fig1_tree())
    counts = Counter(reference_tables(fig1_tree())[0])
    # six edges with distances 20/10/10/15/15/15 expand into 79 road states;
    # the four leaves have no states, their steps end in the sink
    assert counts == {"road": 79, KIND_JUNCTION: 3, "sink": 1}
    assert env.num_states == 83
    assert action_counts(env)[env.root_state] == 2


def test_fig3_state_layout():
    env = RoadTreeEnv(fig3_tree())
    assert Counter(reference_tables(fig3_tree())[0])["road"] == 9 + 49
    assert env.num_states == 60
    assert action_counts(env)[env.root_state] == 2


def test_road_states_have_one_action():
    env = RoadTreeEnv(fig1_tree())
    kinds = reference_tables(fig1_tree())[0]
    assert kinds[-1] == "sink"
    for kind, k in zip(kinds[:-1], action_counts(env), strict=True):
        if kind == "road":
            assert k == 1


def test_reset_returns_root():
    env = RoadTreeEnv(fig3_tree())
    rng = np.random.default_rng(0)
    assert env.reset(rng) == env.root_state
    assert reference_tables(fig3_tree())[0][env.root_state] == KIND_JUNCTION


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
    for s, kind in enumerate(reference_tables(fig1_tree())[0]):
        assert h(s) == (0.0 if kind == "road" else 1.0)


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
    width, narrow = env.action_layout()
    assert all(0 <= s < env.terminal and 1 <= k < width for s, k in narrow.items())
    assert sorted(walk(env)) == list(range(env.terminal))


def enumerate_paths(tree: TreeSpec, node_id: int) -> list[tuple[float, list[int]]]:
    """All root-to-leaf (return, action path) pairs, brute force."""
    edges = tree.children(node_id)
    if not edges:
        return [(0.0, [])]
    out = []
    for idx, e in enumerate(edges):
        child = tree.node(e.child)
        for sub_val, sub_path in enumerate_paths(tree, child.id):
            out.append((child.reward + sub_val, [idx] + sub_path))
    return out


def check_oracle_against_enumeration(tree: TreeSpec) -> None:
    """The oracle's value is the brute-force maximum and its path the first
    best path in enumeration order (lowest actions first)."""
    value, path = optimal_return_oracle(RoadTreeEnv(tree))
    paths = enumerate_paths(tree, tree.root)
    best = max(v for v, _ in paths)
    assert value == best
    assert path == next(p for v, p in paths if v == best)


@pytest.mark.parametrize("name", sorted(ALL_TREES))
def test_oracle_agrees_with_exhaustive_enumeration(name):
    check_oracle_against_enumeration(ALL_TREES[name])


@given(tree=road_trees())
def test_oracle_agrees_with_exhaustive_enumeration_on_random_trees(tree):
    # integer rewards, so every sum is exact; the strategy numbers nodes
    # depth-first, so the oracle's reversed breadth-first walk is exercised
    check_oracle_against_enumeration(tree)


@pytest.mark.parametrize("name", sorted(ALL_TREES))
def test_oracle_path_replays_to_its_value(name):
    env = RoadTreeEnv(ALL_TREES[name])
    value, path = optimal_return_oracle(env)
    total, _steps = replay(env, path)
    assert total == value


@pytest.mark.parametrize("name", sorted(ALL_TREES))
def test_every_leaf_path_matches_declared_rewards(name):
    tree = ALL_TREES[name]
    env = RoadTreeEnv(tree)
    for want, path in enumerate_paths(tree, tree.root):
        got, _ = replay(env, path)
        assert got == want


def test_fig6_fan_out():
    tree = fig6_tree(k=3, distance=2)
    env = RoadTreeEnv(tree)
    right = env.node_state(2)
    assert action_counts(env)[right] == 4
    value, path = optimal_return_oracle(env)
    assert value == 2.0
    assert path == [1, 3]


def test_wide_tree_builds_in_linear_time():
    # Scanning the node and edge lists once per node or edge made this take
    # about 38 s on a 2-core Xeon, against 0.1 s indexed.  No QTable: its
    # 20001-wide -inf padding would fault in GBs.
    k = 20_000
    start = time.perf_counter()
    env = RoadTreeEnv(fig6_tree(k=k, distance=1))
    value, path = optimal_return_oracle(env)
    assert time.perf_counter() - start < 10.0
    assert (value, path) == (2.0, [1, k])
    width, narrow = env.action_layout()
    assert width == k + 1
    assert env.node_state(2) not in narrow


def junction_chain(n: int) -> TreeSpec:
    """``n`` junctions in a line.  Junction ``i`` exits (action 0) to a
    terminal worth 0 or goes on (action 1) to junction ``i + 1``, worth 1;
    the last one's action 1 reaches a terminal worth 1.  Every edge has
    distance 1, so the best return is ``n``, by taking action 1 ``n`` times."""
    nodes = [TreeNode(i, float(i > 0), KIND_JUNCTION) for i in range(n)]
    nodes += [TreeNode(n + i, 0.0, KIND_TERMINAL) for i in range(n)]
    nodes.append(TreeNode(2 * n, 1.0, KIND_TERMINAL))
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
    cases = [
        ({"k": 0}, "k"),
        ({"k": True}, "k"),
        ({"k": 2.5}, "k"),
        ({"distance": 0}, "distance"),
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


def test_tree_spec_from_file(tmp_path):
    path = tmp_path / "tree.json"
    path.write_text(json.dumps(fig3_tree().to_dict()))
    assert TreeSpec.from_dict(json.loads(path.read_text())) == fig3_tree()


@given(tree=road_trees())
def test_tree_spec_dict_round_trip_on_random_trees(tree):
    doc = tree.to_dict()
    assert TreeSpec.from_dict(doc) == tree
    assert TreeSpec.from_dict(json.loads(json.dumps(doc))) == tree


def reference_tables(tree: TreeSpec):
    """The two-pass construction of parallel next/reward/terminal lists that
    ``RoadTreeEnv`` used before it stored one ``(reward, next_state)`` step
    per pair; kept as the reference for the one-pass build.  Returns (kinds,
    next, reward, terminal flag, criticality array)."""
    kinds: list[str] = []
    node_state: dict[int, int] = {}

    def new_state(kind):
        kinds.append(kind)
        return len(kinds) - 1

    node_state[tree.root] = new_state(KIND_JUNCTION)
    order = [tree.root]
    i = 0
    while i < len(order):
        p = order[i]
        i += 1
        for e in tree.children(p):
            child = tree.node(e.child)
            for _ in range(e.distance - 1):
                new_state("road")
            if child.kind == KIND_JUNCTION:
                node_state[child.id] = new_state(KIND_JUNCTION)
                order.append(child.id)
    sink = new_state("sink")

    n = len(kinds)
    nxt = [[] for _ in range(n)]
    rew = [[] for _ in range(n)]
    term = [[] for _ in range(n)]
    cursor = {}

    def ids_used(edge):
        """The edge's road states, plus its child's state if a junction."""
        return edge.distance - (tree.node(edge.child).kind == KIND_TERMINAL)

    def chain_ids(edge):
        start = cursor[edge.parent]
        ids = list(range(start, start + edge.distance - 1))
        cursor[edge.parent] = start + ids_used(edge)
        return ids

    cursor_pos = 1
    for p in order:
        cursor[p] = cursor_pos
        cursor_pos += sum(ids_used(e) for e in tree.children(p))

    for p in order:
        p_state = node_state[p]
        for e in tree.children(p):
            child = tree.node(e.child)
            chain = chain_ids(e)
            entering_terminal = child.kind == KIND_TERMINAL
            entry_state = sink if entering_terminal else node_state[child.id]
            if chain:
                nxt[p_state].append(chain[0])
                rew[p_state].append(0.0)
                term[p_state].append(False)
                for a, b in zip(chain, chain[1:]):
                    nxt[a].append(b)
                    rew[a].append(0.0)
                    term[a].append(False)
                last = chain[-1]
            else:
                last = p_state
            nxt[last].append(entry_state)
            rew[last].append(child.reward)
            term[last].append(entering_terminal)
    crit = np.array([0.0 if k == "road" else 1.0 for k in kinds])
    return kinds, nxt, rew, term, crit


@given(tree=road_trees())
def test_transition_table_matches_two_pass_reference(tree):
    env = RoadTreeEnv(tree)
    kinds, nxt, rew, term, crit = reference_tables(tree)
    rng = np.random.default_rng(0)
    h = env.criticality()
    assert env.num_states == len(kinds)
    assert env.terminal == len(kinds) - 1
    for s in range(env.num_states):
        got_h, want_h = h(s), float(crit[s])
        assert type(got_h) is float and got_h.hex() == want_h.hex()
        if s == env.terminal:
            with pytest.raises(ValueError, match="TERMINAL"):
                env.step(s, 0, rng)
            continue
        for a in range(len(nxt[s])):
            step = env.step(s, a, rng)
            assert type(step) is tuple and len(step) == 2
            r, s2 = step
            assert r.hex() == rew[s][a].hex()
            assert (s2, s2 == env.terminal) == (nxt[s][a], term[s][a])
        for a in (-1, len(nxt[s])):
            with pytest.raises(ValueError, match="invalid"):
                env.step(s, a, rng)
    assert action_counts(env) == [len(row) for row in nxt[:-1]]
    assert env.action_layout()[0] == max(map(len, nxt))


def junction(i, reward=0.0):
    return TreeNode(i, reward, KIND_JUNCTION)


def leaf(i, reward=0.0):
    return TreeNode(i, reward, KIND_TERMINAL)


@pytest.mark.parametrize(
    "spec, fragment",
    [
        (
            (0, (junction(0), leaf(1), leaf(1)), (TreeEdge(0, 1, 1),)),
            "duplicate node id 1",
        ),
        ((9, (junction(0), leaf(1)), (TreeEdge(0, 1, 1),)), "root node 9"),
        (
            (0, (junction(0), TreeNode(1, 0.0, "lake")), (TreeEdge(0, 1, 1),)),
            "unknown kind",
        ),
        ((0, (junction(0), leaf(1)), (TreeEdge(0, 7, 1),)), "edge child 7"),
        ((0, (junction(0), leaf(1)), (TreeEdge(5, 1, 1),)), "edge parent 5"),
        (
            (0, (junction(0), leaf(1)), (TreeEdge(0, 1, 0),)),
            "distance 0",
        ),
        (
            (0, (junction(0), junction(1), leaf(2)), (TreeEdge(0, 1, 1), TreeEdge(1, 2, 1), TreeEdge(1, 0, 1))),
            "cannot be a child",
        ),
        (
            (
                0,
                (junction(0), junction(1), leaf(2)),
                (TreeEdge(0, 1, 1), TreeEdge(0, 2, 1), TreeEdge(1, 2, 1)),
            ),
            "more than one parent",
        ),
        (
            (0, (junction(0), leaf(1), leaf(2)), (TreeEdge(0, 1, 1),)),
            "unreachable",
        ),
        (
            (0, (junction(0), junction(1)), (TreeEdge(0, 1, 1),)),
            "junction node 1 has no children",
        ),
        (
            (0, (junction(0), leaf(1), leaf(2)), (TreeEdge(0, 1, 1), TreeEdge(1, 2, 1))),
            "terminal node 1 has children",
        ),
        ((0, (leaf(0), leaf(1)), (TreeEdge(0, 1, 1),)), "must be a junction"),
        (  # a cycle detached from a valid tree
            (
                0,
                (junction(0), leaf(1), junction(2), junction(3)),
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


def test_from_dict_rejects_malformed_documents():
    with pytest.raises(ValueError, match="malformed tree document"):
        TreeSpec.from_dict({"root": 0})
    with pytest.raises(ValueError, match="malformed tree document"):
        TreeSpec.from_dict({"root": 0, "nodes": [{"id": 0}], "edges": []})
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
        with pytest.raises(ValueError, match=rf"malformed tree document: {part}\[0\]\.{key} "):
            TreeSpec.from_dict(doc)
    with pytest.raises(ValueError, match="malformed tree document: root "):
        TreeSpec.from_dict({**fig3_tree().to_dict(), "root": True})
    # a well-formed document that is not a tree raises the tree's own message
    doc = fig3_tree().to_dict()
    doc["nodes"][2]["id"] = 1
    with pytest.raises(ValueError, match="^duplicate node id 1$"):
        TreeSpec.from_dict(doc)
