from __future__ import annotations

import json

import numpy as np
import pytest
from hypothesis import given

from cvslab import (
    RoadTreeEnv,
    Transition,
    TreeEdge,
    TreeNode,
    TreeSpec,
    fig1_tree,
    fig3_tree,
    fig4_tree,
    fig6_tree,
    optimal_return_oracle,
)
from cvslab.roadtree import KIND_JUNCTION, KIND_ROAD, KIND_SINK, KIND_TERMINAL
from strategies import road_trees

ALL_TREES = {
    "fig1": fig1_tree(),
    "fig3": fig3_tree(),
    "fig4": fig4_tree(),
    "fig6": fig6_tree(),
}


def kind_counts(env: RoadTreeEnv) -> dict[str, int]:
    counts: dict[str, int] = {}
    for s in range(env.num_states):
        k = env.state_kind(s)
        counts[k] = counts.get(k, 0) + 1
    return counts


def test_fig1_state_layout():
    env = RoadTreeEnv(fig1_tree())
    counts = kind_counts(env)
    # six edges with distances 20/10/10/15/15/15 expand into 79 road states
    assert counts[KIND_ROAD] == 79
    assert counts[KIND_JUNCTION] == 3
    assert counts[KIND_TERMINAL] == 4
    assert counts[KIND_SINK] == 1
    assert env.num_states == 87
    assert env.num_actions(env.root_state) == 2


def test_fig3_state_layout():
    env = RoadTreeEnv(fig3_tree())
    counts = kind_counts(env)
    assert counts[KIND_ROAD] == 9 + 49
    assert env.num_states == 62
    assert env.num_actions(env.root_state) == 2


def test_road_states_have_one_action():
    env = RoadTreeEnv(fig1_tree())
    for s in range(env.num_states):
        kind = env.state_kind(s)
        if kind == KIND_ROAD:
            assert env.num_actions(s) == 1
        elif kind == KIND_SINK:
            assert env.num_actions(s) == 0


def test_reset_returns_root():
    env = RoadTreeEnv(fig3_tree())
    rng = np.random.default_rng(0)
    assert env.reset(rng) == env.root_state
    assert env.state_kind(env.root_state) == KIND_JUNCTION


def replay(env: RoadTreeEnv, actions: list[int]) -> tuple[float, int]:
    """Drive the action path from the root; junction choices come from
    ``actions``, road states take their only action."""
    rng = np.random.default_rng(0)
    s = env.reset(rng)
    total = 0.0
    steps = 0
    it = iter(actions)
    while True:
        a = next(it) if env.num_actions(s) > 1 else 0
        tr = env.step(s, a, rng)
        total += tr.reward
        steps += 1
        if tr.terminal:
            return total, steps
        s = tr.next_state


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
    tr = env.step(s, 0, rng)
    for _ in range(8):
        assert not tr.terminal
        assert tr.reward == 0.0
        tr = env.step(tr.next_state, 0, rng)
    # ninth road step arrives at the last road state before the leaf
    last = env.step(tr.next_state, 0, rng)
    assert last.reward == 1.0
    assert last.next_state == env.terminal
    assert last.terminal


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
    for s in range(env.num_states):
        expected = 0.0 if env.state_kind(s) == KIND_ROAD else 1.0
        assert h(s) == expected


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


@pytest.mark.parametrize("name", sorted(ALL_TREES))
def test_oracle_agrees_with_exhaustive_enumeration(name):
    tree = ALL_TREES[name]
    env = RoadTreeEnv(tree)
    value, path = optimal_return_oracle(env)
    best = max(v for v, _ in enumerate_paths(tree, tree.root))
    assert value == best


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
    assert env.num_actions(right) == 4
    value, path = optimal_return_oracle(env)
    assert value == 2.0
    assert path == [1, 3]


def test_fig6_rejects_bad_arguments():
    with pytest.raises(ValueError, match="k"):
        fig6_tree(k=0)
    with pytest.raises(ValueError, match="distance"):
        fig6_tree(distance=0)


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
    ``RoadTreeEnv`` used before it stored one ``Transition`` per pair; kept as
    the reference for the one-pass build.  Returns (kinds, next, reward,
    terminal flag, criticality array)."""
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
                new_state(KIND_ROAD)
            node_state[child.id] = new_state(
                KIND_JUNCTION if child.kind == KIND_JUNCTION else KIND_TERMINAL
            )
            if child.kind == KIND_JUNCTION:
                order.append(child.id)
    sink = new_state(KIND_SINK)

    n = len(kinds)
    nxt = [[] for _ in range(n)]
    rew = [[] for _ in range(n)]
    term = [[] for _ in range(n)]
    cursor = {}

    def chain_ids(edge):
        start = cursor[edge.parent]
        ids = list(range(start, start + edge.distance - 1))
        cursor[edge.parent] = start + edge.distance
        return ids

    cursor_pos = 1
    for p in order:
        cursor[p] = cursor_pos
        cursor_pos += sum(e.distance for e in tree.children(p))

    for p in order:
        p_state = node_state[p]
        for e in tree.children(p):
            child = tree.node(e.child)
            chain = chain_ids(e)
            c_state = node_state[child.id]
            entering_terminal = child.kind == KIND_TERMINAL
            entry = (
                Transition(child.reward, sink, True)
                if entering_terminal
                else Transition(child.reward, c_state, False)
            )
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
            nxt[last].append(entry.next_state)
            rew[last].append(entry.reward)
            term[last].append(entry.terminal)
    crit = np.array([0.0 if k == KIND_ROAD else 1.0 for k in kinds])
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
        assert env.state_kind(s) == kinds[s]
        assert env.num_actions(s) == len(nxt[s])
        got_h, want_h = h(s), float(crit[s])
        assert type(got_h) is float and got_h.hex() == want_h.hex()
        if s == env.terminal:
            with pytest.raises(ValueError, match="TERMINAL"):
                env.step(s, 0, rng)
            continue
        for a in range(len(nxt[s])):
            tr = env.step(s, a, rng)
            assert type(tr) is Transition
            assert tr.reward.hex() == rew[s][a].hex()
            assert (tr.next_state, tr.terminal) == (nxt[s][a], term[s][a])
        for a in (-1, len(nxt[s])):
            with pytest.raises(ValueError, match="invalid"):
                env.step(s, a, rng)
    assert env.action_counts().tolist() == [len(row) for row in nxt]


def junction(i, reward=0.0):
    return TreeNode(i, reward, KIND_JUNCTION)


def leaf(i, reward=0.0):
    return TreeNode(i, reward, KIND_TERMINAL)


@pytest.mark.parametrize(
    "spec, fragment",
    [
        (
            TreeSpec(0, (junction(0), leaf(1), leaf(1)), (TreeEdge(0, 1, 1),)),
            "duplicate node id 1",
        ),
        (TreeSpec(9, (junction(0), leaf(1)), (TreeEdge(0, 1, 1),)), "root node 9"),
        (
            TreeSpec(0, (junction(0), TreeNode(1, 0.0, "lake")), (TreeEdge(0, 1, 1),)),
            "unknown kind",
        ),
        (TreeSpec(0, (junction(0), leaf(1)), (TreeEdge(0, 7, 1),)), "edge child 7"),
        (TreeSpec(0, (junction(0), leaf(1)), (TreeEdge(5, 1, 1),)), "edge parent 5"),
        (
            TreeSpec(0, (junction(0), leaf(1)), (TreeEdge(0, 1, 0),)),
            "distance 0",
        ),
        (
            TreeSpec(0, (junction(0), junction(1), leaf(2)), (TreeEdge(0, 1, 1), TreeEdge(1, 2, 1), TreeEdge(1, 0, 1))),
            "cannot be a child",
        ),
        (
            TreeSpec(
                0,
                (junction(0), junction(1), leaf(2)),
                (TreeEdge(0, 1, 1), TreeEdge(0, 2, 1), TreeEdge(1, 2, 1)),
            ),
            "more than one parent",
        ),
        (
            TreeSpec(0, (junction(0), leaf(1), leaf(2)), (TreeEdge(0, 1, 1),)),
            "unreachable",
        ),
        (
            TreeSpec(0, (junction(0), junction(1)), (TreeEdge(0, 1, 1),)),
            "junction node 1 has no children",
        ),
        (
            TreeSpec(0, (junction(0), leaf(1), leaf(2)), (TreeEdge(0, 1, 1), TreeEdge(1, 2, 1))),
            "terminal node 1 has children",
        ),
        (TreeSpec(0, (leaf(0), leaf(1)), (TreeEdge(0, 1, 1),)), "must be a junction"),
    ],
)
def test_tree_spec_validation_names_offender(spec, fragment):
    with pytest.raises(ValueError, match=fragment):
        spec.validate()


def test_from_dict_rejects_malformed_documents():
    with pytest.raises(ValueError, match="malformed tree document"):
        TreeSpec.from_dict({"root": 0})
    with pytest.raises(ValueError, match="malformed tree document"):
        TreeSpec.from_dict({"root": 0, "nodes": [{"id": 0}], "edges": []})
