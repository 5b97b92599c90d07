"""``hypothesis`` strategies shared by the test modules."""

from __future__ import annotations

from functools import partial

from hypothesis import strategies as st

from cvslab import Environment, TreeEdge, TreeNode, TreeSpec


@st.composite
def road_trees(draw):
    """Valid trees of height <= 3, 1-3 children per junction, distances
    1-30 and integer rewards."""
    nodes = [TreeNode(0, float(draw(st.integers(-3, 3))))]
    edges = []

    def grow(parent, depth):
        for _ in range(draw(st.integers(1, 3))):
            child = len(nodes)
            junction = depth < 3 and draw(st.booleans())
            nodes.append(TreeNode(child, float(draw(st.integers(-3, 7)))))
            edges.append(TreeEdge(parent, child, draw(st.integers(1, 30))))
            if junction:
                grow(child, depth + 1)

    grow(0, 1)
    return TreeSpec(root=0, nodes=tuple(nodes), edges=tuple(edges))


class SmallMDP(Environment):
    """A random cyclic MDP: ``outcomes[s][a]`` lists the ``(reward,
    next_state)`` pairs a step may take, one picked by ``rng.integers``; the
    episode starts in a state picked the same way and is cut into the sink
    on its ``cap``-th step.  Unlike a road tree it revisits pairs, loops on
    itself, steps at random and has a fractional ``h``."""

    def __init__(self, outcomes, h, cap):
        self._outcomes = outcomes
        self._h = (*h, 0.0)
        self._cap = cap
        self._steps = 0

    @property
    def terminal(self):
        return len(self._outcomes)

    def action_layout(self):
        counts = [len(actions) for actions in self._outcomes]
        width = max(counts)
        return width, {s: k for s, k in enumerate(counts) if k < width}, width

    def reset(self, rng):
        self._steps = 0
        return int(rng.integers(self.terminal))

    def step(self, s, a, rng):
        if not 0 <= s < self.terminal or not 0 <= a < len(self._outcomes[s]):
            raise ValueError(f"action {a} invalid for state {s}")
        self._steps += 1
        pairs = self._outcomes[s][a]
        r, s2 = pairs[int(rng.integers(len(pairs)))]
        return (r, self.terminal) if self._steps >= self._cap else (r, s2)

    def criticality(self):
        return self._h.__getitem__


REWARDS = (0.0, 1.0, -2.0, 0.3)


@st.composite
def small_mdps(draw):
    """Factories of :class:`SmallMDP`: 1-6 states with 1-3 actions each;
    each pair has 1-3 outcomes plus one into the sink, rewards from
    ``REWARDS``; ``h`` from {0, .1, .25, 1/3, .5, 1}; a cap of 3-30 steps."""
    n = draw(st.integers(1, 6))
    reward = st.sampled_from(REWARDS)

    def pair():
        steps = draw(st.lists(st.tuples(reward, st.integers(0, n - 1)), min_size=1, max_size=3))
        return (*steps, (draw(reward), n))

    outcomes = tuple(tuple(pair() for _ in range(draw(st.integers(1, 3)))) for _ in range(n))
    h = tuple(draw(st.sampled_from((0.0, 0.1, 0.25, 1 / 3, 0.5, 1.0))) for _ in range(n))
    return partial(SmallMDP, outcomes, h, draw(st.integers(3, 30)))


class FixedStartMDP(SmallMDP):
    """A :class:`SmallMDP` whose episodes all start in state 0, drawing nothing."""

    def reset(self, rng):
        self._steps = 0
        return 0


@st.composite
def road_mdps(draw):
    """Factories of :class:`FixedStartMDP` with junctions and roads, as on a
    tree: ``h`` is 1 at 1-3 junctions (state 0 the start) and 0 on road
    states.  A junction has 0-2 actions that each either run a road of 1-3
    one-action states, entered with reward 0 and always by that one pair,
    into a junction or the sink, or step to one of 1-3 outcomes among the
    junctions and the sink; then one action into the sink.  Unlike a tree,
    junctions may be entered from several pairs, revisited, stepped into at
    random and looped on; the cap of 10**9 steps is never reached."""
    junctions = draw(st.integers(1, 3))
    reward = st.sampled_from(REWARDS)
    dest = st.one_of(st.integers(0, junctions - 1), st.none())  # None: the sink
    outcomes = [[] for _ in range(junctions)]
    h = [1.0] * junctions
    for j in range(junctions):
        for _ in range(draw(st.integers(0, 2))):
            if draw(st.booleans()):
                head = len(outcomes)
                length = draw(st.integers(1, 3))
                outcomes += [[[(0.0, s + 1)]] for s in range(head, head + length - 1)]
                outcomes.append([[(draw(reward), draw(dest))]])
                h += [0.0] * length
                outcomes[j].append([(0.0, head)])
            else:
                outcomes[j].append([(draw(reward), draw(dest)) for _ in range(draw(st.integers(1, 3)))])
        outcomes[j].append([(draw(reward), None)])
    sink = len(outcomes)
    resolved = tuple(
        tuple(tuple((r, sink if s is None else s) for r, s in pair) for pair in actions) for actions in outcomes
    )
    return partial(FixedStartMDP, resolved, tuple(h), 10**9)
