"""``hypothesis`` strategies shared by the test modules."""

from __future__ import annotations

from hypothesis import strategies as st

from cvslab import TreeEdge, TreeNode, TreeSpec
from cvslab.roadtree import KIND_JUNCTION, KIND_TERMINAL


@st.composite
def road_trees(draw):
    """Valid trees of height <= 3, 1-3 children per junction, distances
    1-30 and integer rewards."""
    nodes = [TreeNode(0, float(draw(st.integers(-3, 3))), KIND_JUNCTION)]
    edges = []

    def grow(parent, depth):
        for _ in range(draw(st.integers(1, 3))):
            child = len(nodes)
            junction = depth < 3 and draw(st.booleans())
            kind = KIND_JUNCTION if junction else KIND_TERMINAL
            nodes.append(TreeNode(child, float(draw(st.integers(-3, 7))), kind))
            edges.append(TreeEdge(parent, child, draw(st.integers(1, 30))))
            if junction:
                grow(child, depth + 1)

    grow(0, 1)
    return TreeSpec(root=0, nodes=tuple(nodes), edges=tuple(edges))
