"""Weighted index sampling via a binary tree over prefix-sum ranges.

The tree is built by splitting the index range [0, n) at its midpoint until
singletons; leaves carry the item weights, internal nodes the sum of their
children.  A draw walks root to leaf, branching left with probability
w_left / (w_left + w_right), so leaf i is hit with probability w_i / W
exactly (the branch probabilities telescope).  The tree is immutable after
construction.  Ties on the branch threshold go right: the walk goes left only when
the uniform draw is strictly below the threshold, so a zero-weight left
child is never entered.
"""

from __future__ import annotations

import numpy as np

from .core import ParameterError, SeededRng


class PrefixTree:
    """Complete binary tree over [0, n) with subtree weight sums at each node.

    Nodes are stored in arrays; node 0 is the root.  Leaves are in one-to-one
    correspondence with indices, with ``leaf_of[i]`` the node id of leaf i.
    """

    def __init__(self, weights) -> None:
        w = np.asarray(weights, dtype=np.float64)
        if w.ndim != 1 or w.size == 0:
            raise ParameterError("weights must be a nonempty 1-d array")
        if not np.all(np.isfinite(w)):
            raise ValueError("weights must be finite")
        if np.any(w < 0):
            raise ValueError("weights must be nonnegative")
        if not np.any(w > 0):
            raise ParameterError("all-zero weight vector")
        self.n = int(w.size)
        self.lo: list[int] = []
        self.hi: list[int] = []
        self.weight: list[float] = []
        self.left: list[int] = []
        self.right: list[int] = []
        self.parent: list[int] = []
        self.leaf_of = [0] * self.n
        self._build(0, self.n, -1, w)

    def _build(self, lo: int, hi: int, parent: int, w: np.ndarray) -> int:
        node = len(self.weight)
        self.lo.append(lo)
        self.hi.append(hi)
        self.left.append(-1)
        self.right.append(-1)
        self.parent.append(parent)
        self.weight.append(0.0)
        if hi - lo == 1:
            self.weight[node] = float(w[lo])
            self.leaf_of[lo] = node
            return node
        mid = (lo + hi) // 2
        l = self._build(lo, mid, node, w)
        r = self._build(mid, hi, node, w)
        self.left[node] = l
        self.right[node] = r
        self.weight[node] = self.weight[l] + self.weight[r]
        return node

    @property
    def n_nodes(self) -> int:
        return len(self.weight)

    @property
    def total(self) -> float:
        return self.weight[0]

    def depth(self) -> int:
        best = 0
        for i in range(self.n):
            d = 0
            node = self.leaf_of[i]
            while self.parent[node] != -1:
                node = self.parent[node]
                d += 1
            best = max(best, d)
        return best

    def path(self, i: int) -> list[int]:
        """Node ids from the root down to leaf i."""
        if not 0 <= i < self.n:
            raise IndexError(f"index {i} out of range")
        nodes = [self.leaf_of[i]]
        while self.parent[nodes[-1]] != -1:
            nodes.append(self.parent[nodes[-1]])
        return nodes[::-1]


# Build the sampling tree; O(n) nodes, O(log n) depth.
sampler_init = PrefixTree


def sampler_query(tree: PrefixTree, rng: SeededRng) -> int:
    """Draw an index with probability proportional to its current weight."""
    if tree.total <= 0.0:
        raise ParameterError("cannot sample: total weight is zero")
    node = 0
    while tree.left[node] != -1:
        l, r = tree.left[node], tree.right[node]
        p1, p2 = tree.weight[l], tree.weight[r]
        b = rng.gen.random()
        # The walk only visits positive-weight nodes, so p1 + p2 > 0 here.
        node = l if b < p1 / (p1 + p2) else r
    return tree.lo[node]
