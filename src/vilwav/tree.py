"""Rooted labeled trees on the digit set {0, ..., p-1} with root 0.

The tree is stored as a parent array with the sentinel parent[0] = 0; its
edges mark which mask values are unimodular, so the parent array is exactly
the object recovered when a mask is inverted back to a tree.
"""

from __future__ import annotations

import heapq
from dataclasses import dataclass
from typing import Iterator

from .config import MathError
from .group import check_table_size


class TreeError(MathError):
    pass


@dataclass(frozen=True)
class RootedTree:
    p: int
    parent: tuple[int, ...]

    @classmethod
    def validate(cls, parent, p: int) -> "RootedTree":
        """Check a parent array and return the tree, or raise TreeError."""
        parent = tuple(int(v) for v in parent)
        if p < 2:
            raise TreeError(f"need at least two vertices, got p={p}")
        if len(parent) != p:
            raise TreeError(f"parent array has length {len(parent)}, expected {p}")
        if parent[0] != 0:
            raise TreeError(f"parent[0] must be the root sentinel 0, got {parent[0]}")
        for v, u in enumerate(parent):
            if not (0 <= u < p):
                raise TreeError(f"parent[{v}]={u} out of range 0..{p - 1}")
        for v in range(p):
            seen = []
            u = v
            while u != 0:
                if u in seen:
                    cycle = seen[seen.index(u):]
                    raise TreeError(
                        "cycle: " + "->".join(str(c) for c in cycle + [cycle[0]])
                    )
                seen.append(u)
                u = parent[u]
        return cls(p, parent)

    def path_to(self, v: int) -> tuple[int, ...]:
        """The unique root-to-v path (0, u_j, ..., v)."""
        if not (0 <= v < self.p):
            raise TreeError(f"vertex {v} out of range")
        path = []
        while v != 0:
            path.append(v)
            v = self.parent[v]
        path.append(0)
        return tuple(reversed(path))

    def height(self) -> int:
        """Vertex count of the longest root-to-leaf path (>= 2 for p >= 2)."""
        return max(len(self.path_to(v)) for v in range(self.p))

    @property
    def support_exponent(self) -> int:
        """M = height - 2, the band of the spectrum this tree generates."""
        return self.height() - 2

    def edges(self) -> list[tuple[int, int]]:
        """Parent->child pairs (j, i), one per non-root vertex."""
        return [(self.parent[i], i) for i in range(1, self.p)]

    def first_level(self) -> tuple[int, ...]:
        return tuple(v for v in range(1, self.p) if self.parent[v] == 0)


def prufer_to_parent(seq, p: int) -> tuple[int, ...]:
    """Decode a Prufer sequence over {0..p-1} into a parent array rooted at 0.

    Each entry v adopts the smallest leaf, and the last small leaf hangs from
    p - 1, which the smallest-leaf rule leaves to the end.  That roots the
    tree at p - 1, so the pointers on the path from 0 up to p - 1 are reversed.
    """
    degree = [1] * p
    for v in seq:
        degree[v] += 1
    leaves = [v for v in range(p) if degree[v] == 1]  # ascending, so already a heap
    parent = [0] * p
    for v in seq:
        parent[heapq.heappop(leaves)] = v
        degree[v] -= 1
        if degree[v] == 1:
            heapq.heappush(leaves, v)
    parent[leaves[0]] = p - 1
    u, child = 0, 0  # 0 becomes its own parent, the root sentinel
    while u != p - 1:
        parent[u], child, u = child, u, parent[u]
    parent[u] = child
    return tuple(parent)


def enumerate_trees(p: int) -> Iterator[RootedTree]:
    """All p^(p-2) labeled trees on {0..p-1}, each rooted at 0, Prufer order.

    Refused before the first tree when the count, clipped at p^64 (past any cap), exceeds the cap.
    """
    check_table_size(p ** min(p - 2, 64), "tree enumeration", "trees")
    for code in range(p ** (p - 2)):
        seq = [(code // p**i) % p for i in range(p - 2)]
        yield RootedTree.validate(prufer_to_parent(seq, p), p)


def sample_tree(p: int, rng) -> RootedTree:
    """One uniformly random labeled tree, rooted at 0."""
    seq = [int(rng.integers(p)) for _ in range(p - 2)]
    return RootedTree.validate(prufer_to_parent(seq, p), p)
