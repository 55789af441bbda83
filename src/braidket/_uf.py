"""Minimal union-find used by the loop-counting routines."""

from __future__ import annotations


class DisjointSet:
    def __init__(self, size: int):
        self.parent = list(range(size))

    def copy(self) -> "DisjointSet":
        out = DisjointSet(0)
        out.parent = self.parent[:]
        return out

    def find(self, x: int) -> int:
        parent = self.parent
        root = x
        while parent[root] != root:
            root = parent[root]
        while parent[x] != root:
            parent[x], x = root, parent[x]
        return root

    def union(self, a: int, b: int) -> None:
        ra, rb = self.find(a), self.find(b)
        if ra != rb:
            self.parent[rb] = ra

    def component_count(self) -> int:
        return sum(1 for x in range(len(self.parent)) if self.find(x) == x)
