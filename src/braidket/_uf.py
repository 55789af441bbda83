"""Minimal union-find, used only for the component count of the planarity
check in ``diagram._faces_and_components``; ``tl.pairing_loops`` counts loops."""

from __future__ import annotations


class DisjointSet:
    def __init__(self, size: int):
        self.parent = list(range(size))

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
