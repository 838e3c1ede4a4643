"""Brute-force reference algorithms.

Ground-truth implementations that the formula-driven modules are checked
against.  Everything here works on primitive data (vertex-pair lists and
integer bitmasks) and imports nothing from the rest of the package, which
keeps the two routes to every quantity independent.
"""

import itertools
import math
from collections import Counter

from .errors import SearchSpaceTooLarge


def spanning_tree_masks(
    endpoints, num_vertices: int, cap: int = 10**6
) -> list[int]:
    """Every spanning tree of the graph, as an edge bitmask, ascending.

    Filters all ways of deleting (edges - vertices + 1) edges through a
    connectivity and acyclicity check.  Raises SearchSpaceTooLarge when the
    candidate count exceeds cap.
    """
    n = len(endpoints)
    rank = n - num_vertices + 1
    if rank < 0:
        return []
    candidates = math.comb(n, rank)
    if candidates > cap:
        raise SearchSpaceTooLarge(
            f"{candidates} deletion candidates exceed the cap of {cap}"
        )
    full = (1 << n) - 1
    trees = []
    for removed in itertools.combinations(range(n), rank):
        removed_mask = 0
        for e in removed:
            removed_mask |= 1 << e
        parent = list(range(num_vertices))
        merges = 0
        for e in range(n):
            if removed_mask >> e & 1:
                continue
            u, v = endpoints[e]
            while parent[u] != u:
                parent[u] = parent[parent[u]]
                u = parent[u]
            while parent[v] != v:
                parent[v] = parent[parent[v]]
                v = parent[v]
            if u == v:
                merges = -1
                break
            parent[u] = v
            merges += 1
        if merges == num_vertices - 1:
            trees.append(full ^ removed_mask)
    trees.sort()
    return trees


def bareiss_determinant(matrix) -> int:
    """Exact integer determinant via fraction-free elimination.

    Every intermediate value stays an integer; the divisions performed are
    exact by the Bareiss identity regardless of pivot choice.
    """
    m = [list(map(int, row)) for row in matrix]
    size = len(m)
    if any(len(row) != size for row in m):
        raise ValueError("matrix must be square")
    if size == 0:
        return 1
    sign = 1
    prev = 1
    for k in range(size - 1):
        if m[k][k] == 0:
            for i in range(k + 1, size):
                if m[i][k] != 0:
                    m[k], m[i] = m[i], m[k]
                    sign = -sign
                    break
            else:
                return 0
        for i in range(k + 1, size):
            for j in range(k + 1, size):
                m[i][j] = (m[i][j] * m[k][k] - m[i][k] * m[k][j]) // prev
            m[i][k] = 0
        prev = m[k][k]
    return sign * m[size - 1][size - 1]


def kirchhoff_count(endpoints, num_vertices: int, deleted: int = 0) -> int:
    """Spanning-tree count from the reduced Laplacian determinant."""
    if num_vertices <= 1:
        return 1
    if not 0 <= deleted < num_vertices:
        raise ValueError(f"deleted vertex {deleted} out of range")
    lap = [[0] * num_vertices for _ in range(num_vertices)]
    for u, v in endpoints:
        lap[u][u] += 1
        lap[v][v] += 1
        lap[u][v] -= 1
        lap[v][u] -= 1
    keep = [i for i in range(num_vertices) if i != deleted]
    minor = [[lap[i][j] for j in keep] for i in keep]
    return bareiss_determinant(minor)


def downset_faces(facet_masks, cap: int = 1 << 24) -> set[int]:
    """All nonempty faces of the complex generated by the facets."""
    faces: set[int] = set()
    stack = [f for f in set(facet_masks) if f]
    while stack:
        m = stack.pop()
        if m in faces:
            continue
        faces.add(m)
        if len(faces) > cap:
            raise SearchSpaceTooLarge(f"face count exceeds the cap of {cap}")
        rest = m
        while rest:
            low = rest & -rest
            child = m ^ low
            if child and child not in faces:
                stack.append(child)
            rest ^= low
    return faces


def downset_face_counts(facet_masks, cap: int = 1 << 24) -> list[int]:
    """f-vector by literal face enumeration: entry i counts faces of size i+1."""
    sizes = Counter(map(int.bit_count, downset_faces(facet_masks, cap)))
    return [sizes[s] for s in range(1, max(sizes, default=0) + 1)]


def _minimal_masks(masks) -> list[int]:
    uniq = sorted(set(masks), key=lambda m: (m.bit_count(), m))
    keep: list[int] = []
    for m in uniq:
        if not any(km & m == km for km in keep):
            keep.append(m)
    return keep


def minimal_hitting_sets(sets, cap: int = 10**6) -> list[int]:
    """All inclusion-minimal transversals of a family of bitmask sets.

    Berge multiplication: fold the sets in one at a time, keeping the
    partial transversal family minimal after each step.  Sorted by
    (size, mask) on return.  An empty member admits no transversal.
    """
    trans = [0]
    for s in sets:
        if s == 0:
            return []
        new: list[int] = []
        for tmask in trans:
            if tmask & s:
                new.append(tmask)
            else:
                rest = s
                while rest:
                    low = rest & -rest
                    new.append(tmask | low)
                    rest ^= low
        trans = _minimal_masks(new)
        if len(trans) > cap:
            raise SearchSpaceTooLarge(
                f"intermediate transversal family exceeds the cap of {cap}"
            )
    trans.sort(key=lambda m: (m.bit_count(), m))
    return trans
