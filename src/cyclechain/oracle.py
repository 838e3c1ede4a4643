"""Brute-force reference algorithms.

Ground-truth implementations that the formula-driven modules are checked
against.  Everything here works on primitive data (vertex-pair lists and
integer bitmasks) and imports nothing from the rest of the package, which
keeps the two routes to every quantity independent.
"""

import itertools
import math

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


# The face bitmap holds one bit per subset of the ground, 2^n bits for n
# edges: 32 MiB at 28 edges, and the closure keeps a few such ints alive
# at once, which stays well inside a 1 GiB address space.
MAX_FACE_GROUND = 28

# counts() tallies the low positions of each chunk through one popcount
# mask per face size, so a chunk of 2^16 positions costs 17 popcounts.
_CHUNK_BITS = 16


class FaceBitmap:
    """The faces of a downset: bit m of the bitmap is set iff m is a face."""

    def __init__(self, bits: int, ground: int):
        self._bits = bits
        self._ground = ground

    def __len__(self) -> int:
        return self._bits.bit_count()

    def counts(self) -> list[int]:
        """f-vector: entry i counts the faces of size i+1."""
        n = self._ground
        low = min(n, _CHUNK_BITS)
        # by_size[k] marks the positions below 2^low with k bits set
        by_size = [1]
        for j in range(low):
            by_size = [a | b << (1 << j) for a, b in zip(by_size + [0], [0] + by_size)]
        if low == n:
            chunks = [(0, self._bits)]
        else:
            step = 1 << (low - 3)
            data = memoryview(self._bits.to_bytes(1 << (n - 3), "little"))
            chunks = (
                (high, int.from_bytes(data[high * step : (high + 1) * step], "little"))
                for high in range(1 << (n - low))
            )
        sizes = [0] * (n + 1)
        for high, chunk in chunks:
            if chunk:
                base = high.bit_count()
                for k, mask in enumerate(by_size):
                    sizes[base + k] += (chunk & mask).bit_count()
        while sizes and not sizes[-1]:
            sizes.pop()
        return sizes[1:]


def _positions_with_bit(i: int, n: int) -> int:
    """Bitmap of the positions below 2^n (at least one byte's worth) whose
    bit i is set."""
    if i < 3:
        pattern = bytes(((0xAA, 0xCC, 0xF0)[i],))
    else:
        half = 1 << (i - 3)
        pattern = bytes(half) + b"\xff" * half
    return int.from_bytes(pattern * (max(1, (1 << n) >> 3) // len(pattern)), "little")


def downset_faces(facet_masks, cap: int = 1 << 24) -> FaceBitmap:
    """All nonempty faces of the complex generated by the facets.

    A subset closure over one bitmap with a bit per subset of the ground
    (n = bit length of the union of the facets): set each facet's bit,
    then for every ground bit i let each set position m with bit i pass
    its bit down to m - 2^i.  Raises SearchSpaceTooLarge when the face
    count exceeds cap, up front when one facet alone has more than cap
    faces, and when n exceeds MAX_FACE_GROUND.
    """
    facets = {f for f in facet_masks if f}
    widest = max((f.bit_count() for f in facets), default=0)
    if (1 << widest) - 1 > cap:
        raise SearchSpaceTooLarge(f"face count exceeds the cap of {cap}")
    ground = 0
    for f in facets:
        ground |= f
    n = ground.bit_length()
    if n > MAX_FACE_GROUND:
        raise SearchSpaceTooLarge(
            f"{n} edges exceed the face oracle's limit of {MAX_FACE_GROUND}"
        )
    buf = bytearray(max(1, (1 << n) >> 3))
    for f in facets:
        buf[f >> 3] |= 1 << (f & 7)
    bits = int.from_bytes(buf, "little")
    del buf
    for i in range(n):
        bits |= (bits & _positions_with_bit(i, n)) >> (1 << i)
    faces = FaceBitmap(bits & ~1, n)
    if len(faces) > cap:
        raise SearchSpaceTooLarge(f"face count exceeds the cap of {cap}")
    return faces


def downset_face_counts(facet_masks, cap: int = 1 << 24) -> list[int]:
    """f-vector of the facets' downset: entry i counts faces of size i+1."""
    return downset_faces(facet_masks, cap).counts()


_TRANSVERSAL_CAP = 10**6


def minimal_hitting_sets(sets) -> list[int]:
    """All inclusion-minimal transversals of a family of bitmask sets.

    Berge multiplication: fold the sets in one at a time, keeping the
    partial transversal family minimal after each step.  Sorted by
    (size, mask) on return.  An empty member admits no transversal.
    Raises SearchSpaceTooLarge when a partial family outgrows
    _TRANSVERSAL_CAP.

    Folding s into a minimal family keeps every member h that meets s and
    grows every member t that misses s to t | e for each e in s.  Kept
    members never nest, nor do grown ones: t | e inside t' | e' puts e in
    s & (t' | e') = {e'}, so e = e' and t lies inside t'.  A grown t | e
    never lies inside a kept h, since t would then lie strictly inside h.
    So the one domination left is a kept h inside t | e, which needs
    h & s == e and h - e inside t: each step indexes the kept members that
    meet s in one element by that element, and tests each t | e against
    its own element's blockers only.
    """
    trans = [0]
    for s in sets:
        if s == 0:
            return []
        blockers: dict[int, list[int]] = {}
        rest = s
        while rest:
            low = rest & -rest
            blockers[low] = []
            rest ^= low
        hit: list[int] = []
        miss: list[int] = []
        for t in trans:
            meet = t & s
            if not meet:
                miss.append(t)
                continue
            hit.append(t)
            if meet in blockers:
                blockers[meet].append(t ^ meet)
        trans = hit + [
            t | e
            for e, below in blockers.items()
            for t in miss
            if not any(b & t == b for b in below)
        ]
        if len(trans) > _TRANSVERSAL_CAP:
            raise SearchSpaceTooLarge(
                "intermediate transversal family exceeds the cap of "
                f"{_TRANSVERSAL_CAP}"
            )
    trans.sort(key=lambda m: (m.bit_count(), m))
    return trans
