"""Fixed-capacity bitmask sets over a ground set of edges.

Every edge subset handled by the package (cycles, spanning trees, faces,
monomial supports, vertex covers) is an EdgeSet: an integer bitmask over
ground indices 0..ground-1.  Python integers have no fixed width, so the
64-index cap on the ground set is not a storage limit: it is the largest
edge count of any graph the package builds (build_chain_graph raises
CapacityExceeded past it), and so the largest variable count of any ideal.
"""

from dataclasses import dataclass
from typing import Iterable, Iterator

from .errors import CapacityExceeded

MAX_GROUND = 64


@dataclass(frozen=True, order=True)
class EdgeSet:
    mask: int
    ground: int

    def __post_init__(self) -> None:
        if not 0 <= self.ground <= MAX_GROUND:
            raise CapacityExceeded(f"ground set size {self.ground} exceeds {MAX_GROUND}")
        if self.mask < 0 or self.mask >> self.ground:
            raise ValueError(f"mask {self.mask:#x} has bits outside ground size {self.ground}")

    @classmethod
    def of(cls, indices: Iterable[int], ground: int) -> "EdgeSet":
        mask = 0
        for i in indices:
            if not 0 <= i < ground:
                raise ValueError(f"index {i} outside ground size {ground}")
            mask |= 1 << i
        return cls(mask, ground)

    def _check(self, other: "EdgeSet") -> None:
        if self.ground != other.ground:
            raise ValueError(f"mixed ground sizes {self.ground} and {other.ground}")

    def __len__(self) -> int:
        return self.mask.bit_count()

    def __iter__(self) -> Iterator[int]:
        m = self.mask
        while m:
            low = m & -m
            yield low.bit_length() - 1
            m ^= low

    def __contains__(self, index: int) -> bool:
        return 0 <= index < self.ground and bool(self.mask >> index & 1)

    def __bool__(self) -> bool:
        return self.mask != 0

    def __or__(self, other: "EdgeSet") -> "EdgeSet":
        self._check(other)
        return EdgeSet(self.mask | other.mask, self.ground)

    def __and__(self, other: "EdgeSet") -> "EdgeSet":
        self._check(other)
        return EdgeSet(self.mask & other.mask, self.ground)

    def __xor__(self, other: "EdgeSet") -> "EdgeSet":
        self._check(other)
        return EdgeSet(self.mask ^ other.mask, self.ground)

    def __sub__(self, other: "EdgeSet") -> "EdgeSet":
        self._check(other)
        return EdgeSet(self.mask & ~other.mask, self.ground)

    def complement(self) -> "EdgeSet":
        return EdgeSet(self.mask ^ (1 << self.ground) - 1, self.ground)

    def issubset(self, other: "EdgeSet") -> bool:
        self._check(other)
        return self.mask & ~other.mask == 0

    def __repr__(self) -> str:
        return f"EdgeSet({{{','.join(map(str, self))}}}, ground={self.ground})"
