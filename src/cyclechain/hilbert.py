"""Exact Hilbert series of the face ring of a spanning complex.

All arithmetic is plain Python integers.  For a complex of dimension d the
series is h(t) / (1-t)^(d+1), where h is the h-vector (Stanley,
Combinatorics and Commutative Algebra, ch. II).
"""

from dataclasses import dataclass

from . import oracle
from .chain_graph import ChainGraph
from .simplicial import FVector
from .util import binom


@dataclass(frozen=True)
class IntPolynomial:
    """Dense integer polynomial; coefficients[d] is the degree-d coefficient."""

    coefficients: tuple[int, ...]

    @classmethod
    def of(cls, coeffs) -> "IntPolynomial":
        c = list(coeffs)
        while c and c[-1] == 0:
            c.pop()
        return cls(tuple(c))

    def __call__(self, x: int) -> int:
        acc = 0
        for c in reversed(self.coefficients):
            acc = acc * x + c
        return acc


@dataclass(frozen=True)
class RationalSeries:
    """numerator / (1-t)^denom_power."""

    numerator: IntPolynomial
    denom_power: int

    def expand(self, upto: int) -> list[int]:
        """Power-series coefficients for degrees 0..upto.

        Uses 1/(1-t)^k = sum_j C(j+k-1, k-1) t^j; a zero denominator power
        just reads the numerator off directly.
        """
        if upto < 0:
            raise ValueError(f"need a degree >= 0, got {upto}")
        num = self.numerator.coefficients
        k = self.denom_power
        if k == 0:
            return [num[j] if j < len(num) else 0 for j in range(upto + 1)]
        out = []
        for j in range(upto + 1):
            out.append(
                sum(c * binom(j - a + k - 1, k - 1) for a, c in enumerate(num))
            )
        return out


def hilbert_series(fv: FVector) -> RationalSeries:
    """H = 1 + sum_i f_i t^(i+1) / (1-t)^(i+1) = h(t) / (1-t)^(d+1), with
    h_k = sum_{i<=k} (-1)^(k-i) C(d+1-i, k-i) f_(i-1) and f_(-1) = 1.

    Trailing zeros of f are dropped first, so d is the true dimension and
    h(1) = f_d is nonzero: the fraction is in lowest terms.
    """
    f = list(fv.f)
    while f and f[-1] == 0:
        f.pop()
    f = [1] + f
    d = len(f) - 2
    h = [
        sum((-1) ** (k - i) * binom(d + 1 - i, k - i) * f[i] for i in range(k + 1))
        for k in range(d + 2)
    ]
    return RationalSeries(IntPolynomial.of(h), d + 1)


def hilbert_function_oracle(g: ChainGraph, upto: int) -> list[int]:
    """[HF(0), ..., HF(upto)] for the face ring, independently: from the
    faces of the downset of the brute-force spanning trees, which read
    only the graph.

    A degree-j monomial survives iff its support is a face; there are
    C(j-1, s-1) monomials of degree j with a given support of size s, so
    HF(j) = sum_s f_(s-1) C(j-1, s-1) and HF(0) = 1.
    """
    if upto < 0:
        raise ValueError(f"need a degree >= 0, got {upto}")
    if upto == 0:
        return [1]  # without counting the faces
    trees = oracle.spanning_tree_masks(g.endpoints, g.num_vertices)
    fv = FVector(tuple(oracle.downset_face_counts(trees)))
    return _hilbert_function_from_faces(fv, upto)


def _hilbert_function_from_faces(fv: FVector, upto: int) -> list[int]:
    """HF(j) = sum_s f_(s-1) C(j-1, s-1) from face counts for j = 0..upto,
    with HF(0) = 1."""
    return [1] + [
        sum(fi * binom(j - 1, s) for s, fi in enumerate(fv.f))
        for j in range(1, upto + 1)
    ]
