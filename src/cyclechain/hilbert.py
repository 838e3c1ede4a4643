"""Exact Hilbert series of the face ring of a spanning complex.

All arithmetic is plain Python integers.  For a complex of dimension d the
series is h(t) / (1-t)^(d+1), where h is the h-vector (Stanley,
Combinatorics and Commutative Algebra, ch. II).
"""

import itertools
from dataclasses import dataclass

from . import oracle
from .chain_graph import ChainGraph
from .util import binom


@dataclass(frozen=True)
class RationalSeries:
    """numerator / (1-t)^denom_power, where numerator[k] is the coefficient
    of t^k (for a face ring, the h-vector)."""

    numerator: tuple[int, ...]
    denom_power: int

    def expand(self, upto: int) -> list[int]:
        """Power-series coefficients for degrees 0..upto.

        Dividing by 1-t takes running sums, so the numerator, padded or cut
        to upto+1 coefficients, is summed up denom_power times.
        """
        if upto < 0:
            raise ValueError(f"need a degree >= 0, got {upto}")
        coeffs = (list(self.numerator) + [0] * (upto + 1))[: upto + 1]
        for _ in range(self.denom_power):
            coeffs = list(itertools.accumulate(coeffs))
        return coeffs


def hilbert_series(fv: tuple[int, ...]) -> RationalSeries:
    """H = 1 + sum_i f_i t^(i+1) / (1-t)^(i+1) = h(t) / (1-t)^(d+1), with
    h_k = sum_{i<=k} (-1)^(k-i) C(d+1-i, k-i) f_(i-1) and f_(-1) = 1.

    Trailing zeros of f are dropped first, so d is the true dimension and
    h(1) = f_d is nonzero: the fraction is in lowest terms.
    """
    f = [1, *fv]
    while f[-1] == 0:  # f[0] = 1 stops it
        f.pop()
    d = len(f) - 2
    h = [
        sum((-1) ** (k - i) * binom(d + 1 - i, k - i) * f[i] for i in range(k + 1))
        for k in range(d + 2)
    ]
    while h[-1] == 0:  # cone points (forest edges) leave h a zero tail
        h.pop()
    return RationalSeries(tuple(h), d + 1)


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
    fv = tuple(oracle.downset_face_counts(trees))
    return _hilbert_function_from_faces(fv, upto)


def _hilbert_function_from_faces(fv: tuple[int, ...], upto: int) -> list[int]:
    """HF(j) = sum_s f_(s-1) C(j-1, s-1) from face counts for j = 0..upto,
    with HF(0) = 1."""
    return [1] + [
        sum(fi * binom(j - 1, s) for s, fi in enumerate(fv))
        for j in range(1, upto + 1)
    ]
