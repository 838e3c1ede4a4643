"""Exact Hilbert series of the face ring of a spanning complex.

All arithmetic is plain Python integers.  Series are kept in the shape
numerator / (1-t)^k, which is the only shape the face-ring formula
produces: H = 1 + sum_i f_i t^(i+1) / (1-t)^(i+1).
"""

from dataclasses import dataclass

from . import oracle
from .chain_graph import ChainGraph
from .simplicial import FVector, f_vector_bruteforce, spanning_complex
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

    @property
    def is_zero(self) -> bool:
        return not self.coefficients

    @property
    def degree(self) -> int:
        """Degree, with -1 for the zero polynomial."""
        return len(self.coefficients) - 1

    def __add__(self, other: "IntPolynomial") -> "IntPolynomial":
        a, b = self.coefficients, other.coefficients
        if len(a) < len(b):
            a, b = b, a
        out = list(a)
        for i, v in enumerate(b):
            out[i] += v
        return IntPolynomial.of(out)

    def __mul__(self, other: "IntPolynomial") -> "IntPolynomial":
        if self.is_zero or other.is_zero:
            return IntPolynomial(())
        out = [0] * (len(self.coefficients) + len(other.coefficients) - 1)
        for i, a in enumerate(self.coefficients):
            if a:
                for j, b in enumerate(other.coefficients):
                    out[i + j] += a * b
        return IntPolynomial.of(out)

    def __call__(self, x: int) -> int:
        acc = 0
        for c in reversed(self.coefficients):
            acc = acc * x + c
        return acc

    def shift(self, by: int) -> "IntPolynomial":
        """Multiply by t^by."""
        if self.is_zero:
            return self
        return IntPolynomial((0,) * by + self.coefficients)


def one_minus_t_power(k: int) -> IntPolynomial:
    """(1-t)^k with alternating binomial coefficients."""
    return IntPolynomial.of(
        (-1) ** j * binom(k, j) for j in range(k + 1)
    )


def _divide_by_one_minus_t(p: IntPolynomial) -> IntPolynomial:
    """Exact quotient p / (1-t); requires p(1) == 0.

    If p = (1-t) q then q's coefficients are the prefix sums of p's, and
    the final prefix sum p(1) vanishes.  Callers only divide after checking
    p(1) == 0, so a nonzero p(1) is an internal error, not bad input.
    """
    if p(1) != 0:
        raise ArithmeticError("polynomial is not divisible by 1-t")
    out = []
    acc = 0
    for c in p.coefficients[:-1]:
        acc += c
        out.append(acc)
    return IntPolynomial.of(out)


@dataclass(frozen=True)
class RationalSeries:
    """numerator / (1-t)^denom_power, not necessarily in lowest terms.

    The constructor keeps whatever shape it is given so that equivalent
    un-normalized forms can be expressed; normalized() produces the
    canonical representative with (1-t) fully cancelled.
    """

    numerator: IntPolynomial
    denom_power: int

    @classmethod
    def normalized(cls, numerator: IntPolynomial, denom_power: int) -> "RationalSeries":
        if numerator.is_zero:
            return cls(numerator, 0)
        while denom_power > 0 and numerator(1) == 0:
            numerator = _divide_by_one_minus_t(numerator)
            denom_power -= 1
        return cls(numerator, denom_power)

    @property
    def is_normalized(self) -> bool:
        if self.numerator.is_zero:
            return self.denom_power == 0
        return self.denom_power == 0 or self.numerator(1) != 0

    def __add__(self, other: "RationalSeries") -> "RationalSeries":
        k = max(self.denom_power, other.denom_power)
        a = self.numerator * one_minus_t_power(k - self.denom_power)
        b = other.numerator * one_minus_t_power(k - other.denom_power)
        return RationalSeries.normalized(a + b, k)

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
    """H = 1 + sum_i f_i t^(i+1) / (1-t)^(i+1), normalized.

    Over the common denominator (1-t)^(d+1) the numerator is
    (1-t)^(d+1) + sum_i f_i t^(i+1) (1-t)^(d-i).
    """
    d = fv.dim
    num = one_minus_t_power(d + 1)
    for i, fi in enumerate(fv.f):
        term = one_minus_t_power(d - i).shift(i + 1)
        num = num + IntPolynomial((fi,)) * term
    return RationalSeries.normalized(num, d + 1)


def hilbert_function_oracle(
    g: ChainGraph, upto: int, literal: bool = False, cap: int = 1 << 24
) -> list[int]:
    """[HF(0), ..., HF(upto)] for the face ring, independently, from one
    pass over the faces.

    A degree-j monomial survives iff its support is a face; there are
    C(j-1, s-1) monomials of degree j with a given support of size s, so
    HF(j) = sum_s f_(s-1) C(j-1, s-1) and HF(0) = 1.  With literal=True the
    monomials are enumerated one by one instead (tiny inputs only).
    """
    if upto < 0:
        raise ValueError(f"need a degree >= 0, got {upto}")
    if upto == 0:
        return [1]  # without counting the faces
    c = spanning_complex(g)
    if literal:
        faces = oracle.downset_faces([tr.mask for tr in c.facets], cap)
        return [
            oracle.count_monomials_supported_on(faces, g.n, j)
            for j in range(upto + 1)
        ]
    return _hilbert_function_from_faces(f_vector_bruteforce(c, cap), upto)


def _hilbert_function_from_faces(fv: FVector, upto: int) -> list[int]:
    """HF(j) = sum_s f_(s-1) C(j-1, s-1) from face counts for j = 0..upto,
    with HF(0) = 1."""
    return [1] + [
        sum(fi * binom(j - 1, s) for s, fi in enumerate(fv.f))
        for j in range(1, upto + 1)
    ]
