"""Exact integer helpers used by the counting formulas."""

import math


def binom(a: int, b: int) -> int:
    """Binomial coefficient under the boundary convention used throughout.

    Returns 0 whenever b < 0 or b > a, and C(a, 0) = 1 for every a >= 0.
    Values come from math.comb, so arithmetic stays exact.
    """
    if b < 0 or b > a:
        return 0
    return math.comb(a, b)
