"""Facet ideal of the spanning complex: covers, decomposition, colon steps.

A square-free monomial is the int bitmask of its support, one bit per
edge variable, and a square-free monomial ideal is its minimal generating
system, which is unique: a plain tuple of such ints in (popcount, mask)
order.  facet_ideal takes the facets as a tuple of masks, such as
simplicial.spanning_complex(g), and checks itself that they are distinct
and of one size.  Ideal arithmetic is then bitmask arithmetic:

  * membership: m is in I iff some generator's support is a subset of m's;
  * colon by a square-free monomial: generator supports minus the monomial's;
  * intersection of variable primes: one pick per prime, unioned, minimal.

The intersection folds one prime P into a minimal family at a time.  A
generator k that meets P stays as it is; a generator m that misses P grows
to m | v for every v in P.  Of all these candidates only a kept k can
divide a grown m | v, and only when k meets P in v alone and k - v lies
inside m, so that one test replaces the all-pairs minimalization of the
products.

The decomposition route (the exhaustive minimal covers, intersected as
variable primes) and the direct facet ideal must produce identical minimal
generating systems; the verify module holds them to that.

The quotient certificate machinery checks that a given generator ordering
has every prefix colon generated in minimum degree exactly one, which is
the shellability witness the Cohen-Macaulay verdict rests on.  A failed
certificate raises CertificateFails; it only condemns the ordering, never
the ring, so a caller reports it as inconclusive rather than "not CM".

The certificate takes ideals whose generators share one degree (every
facet ideal does).  Then the prefix colon at m_p has mindeg 1 exactly when
some exchange m_p - x + y, for x in m_p and y outside it, is an earlier
generator, so the certificate and its replay look exchanges up in a dict
from generator mask to position instead of scanning every earlier
generator.  A failing step reports its true mindeg through colon_mindeg
on the earlier generators.
"""

import itertools
from typing import NamedTuple

from .chain_graph import ChainGraph
from .errors import CapacityExceeded, CertificateFails, EmptyIdeal
from . import oracle


def facet_ideal(facets) -> tuple[int, ...]:
    """Generators are the facets, bitmasks read as square-free supports.

    ValueError for an empty list, a negative mask, a repeated facet or
    facets of mixed sizes.  Distinct facets of one size never divide one
    another, so the facets that pass are a minimal generating system as
    they stand; they only need the (size, mask) order.
    """
    if not facets:
        raise ValueError("a facet ideal needs at least one facet")
    gens = tuple(sorted(facets))
    if gens[0] < 0:
        raise ValueError("a facet mask is negative")
    _require_one_degree(gens)  # so mask order is (size, mask) order
    if any(a == b for a, b in itertools.pairwise(gens)):
        raise ValueError("duplicate facets")
    return gens


def minimal_vertex_covers_oracle(facets) -> list[int]:
    """All minimal covers of the facets by exhaustive transversal search
    (oracle route)."""
    return oracle.minimal_hitting_sets(facets)


def covers_lemma41(g: ChainGraph) -> list[int]:
    """The predicted minimal covers, straight from the own edges.

    Every forest edge is a singleton cover; inside each cycle, any two
    distinct own edges (the edges on that cycle alone) form one.
    """
    covers = [1 << e for e in range(g.n - g.t, g.n)]
    for own in g.own_masks:
        for a, b in itertools.combinations(_bits(own), 2):
            covers.append(1 << a | 1 << b)
    covers.sort(key=lambda s: (s.bit_count(), s))
    return covers


def _fold_prime(cur: list[int], prime: int) -> list[int]:
    """The minimal generators of (cur) intersected with the prime whose
    variables are the bits of prime, for an antichain cur."""
    kept = [k for k in cur if k & prime]
    missing = [m for m in cur if not m & prime]
    rests: dict[int, list[int]] = {1 << v: [] for v in _bits(prime)}
    for k in kept:
        meet = k & prime
        if meet in rests:
            rests[meet].append(k ^ meet)
    grown = [
        m | bit
        for m in missing
        for bit, rest in rests.items()
        if not any(k & m == k for k in rest)
    ]
    return kept + grown


def intersect_primes(primes, *, cap: int = 10**6) -> tuple[int, ...]:
    """Intersection of variable primes, each given by the bitmask of its
    variables, as the minimal generators of a square-free monomial ideal;
    EmptyIdeal for no primes, ValueError for a prime without variables.

    Folds one prime P in at a time, keeping the family minimal.  A
    generator k that meets P stays, and every product of it is a multiple
    of it; a generator m that misses P grows to m | v for each v in P.
    Kept generators form an antichain, and so do the grown ones: m | v
    inside m' | v' forces v = v' (P meets m' | v' only in v') and then m
    inside m'.  A grown m | v never divides a kept k, since then m would
    lie strictly inside k.  So the one domination left is a kept k inside
    m | v, which needs v in k (k meets P, m | v only in v) and k - v inside
    m; each step tests that instead of minimalizing every product against
    every other.  The cap bounds the products a step would form.
    """
    primes = list(primes)
    if not primes:
        raise EmptyIdeal("cannot intersect an empty list of primes")
    if not all(primes):
        raise ValueError("a variable prime needs at least one variable")
    cur = [1 << v for v in _bits(primes[0])]
    for p in primes[1:]:
        products = len(cur) * p.bit_count()
        if products > cap:
            raise CapacityExceeded(
                f"prime intersection step would form {products} products"
            )
        cur = _fold_prime(cur, p)
    cur.sort(key=lambda m: (m.bit_count(), m))
    return tuple(cur)


def colon_mindeg(gens, m: int) -> tuple[int, tuple[int, ...]]:
    """Minimum generator degree of (I : m), with the witnesses, for the
    ideal I that gens generate.

    Each generator g contributes g minus m's support to the colon.  A
    minimum-degree difference is automatically a minimal generator, so no
    minimalization pass is needed to find the mindeg.  Degree 0 (an empty
    difference) means m already lies in I; the unit ideal's mindeg
    is 0 by convention.
    """
    if not gens:
        raise EmptyIdeal("colon of the zero ideal has no generators")
    diffs = [gen & ~m for gen in gens]
    mindeg = min(d.bit_count() for d in diffs)
    return mindeg, tuple(sorted({d for d in diffs if d.bit_count() == mindeg}))


def paper_ordering(g: ChainGraph, gens) -> list[int]:
    """Ordering of the facet ideal's generators by removal-set blocks.

    Returns positions in gens.  Each generator is a spanning
    tree of g, and its removal set is the rest of g's edges.  Block 0 is
    the single tree whose removal is every shared edge plus the first edge
    of the last cycle.  Every other removal is ranked by how long a leading
    run of shared edges it removes: the full run of r-1 comes right after
    block 0, then progressively shorter runs, with trees removing no shared
    edge last.  Ties inside a block go by the removal's label tuple.  With
    one cycle this degenerates to label order.
    """
    head = g.shared_mask | 1 << g.cycle_offsets[g.r - 1]

    def block(removed: int) -> int:
        if removed == head:
            return 0
        run = 0
        for idx in g.common_edge_indices:
            if removed >> idx & 1:
                run += 1
            else:
                break
        return g.r - run

    removals = [g.full_mask ^ gen for gen in gens]
    return sorted(
        range(len(removals)),
        key=lambda i: (block(removals[i]), _bits(removals[i])),
    )


class QuotientCertificate(NamedTuple):
    """Witness that an ordering has quasi-linear quotients, as a named
    tuple (ordering, witnesses).

    witnesses[p-2] is the variable whose product with the p-th ordered
    generator falls into the ideal of the earlier ones (p counted from 1;
    the first generator needs no witness).
    """

    ordering: tuple[int, ...]
    witnesses: tuple[int, ...]


def _bits(mask: int) -> list[int]:
    return [i for i in range(mask.bit_length()) if mask >> i & 1]


def _exchange_witness(
    position: dict[int, int], m: int, p: int, width: int
) -> int | None:
    """Smallest y < width outside m such that m - x + y, for some x in m,
    is a generator placed before position p; None when no exchange hits."""
    inside = _bits(m)
    for y in range(width):
        if not m >> y & 1:
            grown = m | 1 << y
            if any(position.get(grown ^ 1 << x, p) < p for x in inside):
                return y
    return None


def _require_one_degree(gens) -> None:
    if len({g.bit_count() for g in gens}) > 1:
        raise ValueError("generators of more than one degree")


def quasi_linear_certificate(gens, ordering) -> QuotientCertificate:
    """Check mindeg((m_1..m_{p-1}) : m_p) == 1 along the ordering.

    Raises CertificateFails at the first position where the prefix colon's
    minimum degree is not 1, and ValueError for generators of more than
    one degree.  Success returns the smallest witness variable for every
    step.

    Distinct generators of one degree never nest, so the colon has mindeg
    1 exactly when an exchange m_p - x + y is an earlier generator, and
    its smallest witness is the smallest such y.  Each step tries y
    ascending below the generators' highest variable (a y outside every
    generator cannot be a witness) and x over m_p against a dict of
    positions.  Only a step with no hit runs colon_mindeg on the earlier
    generators, to report its true mindeg.
    """
    ordering = tuple(ordering)
    if sorted(ordering) != list(range(len(gens))):
        raise ValueError("ordering is not a permutation of the generators")
    if not gens:
        raise EmptyIdeal("certificate needs at least one generator")
    _require_one_degree(gens)
    masks = [gens[i] for i in ordering]
    position = {m: p for p, m in enumerate(masks)}
    width = max(masks).bit_length()  # that of the union of the generators
    witnesses: list[int] = []
    for p in range(1, len(masks)):
        var = _exchange_witness(position, masks[p], p, width)
        if var is None:
            earlier = [gens[i] for i in ordering[:p]]
            raise CertificateFails(p + 1, colon_mindeg(earlier, gens[ordering[p]])[0])
        witnesses.append(var)
    return QuotientCertificate(ordering, tuple(witnesses))


def replay_certificate(gens, cert: QuotientCertificate) -> bool:
    """Re-verify a certificate from scratch: v * m_p must be a member of
    the ideal of the earlier generators, for every step.  An ordering that
    is not a permutation of the generators certifies nothing, and
    generators of more than one degree raise ValueError.

    With generators of one degree k, the only generators that can divide
    the k+1 variables of v * m_p are (m_p + v) - x for x in it, so
    membership is |m_p| + 1 position lookups.
    """
    if sorted(cert.ordering) != list(range(len(gens))):
        return False
    _require_one_degree(gens)
    masks = [gens[i] for i in cert.ordering]
    position = {m: p for p, m in enumerate(masks)}
    for p in range(1, len(masks)):
        target = masks[p] | 1 << cert.witnesses[p - 1]
        if not any(position.get(target ^ 1 << x, p) < p for x in _bits(target)):
            return False
    return True


def cohen_macaulay_verdict(g: ChainGraph, gens) -> QuotientCertificate:
    """The quotient certificate on the block ordering of gens, the facet
    ideal of g's spanning complex; CertificateFails at the first failing
    step.

    Shellability through one ordering is sufficient but not necessary, so
    a failed certificate leaves the verdict inconclusive, never negative.
    """
    return quasi_linear_certificate(gens, paper_ordering(g, gens))
