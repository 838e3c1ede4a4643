"""Facet ideal of the spanning complex: covers, decomposition, colon steps.

Square-free monomials are EdgeSet supports throughout, so ideal arithmetic
is bitmask arithmetic:

  * membership: m is in I iff some generator's support is a subset of m's;
  * colon by a square-free monomial: generator supports minus the monomial's;
  * intersection of variable primes: one pick per prime, unioned, minimal.

The intersection folds one prime P into a minimal family at a time.  A
generator k that meets P stays as it is; a generator m that misses P grows
to m | v for every v in P.  Of all these candidates only a kept k can
divide a grown m | v, and only when v is in k and k - v lies inside m, so
that one test replaces the all-pairs minimalization of the products.

The decomposition route (the exhaustive minimal covers, intersected as
variable primes) and the direct facet ideal must produce identical minimal
generating systems; the verify module holds them to that.

The quotient certificate machinery checks that a given generator ordering
has every prefix colon generated in minimum degree exactly one, which is
the shellability witness the Cohen-Macaulay verdict rests on.  A failed
certificate only condemns the ordering, never the ring, so the verdict
falls back to "inconclusive" rather than "not CM".

The certificate takes ideals whose generators share one degree (every
facet ideal does).  Then the prefix colon at m_p has mindeg 1 exactly when
some exchange m_p - x + y, for x in m_p and y outside it, is an earlier
generator, so the certificate and its replay look exchanges up in a dict
from generator mask to position instead of scanning every earlier
generator.  A failing step reports its true mindeg through colon_mindeg
on the earlier generators.
"""

import itertools
from dataclasses import dataclass

from .chain_graph import ChainGraph
from .edgeset import EdgeSet
from .errors import CapacityExceeded, CertificateFails, EmptyIdeal
from .simplicial import SimplicialComplex
from . import oracle


def _minimalize(masks) -> list[int]:
    """Inclusion-minimal members, sorted by (size, value)."""
    uniq = sorted(set(masks), key=lambda m: (m.bit_count(), m))
    keep: list[int] = []
    for m in uniq:
        if not any(k & m == k for k in keep):
            keep.append(m)
    return keep


@dataclass(frozen=True)
class MonomialIdeal:
    """Square-free monomial ideal with a minimal generating system."""

    ground_size: int
    generators: tuple[EdgeSet, ...]

    @classmethod
    def of(cls, gens, ground_size: int) -> "MonomialIdeal":
        masks = _minimalize(g.mask for g in gens)
        return cls(ground_size, tuple(EdgeSet(m, ground_size) for m in masks))

    def contains(self, m: EdgeSet) -> bool:
        return any(g.issubset(m) for g in self.generators)

    def __len__(self) -> int:
        return len(self.generators)


def facet_ideal(c: SimplicialComplex) -> MonomialIdeal:
    """Generators are the facets, read as square-free supports.

    The complex has already rejected duplicate facets and facets of mixed
    sizes, so no facet divides another and the facets are a minimal
    generating system as they stand; they only need the (size, value) order
    that MonomialIdeal.of gives.
    """
    gens = sorted(c.facets, key=lambda f: (len(f), f.mask))
    return MonomialIdeal(c.ground_size, tuple(gens))


def minimal_vertex_covers_oracle(c: SimplicialComplex) -> list[EdgeSet]:
    """All minimal covers by exhaustive transversal search (oracle route)."""
    masks = oracle.minimal_hitting_sets([f.mask for f in c.facets])
    return [EdgeSet(m, c.ground_size) for m in masks]


def covers_lemma41(g: ChainGraph) -> list[EdgeSet]:
    """The predicted minimal covers, straight from the own edges.

    Every forest edge is a singleton cover; inside each cycle, any two
    distinct own edges (the edges on that cycle alone) form one.
    """
    covers = [g.edge_set(1 << e) for e in range(g.n - g.t, g.n)]
    for own in g.own_masks:
        for a, b in itertools.combinations(_bits(own), 2):
            covers.append(g.edge_set(1 << a | 1 << b))
    covers.sort(key=lambda s: (len(s), s.mask))
    return covers


def _fold_prime(cur: list[int], prime: int) -> list[int]:
    """The minimal generators of (cur) intersected with the prime whose
    variables are the bits of prime, for an antichain cur."""
    kept = [k for k in cur if k & prime]
    missing = [m for m in cur if not m & prime]
    rests = [
        (1 << v, [k ^ 1 << v for k in kept if k >> v & 1]) for v in _bits(prime)
    ]
    grown = [
        m | bit
        for m in missing
        for bit, rest in rests
        if not any(k & m == k for k in rest)
    ]
    return kept + grown


def intersect_primes(
    primes, ground_size: int, cap: int = 10**6
) -> MonomialIdeal:
    """Intersection of variable primes, each given by the EdgeSet of its
    variables, as a square-free monomial ideal; EmptyIdeal for no primes,
    ValueError for a prime without variables.

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
    cur = [1 << v for v in primes[0]]
    for p in primes[1:]:
        if len(cur) * len(p) > cap:
            raise CapacityExceeded(
                f"prime intersection step would form {len(cur) * len(p)} products"
            )
        cur = _fold_prime(cur, p.mask)
    cur.sort(key=lambda m: (m.bit_count(), m))
    return MonomialIdeal(
        ground_size, tuple(EdgeSet(m, ground_size) for m in cur)
    )


def colon_mindeg(
    ideal: MonomialIdeal, m: EdgeSet
) -> tuple[int, tuple[EdgeSet, ...]]:
    """Minimum generator degree of (ideal : m), with the witnesses.

    Each generator g contributes g minus m's support to the colon.  A
    minimum-degree difference is automatically a minimal generator, so no
    minimalization pass is needed to find the mindeg.  Degree 0 (an empty
    difference) means m already lies in the ideal; the unit ideal's mindeg
    is 0 by convention.
    """
    if not ideal.generators:
        raise EmptyIdeal("colon of the zero ideal has no generators")
    diffs = [(gen - m) for gen in ideal.generators]
    mindeg = min(len(d) for d in diffs)
    witnesses = sorted(
        {d.mask for d in diffs if len(d) == mindeg}
    )
    return mindeg, tuple(EdgeSet(w, ideal.ground_size) for w in witnesses)


def paper_ordering(g: ChainGraph, ideal: MonomialIdeal) -> list[int]:
    """Ordering of the facet ideal's generators by removal-set blocks.

    Returns positions in ideal.generators.  Each generator is a spanning
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
        return 1 if run == g.r - 1 else g.r - run

    removals = [g.full_mask ^ gen.mask for gen in ideal.generators]
    return sorted(
        range(len(removals)),
        key=lambda i: (block(removals[i]), _bits(removals[i])),
    )


@dataclass(frozen=True)
class QuotientCertificate:
    """Witness that an ordering has quasi-linear quotients.

    witnesses[p-2] is the variable whose product with the p-th ordered
    generator falls into the ideal of the earlier ones (p counted from 1;
    the first generator needs no witness).
    """

    ordering: tuple[int, ...]
    witnesses: tuple[int, ...]


def _bits(mask: int) -> list[int]:
    return [i for i in range(mask.bit_length()) if mask >> i & 1]


def _exchange_witness(
    position: dict[int, int], m: int, p: int, ground: int
) -> int | None:
    """Smallest y outside m such that m - x + y, for some x in m, is a
    generator placed before position p; None when no exchange hits."""
    inside = _bits(m)
    for y in range(ground):
        if not m >> y & 1:
            grown = m | 1 << y
            if any(position.get(grown ^ 1 << x, p) < p for x in inside):
                return y
    return None


def _require_one_degree(gens) -> None:
    if len({len(g) for g in gens}) > 1:
        raise ValueError("the certificate needs generators of one degree")


def quasi_linear_certificate(
    ideal: MonomialIdeal, ordering
) -> QuotientCertificate:
    """Check mindeg((m_1..m_{p-1}) : m_p) == 1 along the ordering.

    Raises CertificateFails at the first position where the prefix colon's
    minimum degree is not 1, and ValueError for generators of more than
    one degree.  Success returns the smallest witness variable for every
    step.

    Distinct generators of one degree never nest, so the colon has mindeg
    1 exactly when an exchange m_p - x + y is an earlier generator, and
    its smallest witness is the smallest such y.  Each step tries y
    ascending and x over m_p against a dict of positions, about
    |m_p| (n - |m_p|) lookups.  Only a step with no hit runs colon_mindeg
    on the earlier generators, to report its true mindeg.
    """
    gens = ideal.generators
    ordering = tuple(ordering)
    if sorted(ordering) != list(range(len(gens))):
        raise ValueError("ordering is not a permutation of the generators")
    if not gens:
        raise EmptyIdeal("certificate needs at least one generator")
    _require_one_degree(gens)
    masks = [gens[i].mask for i in ordering]
    position = {m: p for p, m in enumerate(masks)}
    witnesses: list[int] = []
    for p in range(1, len(masks)):
        var = _exchange_witness(position, masks[p], p, ideal.ground_size)
        if var is None:
            earlier = MonomialIdeal(
                ideal.ground_size, tuple(gens[i] for i in ordering[:p])
            )
            raise CertificateFails(p + 1, colon_mindeg(earlier, gens[ordering[p]])[0])
        witnesses.append(var)
    return QuotientCertificate(ordering, tuple(witnesses))


def replay_certificate(ideal: MonomialIdeal, cert: QuotientCertificate) -> bool:
    """Re-verify a certificate from scratch: v * m_p must be a member of
    the ideal of the earlier generators, for every step.  An ordering that
    is not a permutation of the generators certifies nothing, and
    generators of more than one degree raise ValueError.

    With generators of one degree k, the only generators that can divide
    the k+1 variables of v * m_p are (m_p + v) - x for x in it, so
    membership is |m_p| + 1 position lookups.
    """
    gens = ideal.generators
    if sorted(cert.ordering) != list(range(len(gens))):
        return False
    _require_one_degree(gens)
    masks = [gens[i].mask for i in cert.ordering]
    position = {m: p for p, m in enumerate(masks)}
    for p in range(1, len(masks)):
        target = masks[p] | 1 << cert.witnesses[p - 1]
        if not any(position.get(target ^ 1 << x, p) < p for x in _bits(target)):
            return False
    return True


@dataclass(frozen=True)
class CMVerdict:
    certified: bool
    detail: str
    certificate: QuotientCertificate | None
    failed_step: int | None = None
    failed_mindeg: int | None = None


def cohen_macaulay_verdict(g: ChainGraph, ideal: MonomialIdeal) -> CMVerdict:
    """Purity plus a successful quotient certificate on the block ordering
    of ideal, the facet ideal of g's spanning complex.

    Shellability through one ordering is sufficient but not necessary, so
    a failed certificate yields "inconclusive", never a negative.
    """
    try:
        cert = quasi_linear_certificate(ideal, paper_ordering(g, ideal))
    except CertificateFails as e:
        return CMVerdict(
            certified=False,
            detail=f"inconclusive: colon at step {e.step} has mindeg {e.mindeg}",
            certificate=None,
            failed_step=e.step,
            failed_mindeg=e.mindeg,
        )
    return CMVerdict(
        certified=True,
        detail="pure complex with quasi-linear quotients on the block ordering",
        certificate=cert,
    )
