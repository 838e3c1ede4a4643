"""Spanning-tree complexes of chains of cycles.

Build the graph family, enumerate spanning trees by the removal-class
characterization, compute f-vectors and exact Hilbert series of the
spanning complex, decompose the facet ideal through minimal vertex covers,
and certify Cohen-Macaulayness via quasi-linear quotient orderings.  Every
formula path has an independent brute-force oracle and a verify driver
that cross-checks them.
"""

from .chain_graph import (
    MAX_GROUND,
    ChainGraph,
    CompositeCycle,
    all_cycles,
    build_chain_graph,
    composite_cycle,
    composite_length,
    intersection_formula,
    intersection_report,
)
from .errors import (
    BadAttachment,
    CapacityExceeded,
    CertificateFails,
    CycleChainError,
    EmptyIdeal,
    IndexOutOfRange,
    InvalidLength,
    SearchSpaceTooLarge,
)
from .hilbert import (
    RationalSeries,
    hilbert_function_oracle,
    hilbert_series,
)
from .ideal import (
    QuotientCertificate,
    cohen_macaulay_verdict,
    colon_mindeg,
    covers_lemma41,
    facet_ideal,
    intersect_primes,
    minimal_vertex_covers_oracle,
    paper_ordering,
    quasi_linear_certificate,
    replay_certificate,
)
from .simplicial import (
    FVectorComparison,
    f_vector_bruteforce,
    f_vector_exact,
    f_vector_paper,
    f_vector_pairwise_form,
    f_vector_r2_closed_form,
    spanning_complex,
)
from .spanning import (
    count_trees_characterized,
    count_trees_kirchhoff,
    enumerate_trees_characterized,
    removal_class,
)
from .util import binom
from .verify import (
    CheckResult,
    OracleReport,
    family_instances,
    verify_family,
    verify_instance,
)

__version__ = "0.1.0"
