"""Exact computation of deformed Khovanov-Lee homology over Q[t] and
Rasmussen-type s-invariants, for links in S^3 and for null-homologous links
in connected sums of S^1 x S^2 (via finite full-twist approximation).

All arithmetic is exact (fractions and sparse Q[t] monomials); there is no
floating point anywhere in the computational core.
"""

from .errors import (
    BadComponent,
    InconsistentModule,
    KhleeError,
    NonPlanar,
    NotACycle,
    NotNullHomologous,
    NotPositive,
    OrientationConflict,
    ParseError,
    ResourceLimit,
)
from .diagrams import (
    BraidWord,
    Crossing,
    OrientedDiagram,
    Resolution,
    connect_sum,
    disjoint_union,
    from_braid,
)
from .pdcode import parse_pd
from .frobenius import FrobeniusData
from .complexes import GradedComplex
from .cube import build_cube, specialize_t
from .reduction import scan_reduce
from .smith import HomologySummary, homology_qt
from .lee import (
    LeeChain,
    SReport,
    lee_generator,
    s_all_orientations,
    s_invariant,
)
from .ssr import (
    SsrDiagram,
    SsrReport,
    approx_threshold,
    bennequin_report,
    eta,
    full_twist,
    insert_twists,
    is_null_homologous,
    is_two_divisible,
    positivity_formula,
    s_ssr,
    stabilization_check,
)
from .tlscan import scan_complex

__version__ = "0.1.0"
