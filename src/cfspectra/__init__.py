"""cfspectra: certified continued fractions for real algebraic numbers.

Exact root isolation, interval-certified expansion, repetition/mirror word
detectors, matrix and linear-form identity harnesses, and PSL(2,Z) orbit
scans for Diophantine approximants.
"""

from .algebraic import (
    AlgebraicNumber,
    DyadicInterval,
    alg_equal,
    isolate_real_roots,
    moebius_apply,
    moebius_minpoly,
    quadratic_conjugate,
)
from .cf import (
    CFExpansion,
    GrowthReport,
    IdentityReport,
    PeriodicForm,
    convergents,
    detect_period,
    expand,
    growth_metrics,
    integer_nth_root,
    verify_cf_identities,
    word_matrix,
)
from .enclose import log_ratio_enclosure
from .errors import PrecisionExhausted
from .harness import (
    MirrorQuadruple,
    PairContext,
    PhiVector,
    SmallnessReport,
    check_growth_condition,
    check_L1_smallness,
    check_transport_identity,
    eval_linear_forms,
    l1_smallness_report,
    mirror_quadruple,
    phi_vector,
)
from .intervals import FInterval
from .matrices import Mat2
from .orbit import (
    ApproxRecord,
    OrbitScanResult,
    SeparationResult,
    complete_unimodular,
    enumerate_bottom_rows,
    growth_gap_scan,
    orbit_best_approximations,
    quadratic_norm,
    separation_bound,
)
from .polynomials import IntPolynomial, count_roots_in, squarefree_part
from .words import (
    RepetitionWitness,
    SharedBlockWitness,
    find_mirror_repetitions,
    find_repetitions,
    find_shared_blocks,
    normalize_witness,
    same_tail_offset,
    strictly_increasing_blocks,
    subword_complexity,
    validate_witness,
)

__version__ = "0.1.0"

__all__ = [
    "AlgebraicNumber",
    "ApproxRecord",
    "CFExpansion",
    "DyadicInterval",
    "FInterval",
    "GrowthReport",
    "IdentityReport",
    "IntPolynomial",
    "Mat2",
    "MirrorQuadruple",
    "OrbitScanResult",
    "PairContext",
    "PeriodicForm",
    "PhiVector",
    "PrecisionExhausted",
    "RepetitionWitness",
    "SeparationResult",
    "SharedBlockWitness",
    "SmallnessReport",
    "alg_equal",
    "check_L1_smallness",
    "check_growth_condition",
    "check_transport_identity",
    "complete_unimodular",
    "convergents",
    "count_roots_in",
    "detect_period",
    "enumerate_bottom_rows",
    "eval_linear_forms",
    "expand",
    "find_mirror_repetitions",
    "find_repetitions",
    "find_shared_blocks",
    "growth_gap_scan",
    "growth_metrics",
    "integer_nth_root",
    "isolate_real_roots",
    "l1_smallness_report",
    "log_ratio_enclosure",
    "mirror_quadruple",
    "moebius_apply",
    "moebius_minpoly",
    "normalize_witness",
    "orbit_best_approximations",
    "phi_vector",
    "quadratic_conjugate",
    "quadratic_norm",
    "same_tail_offset",
    "separation_bound",
    "squarefree_part",
    "strictly_increasing_blocks",
    "subword_complexity",
    "validate_witness",
    "verify_cf_identities",
    "word_matrix",
]
