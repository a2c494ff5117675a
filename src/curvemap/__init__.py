"""Exact analysis of rational maps P^1 -> P^(n-1) given by binary forms.

Everything is computed over an exact field (a large prime field by default,
optionally the rationals): the minimal syzygy matrix of the generators,
fibers of the map through generalized row ideals, the degree of the map onto
its image, the multiplicity of the image, a reparameterization reducing any
map to a birational one, and the core of the ideal in closed form.
"""

from .analysis import Analysis
from .corpus import (
    dense_corpus,
    exhaustive_monomial,
    monomial_corpus,
    random_dense,
    random_monomial,
)
from .errors import (
    CertificationFailed,
    CurvemapError,
    DegreeMismatch,
    InstanceError,
    InternalInvariantViolation,
    NotMonomial,
    ResamplingExhausted,
    SlopeNotStabilized,
    ZeroIdeal,
    ZeroRow,
)
from .fiber import (
    FiberReport,
    apply_map,
    certify_map_degree,
    fiber,
    hilbert_table_a,
    j_multiplicity,
    map_degree,
    multiplicity_a,
    row_ideal,
)
from .field import QQ, DEFAULT_PRIME, PrimeField, RationalField
from .forms import (
    BinaryForm,
    ProjPoint1,
    ProjPointN,
    constant,
    form,
    format_form,
    gcd_forms,
    li_dim,
    monomial,
    parse_form,
)
from .ideals import (
    GradedIdeal,
    ideal_equals,
    maximal_ideal_power,
    power,
    slice_rank,
)
from .monomial import MonomialParam, newton_closure, oracle_degree, oracle_phi
from .param import Parameterization
from .reparam import (
    CoreReport,
    ReparamResult,
    adjoint_of_m_power,
    core_ideal,
    express_in_subring,
    extract_reparam_basis,
    reparameterize,
)
from .selftest import run_selftest
from .syzygy import SyzygyMatrix, hilbert_burch, verify_hilbert_burch

__version__ = "0.1.0"

__all__ = [
    "Analysis",
    "BinaryForm",
    "CertificationFailed",
    "CoreReport",
    "CurvemapError",
    "DEFAULT_PRIME",
    "DegreeMismatch",
    "FiberReport",
    "GradedIdeal",
    "InstanceError",
    "InternalInvariantViolation",
    "MonomialParam",
    "NotMonomial",
    "Parameterization",
    "PrimeField",
    "ProjPoint1",
    "ProjPointN",
    "QQ",
    "RationalField",
    "ReparamResult",
    "ResamplingExhausted",
    "SlopeNotStabilized",
    "SyzygyMatrix",
    "ZeroIdeal",
    "ZeroRow",
    "adjoint_of_m_power",
    "apply_map",
    "certify_map_degree",
    "constant",
    "core_ideal",
    "dense_corpus",
    "exhaustive_monomial",
    "express_in_subring",
    "extract_reparam_basis",
    "fiber",
    "form",
    "format_form",
    "gcd_forms",
    "hilbert_burch",
    "hilbert_table_a",
    "ideal_equals",
    "j_multiplicity",
    "li_dim",
    "map_degree",
    "maximal_ideal_power",
    "monomial",
    "monomial_corpus",
    "multiplicity_a",
    "newton_closure",
    "oracle_degree",
    "oracle_phi",
    "parse_form",
    "power",
    "random_dense",
    "random_monomial",
    "reparameterize",
    "row_ideal",
    "run_selftest",
    "slice_rank",
    "verify_hilbert_burch",
]
