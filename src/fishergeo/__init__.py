"""Fisher metric and co-metric calculus on finite probability simplices.

Core objects: strictly positive distributions, random variables,
tangent/cotangent vectors, channels and Markov embedding/co-embedding
pairs, parametric models, e/m/alpha-connections, and verification
batteries for monotonicity, invariance, strong invariance, and the
constructive characterization probe for candidate bilinear families.
"""
from .simplex import (
    Distribution,
    RandomVariable,
    SampleSpace,
    cov,
    expect,
    new_distribution,
    sample_interior,
    uniform,
    variance,
)
from .geometry import (
    CotangentVector,
    TangentVector,
    delta,
    e_rep,
    fisher_cometric,
    fisher_metric,
    flat,
    from_e_rep,
    norm_cotangent,
    norm_tangent,
    pair,
    sharp,
)
from .models import (
    FisherMatrix,
    ParametricModel,
    affine_model,
    bernoulli_model,
    categorical_model,
    crb_check,
    exponential_family_model,
    fisher_info,
    lifts,
    restrict,
)
from .markov import (
    Channel,
    EmbeddingPair,
    Surjection,
    apply,
    canonical_embedding,
    coembedding,
    conditional_expectation,
    pullback,
    pushforward,
    random_channel,
)
from .connections import (
    ConnectionTag,
    E_CONNECTION,
    M_CONNECTION,
    VectorFieldOnModel,
    coordinate_field,
    covariant_derivative,
    duality_check,
    e_transport,
    m_transport,
    weak_invariance_check,
)
from .families import CandidateFamily, parse_family
from .verify import (
    Witness,
    characterize,
    check_invariance,
    check_monotonicity_cometric,
    check_monotonicity_metric,
    check_prop6_identity,
    check_strong_invariance,
    probe_consistency,
    probe_rational,
    probe_uniform,
    replay_witness,
)
from .batteries import BatteryReport, run_battery

__version__ = "0.1.0"
