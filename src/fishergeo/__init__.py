"""Fisher metric and co-metric calculus on finite probability simplices.

Core objects: strictly positive distributions, random variables,
tangent/cotangent vectors, channels and Markov embedding/co-embedding
pairs, parametric models, e/m/alpha-connections, and verification
batteries for monotonicity, invariance, strong invariance, and the
constructive characterization probe for candidate bilinear families.

Importing the package loads none of its modules: an export's module is
imported on the first access to one of its names (PEP 562).
"""
import importlib

#: Each module and the names the package exports from it.
_EXPORTS = {
    "simplex": (
        "Distribution", "RandomVariable", "SampleSpace", "cov", "expect",
        "new_distribution", "sample_interior", "uniform", "variance",
    ),
    "geometry": (
        "CotangentVector", "TangentVector", "delta", "e_rep", "fisher_cometric",
        "fisher_metric", "flat", "from_e_rep", "norm_cotangent", "norm_tangent",
        "pair", "sharp",
    ),
    "models": (
        "FisherMatrix", "ParametricModel", "affine_model", "bernoulli_model",
        "categorical_model", "crb_check", "exponential_family_model", "fisher_info",
        "lifts", "restrict",
    ),
    "markov": (
        "Channel", "EmbeddingPair", "Surjection", "apply", "canonical_embedding",
        "coembedding", "conditional_expectation", "pullback", "pushforward",
        "random_channel",
    ),
    "connections": (
        "ConnectionTag", "E_CONNECTION", "M_CONNECTION", "VectorFieldOnModel",
        "coordinate_field", "covariant_derivative", "duality_check", "e_transport",
        "m_transport", "weak_invariance_check",
    ),
    "families": ("CandidateFamily", "parse_family"),
    "verify": (
        "Witness", "characterize", "check_invariance", "check_monotonicity_cometric",
        "check_monotonicity_metric", "check_prop6_identity", "check_strong_invariance",
        "probe_consistency", "probe_rational", "probe_uniform", "replay_witness",
    ),
    "batteries": ("BatteryReport", "run_battery"),
}
_MODULE_OF = {name: module for module, names in _EXPORTS.items() for name in names}

__all__ = list(_MODULE_OF)
__version__ = "0.1.0"


def __getattr__(name: str):
    if name not in _MODULE_OF:
        raise AttributeError(f"module {__name__!r} has no attribute {name!r}")
    value = getattr(importlib.import_module(f".{_MODULE_OF[name]}", __name__), name)
    globals()[name] = value
    return value


def __dir__() -> list[str]:
    return __all__
