"""Channels, Markov maps, and embedding/co-embedding pairs.

A channel is a column-stochastic kernel W(y|x) (columns indexed by the input
point x); the induced Markov map is p -> W p. Tangent vectors push forward
through the kernel; cotangent vectors pull back through the conditional
expectation E_W(A|x) = sum_y W(y|x) A(y).

A surjection F between sample spaces generates the deterministic
co-embedding q -> q^F (block sums over fibers of F). Splitting each fiber
with a family of conditional distributions r_x supported exactly on F^{-1}(x)
gives the matching embedding; choosing r_x(y) = q(y)/q^F(x) makes a given q
reachable, which is the canonical pair used by the invariance batteries.
"""
from __future__ import annotations

import numbers
from dataclasses import dataclass
from functools import cached_property

import numpy as np

from .errors import (
    BadSize,
    BasePointMismatch,
    InvalidChannel,
    InvalidParameter,
    NotNormalized,
    NotSurjective,
    SizeMismatch,
)
from .geometry import CotangentVector, TangentVector, delta
from .simplex import Distribution, RandomVariable, SampleSpace

#: Column-sum tolerance for channel kernels.
KERNEL_COLUMN_TOL = 1e-12
#: Pre-mix floor for randomly drawn channels; keeps pushed-forward
#: distributions comfortably interior for downstream metric evaluation.
RANDOM_CHANNEL_FLOOR = 1e-3


def require_kernel(k: np.ndarray) -> None:
    """The ``Channel`` checks on kernels (n_out, n_in), stacked along leading
    axes or not: nonnegative entries, unit column sums, every output reached.
    Each check runs over the whole stack before the next one."""
    # Written so that NaN fails both tests.
    if not (k >= 0.0).all():
        raise InvalidChannel("kernel entries must be nonnegative")
    col_sums = k.sum(axis=-2)
    deviation = abs(col_sums - 1.0)
    if not deviation.max() <= KERNEL_COLUMN_TOL:
        normalized = deviation.max(axis=-1) <= KERNEL_COLUMN_TOL
        bad = col_sums.reshape(-1, col_sums.shape[-1])[np.argmin(normalized.reshape(-1))]
        raise NotNormalized(f"column sums {bad.tolist()} deviate from 1")
    if (k.max(axis=-1) <= 0.0).any():
        raise NotSurjective("some output has no positive kernel entry")


@dataclass(frozen=True, eq=False)
class Channel:
    """Surjective column-stochastic kernel W(y|x), shape (n_out, n_in)."""

    in_space: SampleSpace
    out_space: SampleSpace
    kernel: np.ndarray

    def __post_init__(self) -> None:
        k = np.array(self.kernel, dtype=float)
        if k.shape != (self.out_space.size, self.in_space.size):
            raise SizeMismatch(
                f"kernel shape {k.shape} != "
                f"{(self.out_space.size, self.in_space.size)}"
            )
        require_kernel(k)
        k.flags.writeable = False
        object.__setattr__(self, "kernel", k)


@dataclass(frozen=True, eq=False)
class Surjection:
    """Surjective map between index sets, stored 0-based."""

    domain: SampleSpace
    codomain: SampleSpace
    map0: tuple[int, ...]

    def __post_init__(self) -> None:
        if self.codomain.size > self.domain.size:
            raise BadSize("codomain cannot be larger than the domain")
        if len(self.map0) != self.domain.size:
            raise SizeMismatch(
                f"map length {len(self.map0)} != domain size {self.domain.size}"
            )
        values = np.asarray(self.map0, dtype=int)
        if values.min() < 0 or values.max() >= self.codomain.size:
            raise BadSize("map values out of codomain range")
        if len(set(self.map0)) != self.codomain.size:
            raise NotSurjective("map does not attain every codomain value")
        object.__setattr__(self, "map0", tuple(int(v) for v in values))

    @classmethod
    def from_one_based(cls, values) -> Surjection:
        """The surjection sending point w to values[w], both counted from 1."""
        values = list(values)
        if not values:
            raise BadSize(f"a surjection needs at least one value, got {values!r}")
        for v in values:
            if isinstance(v, bool) or not isinstance(v, numbers.Integral):
                raise InvalidParameter(f"surjection values must be integers, not {v!r}")
        return cls(SampleSpace(len(values)), SampleSpace(max(values)), tuple(int(v) - 1 for v in values))

    def compose_variable(self, a: RandomVariable) -> RandomVariable:
        """A o F: lift a variable on the codomain to the domain."""
        if a.space != self.codomain:
            raise SizeMismatch("variable is not on the codomain")
        return RandomVariable(self.domain, a.values[np.asarray(self.map0)])

    def marginalize(self, q: Distribution) -> Distribution:
        """q^F: block sums of q over the fibers of F."""
        if q.space != self.domain:
            raise SizeMismatch("distribution is not on the domain")
        sums = np.bincount(
            np.asarray(self.map0), weights=q.weights, minlength=self.codomain.size
        )
        return Distribution(self.codomain, sums)


def apply(channel: Channel, p: Distribution) -> Distribution:
    """Markov map p -> W p."""
    if p.space != channel.in_space:
        raise SizeMismatch("distribution is not on the channel input space")
    return Distribution(channel.out_space, channel.kernel @ p.weights)


def pushforward(channel: Channel, p: Distribution, x: TangentVector) -> TangentVector:
    """Differential of the Markov map: m_rep -> W m_rep."""
    if x.base != p:
        raise BasePointMismatch("tangent vector is not based at p")
    return TangentVector(apply(channel, p), channel.kernel @ x.m_rep)


def conditional_expectation(channel: Channel, a: RandomVariable) -> RandomVariable:
    """E_W(A|x) = sum_y W(y|x) A(y); linear, fixes constants."""
    if a.space != channel.out_space:
        raise SizeMismatch("variable is not on the channel output space")
    return RandomVariable(channel.in_space, channel.kernel.T @ a.values)


def pullback(channel: Channel, p: Distribution, alpha: CotangentVector) -> CotangentVector:
    """Transpose of the differential at the explicit base point p.

    The pulled-back class is represented by the conditional expectation of
    any representative. The base point must be given: the dual map depends
    on it, so it is never inferred from alpha.
    """
    if alpha.base != apply(channel, p):
        raise BasePointMismatch("covector is not based at the image of p")
    return delta(p, conditional_expectation(channel, alpha.rep))


def coembedding(surjection: Surjection) -> Channel:
    """Deterministic channel of F: W(x|y) = 1 iff x = F(y).

    Applying it marginalizes: q -> q^F.
    """
    n, m = surjection.domain.size, surjection.codomain.size
    kernel = np.zeros((m, n))
    kernel[np.asarray(surjection.map0), np.arange(n)] = 1.0
    return Channel(surjection.domain, surjection.codomain, kernel)


@dataclass(frozen=True, eq=False)
class EmbeddingPair:
    """Embedding/co-embedding pair generated by (F, {r_x})."""

    surjection: Surjection
    fiber_distributions: np.ndarray  # rows r_x, shape (m, n)

    def __post_init__(self) -> None:
        m = self.surjection.codomain.size
        n = self.surjection.domain.size
        r = np.array(self.fiber_distributions, dtype=float)
        if r.shape != (m, n):
            raise SizeMismatch(f"fiber matrix shape {r.shape} != {(m, n)}")
        # Supports first, then sums; both written so that NaN fails them.
        on_fiber = np.asarray(self.surjection.map0) == np.arange(m)[:, None]
        bad = np.where(on_fiber, ~(r > 0.0), r != 0.0).any(axis=1)
        if np.any(bad):
            x = int(np.argmax(bad))
            raise InvalidChannel(
                f"support of r_{x + 1} must be exactly the fiber of {x + 1}"
            )
        if not np.max(np.abs(r.sum(axis=1) - 1.0)) <= KERNEL_COLUMN_TOL:
            raise NotNormalized("every r_x must sum to 1")
        r.flags.writeable = False
        object.__setattr__(self, "fiber_distributions", r)

    @cached_property
    def embedding_channel(self) -> Channel:
        """Channel of the embedding: V(y|x) = r_x(y)."""
        return Channel(
            self.surjection.codomain,
            self.surjection.domain,
            self.fiber_distributions.T.copy(),
        )

    @cached_property
    def coembedding_channel(self) -> Channel:
        return coembedding(self.surjection)


def canonical_embedding(surjection: Surjection, q: Distribution) -> EmbeddingPair:
    """The pair whose embedding passes through q: r_x(y) = q(y)/q^F(x)."""
    if q.space != surjection.domain:
        raise SizeMismatch("distribution is not on the domain of the surjection")
    marginal = surjection.marginalize(q)
    fiber_of = np.asarray(surjection.map0)
    r = np.zeros((surjection.codomain.size, surjection.domain.size))
    r[fiber_of, np.arange(surjection.domain.size)] = q.weights / marginal.weights[fiber_of]
    return EmbeddingPair(surjection, r)


def random_channel(n_in: int, n_out: int, seed: int) -> Channel:
    """Reproducible surjective channel.

    Each column is a flat Dirichlet draw flattened into
    ``[floor, 1 - (n_out - 1) * floor]``, so every kernel entry is >= floor
    and surjectivity holds with margin.
    """
    if n_in < 2 or n_out < 2:
        raise BadSize("channel spaces need size >= 2")
    if n_out * RANDOM_CHANNEL_FLOOR >= 1.0:
        raise BadSize(f"output space too large for floor {RANDOM_CHANNEL_FLOOR}")
    rng = np.random.default_rng(seed)
    columns = rng.dirichlet(np.ones(n_out), size=n_in).T
    kernel = RANDOM_CHANNEL_FLOOR + (1.0 - n_out * RANDOM_CHANNEL_FLOOR) * columns
    return Channel(SampleSpace(n_in), SampleSpace(n_out), kernel)


def random_surjection(n: int, m: int, seed: int) -> Surjection:
    """Reproducible surjection from an n-point onto an m-point space."""
    if not 2 <= m <= n:
        raise BadSize(f"need 2 <= m <= n, got m={m}, n={n}")
    rng = np.random.default_rng(seed)
    values = np.concatenate([np.arange(m), rng.integers(0, m, size=n - m)])
    rng.shuffle(values)
    return Surjection(SampleSpace(n), SampleSpace(m), tuple(int(v) for v in values))
