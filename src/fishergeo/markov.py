"""Channels, Markov maps, and embedding/co-embedding pairs.

A channel is a column-stochastic kernel W(y|x) (columns indexed by the input
point x); the induced Markov map is p -> W p. Tangent vectors push forward
through the kernel; cotangent vectors pull back through the conditional
expectation E_W(A|x) = sum_y W(y|x) A(y). Each operation has one arithmetic
over stacked rows (``apply_rows``, ``conditional_expectation_rows``,
``compose_variable_rows``, ``coembedding_kernel_rows``,
``canonical_embedding_rows``), as the checks of a constructor do
(``require_maps``, ``require_fibers``): the objects use it on a batch of
one, and the draws and the pair kernels on their stacks. A kernel reads its
pairs, 0-based maps and fiber matrices, through ``pair_stacks`` only.

A surjection F between sample spaces generates the deterministic
co-embedding q -> q^F (block sums over fibers of F). Splitting each fiber
with a family of conditional distributions r_x supported exactly on F^{-1}(x)
gives the matching embedding; choosing r_x(y) = q(y)/q^F(x) makes a given q
reachable, which is the canonical pair used by the invariance batteries.
"""
from __future__ import annotations

from dataclasses import dataclass
from functools import cached_property
from typing import Iterator

import numpy as np

from .errors import (
    BadSize,
    BasePointMismatch,
    InvalidChannel,
    InvalidParameter,
    NotNormalized,
    NotSurjective,
    SizeMismatch,
    by_shape,
    is_integer,
    require_integer,
    require_seed,
)
from .geometry import CotangentVector, TangentVector, delta
from .simplex import Distribution, RandomVariable, SampleSpace, interior_rows, require_weights

#: Column-sum tolerance for channel kernels.
KERNEL_COLUMN_TOL = 1e-12
#: Pre-mix floor for randomly drawn channels; keeps pushed-forward
#: distributions comfortably interior for downstream metric evaluation.
RANDOM_CHANNEL_FLOOR = 1e-3


def require_kernel(k: np.ndarray) -> np.ndarray:
    """The ``Channel`` checks on kernels (n_out, n_in), stacked along leading
    axes or not: nonnegative entries, unit column sums, every output reached.
    Each check runs over the whole stack before the next one. Returns ``k``."""
    # Written so that NaN fails both tests.
    nonnegative = k >= 0.0
    if np.count_nonzero(nonnegative) != nonnegative.size:
        raise InvalidChannel("kernel entries must be nonnegative")
    col_sums = k.sum(axis=-2)
    deviation = abs(col_sums - 1.0)
    if not deviation.max() <= KERNEL_COLUMN_TOL:
        normalized = deviation.max(axis=-1) <= KERNEL_COLUMN_TOL
        bad = col_sums.reshape(-1, col_sums.shape[-1])[np.argmin(normalized.reshape(-1))]
        raise NotNormalized(f"column sums {bad.tolist()} deviate from 1")
    if np.count_nonzero(k.max(axis=-1) <= 0.0):
        raise NotSurjective("some output has no positive kernel entry")
    return k


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
        if len(self.map0) != self.domain.size:
            raise SizeMismatch(f"map length {len(self.map0)} != domain size {self.domain.size}")
        values = _integers(self.map0)
        require_maps(np.array([values]), self.codomain.size)
        object.__setattr__(self, "map0", values)

    @classmethod
    def from_one_based(cls, values) -> Surjection:
        """The surjection sending point w to values[w], both counted from 1."""
        values = _integers(list(values))
        if not values:
            raise BadSize("a surjection needs at least one value, got []")
        return cls(SampleSpace(len(values)), SampleSpace(max(values)), tuple(v - 1 for v in values))

    def compose_variable(self, a: RandomVariable) -> RandomVariable:
        """A o F: lift a variable on the codomain to the domain."""
        if a.space != self.codomain:
            raise SizeMismatch("variable is not on the codomain")
        lifted = compose_variable_rows(a.values[None], np.asarray(self.map0)[None])[0]
        return RandomVariable(self.domain, lifted)

    def marginalize(self, q: Distribution) -> Distribution:
        """q^F: block sums of q over the fibers of F, the push of q through
        ``coembedding(F)`` by ``apply_rows``, bitwise."""
        if q.space != self.domain:
            raise SizeMismatch("distribution is not on the domain")
        kernel = coembedding_kernel_rows(np.asarray(self.map0)[None], self.codomain.size)
        return Distribution(self.codomain, apply_rows(kernel, q.weights[None])[0])


def _integers(values) -> tuple[int, ...]:
    """The values as ints; one that is not an integer, a bool included, raises."""
    for v in values:
        if not is_integer(v):
            raise InvalidParameter(f"surjection values must be integers, not {v!r}")
    return tuple(int(v) for v in values)


def require_maps(maps: np.ndarray, m: int) -> np.ndarray:
    """The ``Surjection`` checks on 0-based maps (T, n) onto m points, each
    over the whole stack: m <= n, values in range, of an integer type,
    attaining every point. Returns ``maps``."""
    if m > maps.shape[-1]:
        raise BadSize("codomain cannot be larger than the domain")
    # the range first: a map holding a Python int past int64 is an object array
    if np.count_nonzero((maps < 0) | (maps >= m)):
        raise BadSize("map values out of codomain range")
    if maps.dtype.kind not in "iu":
        raise InvalidParameter(f"surjection values must be integers, not {maps.dtype}")
    attained = np.zeros((len(maps), m), dtype=bool)
    attained[np.arange(len(maps))[:, None], maps] = True
    if np.count_nonzero(attained) != attained.size:
        raise NotSurjective("map does not attain every codomain value")
    return maps


def require_fibers(maps: np.ndarray, r: np.ndarray) -> np.ndarray:
    """The ``EmbeddingPair`` checks on fiber matrices r (T, m, n) of 0-based
    maps (T, n), written so that NaN fails them: each r_x supported exactly
    on the fiber of x (the first bad r_x is named), then summing to 1."""
    on_fiber = maps[:, None, :] == np.arange(r.shape[-2])[:, None]
    bad = np.where(on_fiber, ~(r > 0.0), r != 0.0)
    if np.count_nonzero(bad):
        x = int(np.argmax(bad.any(axis=-1)[np.argmax(bad.any(axis=(-2, -1)))]))
        raise InvalidChannel(f"support of r_{x + 1} must be exactly the fiber of {x + 1}")
    if not abs(r.sum(axis=-1) - 1.0).max() <= KERNEL_COLUMN_TOL:
        raise NotNormalized("every r_x must sum to 1")
    return r


def apply_rows(kernels: np.ndarray, vectors: np.ndarray) -> np.ndarray:
    """``kernels[t] @ vectors[t]``, one matrix-vector product per vector: kernels
    (T, ..., n_out, n_in) broadcast against vectors (T, ..., n_in)."""
    return (kernels @ vectors[..., None])[..., 0]


def conditional_expectation_rows(kernels: np.ndarray, values: np.ndarray) -> np.ndarray:
    """E_W(A|x) of value rows (T, n_out) through kernels (T, n_out, n_in)."""
    return apply_rows(kernels.swapaxes(-1, -2), values)


def compose_variable_rows(values: np.ndarray, maps: np.ndarray) -> np.ndarray:
    """A o F of value rows (T, m) through 0-based maps (T, n): ``values[t][maps[t]]``."""
    return values[np.arange(len(maps))[:, None], maps]


def apply(channel: Channel, p: Distribution) -> Distribution:
    """Markov map p -> W p."""
    if p.space != channel.in_space:
        raise SizeMismatch("distribution is not on the channel input space")
    return Distribution(channel.out_space, apply_rows(channel.kernel[None], p.weights[None])[0])


def pushforward(channel: Channel, p: Distribution, x: TangentVector) -> TangentVector:
    """Differential of the Markov map: m_rep -> W m_rep."""
    if x.base != p:
        raise BasePointMismatch("tangent vector is not based at p")
    return TangentVector(apply(channel, p), apply_rows(channel.kernel[None], x.m_rep[None])[0])


def conditional_expectation(channel: Channel, a: RandomVariable) -> RandomVariable:
    """E_W(A|x) = sum_y W(y|x) A(y); linear, fixes constants."""
    if a.space != channel.out_space:
        raise SizeMismatch("variable is not on the channel output space")
    values = conditional_expectation_rows(channel.kernel[None], a.values[None])[0]
    return RandomVariable(channel.in_space, values)


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
    kernel = coembedding_kernel_rows(np.asarray(surjection.map0)[None], surjection.codomain.size)[0]
    return Channel(surjection.domain, surjection.codomain, kernel)


def coembedding_kernel_rows(maps: np.ndarray, m: int) -> np.ndarray:
    """The kernels (T, m, n), C-ordered, of ``coembedding`` of 0-based maps
    (T, n) onto m points: entry (x, y) of kernel t is 1 iff maps[t, y] = x.
    Unchecked."""
    count, n = maps.shape
    kernels = np.zeros((count, m, n))
    kernels[np.arange(count)[:, None], maps, np.arange(n)] = 1.0
    return kernels


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
        require_fibers(np.array([self.surjection.map0]), r[None])
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


def pair_stacks(surjection, fibers, *rows, key=None) -> Iterator[tuple]:
    """Pair trials (0-based maps (n,), fiber matrices (m, n), ``rows``) by shape and ``key`` entry,
    after the ``Surjection`` and ``EmbeddingPair`` checks: the trials, maps, kernels Phi
    (k, n, m), C-ordered as a Channel's, and Psi (k, m, n), and each of ``rows``."""
    columns = (surjection, fibers, *rows)
    shapes = [tuple(np.shape(column[t]) for column in columns) for t in range(len(surjection))]
    for trials in by_shape(shapes if key is None else zip(shapes, map(id, key))):
        maps = np.array([surjection[t] for t in trials]).reshape(len(trials), -1)
        r = np.array([fibers[t] for t in trials], dtype=float)
        n, m = maps.shape[1], (r.shape[1:] or (0,))[0]
        SampleSpace(n), SampleSpace(m)
        require_maps(maps, m)
        if r.shape[1:] != (m, n):
            raise SizeMismatch(f"fiber matrix shape {r.shape[1:]} != {(m, n)}")
        require_fibers(maps, r)
        stacked = [np.array([col[t] for t in trials], dtype=float).reshape(len(trials), -1) for col in rows]
        phi = np.ascontiguousarray(r.transpose(0, 2, 1))
        yield trials, maps, phi, coembedding_kernel_rows(maps, m), *stacked


def canonical_embedding(surjection: Surjection, q: Distribution) -> EmbeddingPair:
    """The pair whose embedding passes through q: r_x(y) = q(y)/q^F(x),
    ``canonical_embedding_rows`` on a batch of one."""
    if q.space != surjection.domain:
        raise SizeMismatch("distribution is not on the domain of the surjection")
    r = canonical_embedding_rows(np.asarray(surjection.map0)[None], q.weights[None], surjection.codomain.size)
    return EmbeddingPair(surjection, r[0])


def canonical_embedding_rows(maps: np.ndarray, q: np.ndarray, m: int) -> np.ndarray:
    """The fiber matrices r_x(y) = q(y)/q^F(x), (T, m, n), of 0-based maps (T, n) onto
    m points through points q (T, n). Only the marginals q^F are checked."""
    psi = coembedding_kernel_rows(maps, m)
    marginals = require_weights(apply_rows(psi, q))
    return psi * (q / marginals[np.arange(len(maps))[:, None], maps])[:, None, :]


def random_channel(n_in: int, n_out: int, seed: int) -> Channel:
    """Reproducible surjective channel: ``random_channel_kernels`` of n_in
    flat Dirichlet draws from ``default_rng(seed)``."""
    require_integer(n_in, "n_in", BadSize)
    require_integer(n_out, "n_out", BadSize)
    require_seed(seed)
    if n_in < 2 or n_out < 2:
        raise BadSize("channel spaces need size >= 2")
    columns = np.random.default_rng(seed).dirichlet(np.ones(n_out), size=n_in)
    return Channel(SampleSpace(n_in), SampleSpace(n_out), random_channel_kernels(columns))


def random_channel_kernels(columns: np.ndarray) -> np.ndarray:
    """Channel kernels (..., n_out, n_in) from flat Dirichlet draws
    (..., n_in, n_out), one per column.

    Each column is flattened into ``[floor, 1 - (n_out - 1) * floor]`` with
    ``RANDOM_CHANNEL_FLOOR``, so every kernel entry is >= floor and
    surjectivity holds with margin. The kernels are the transposed view of
    the flattened draws, so each is column-major.
    """
    n_out = columns.shape[-1]
    if n_out * RANDOM_CHANNEL_FLOOR >= 1.0:
        raise BadSize(f"output space too large for floor {RANDOM_CHANNEL_FLOOR}")
    return interior_rows(columns, RANDOM_CHANNEL_FLOOR).swapaxes(-1, -2)


def random_surjection(n: int, m: int, seed: int) -> Surjection:
    """A reproducible surjection from n onto m points: the Surjection of ``random_surjection_map``."""
    return Surjection(SampleSpace(n), SampleSpace(m), tuple(random_surjection_map(n, m, seed).tolist()))


def random_surjection_map(n: int, m: int, seed: int) -> np.ndarray:
    """The 0-based map (n,) of a reproducible surjection onto m points: every point
    once and n - m values uniform on them, shuffled by ``default_rng(seed)``."""
    require_integer(n, "n", BadSize)
    require_integer(m, "m", BadSize)
    require_seed(seed)
    if not 2 <= m <= n:
        raise BadSize(f"need 2 <= m <= n, got m={m}, n={n}")
    rng = np.random.default_rng(seed)
    values = np.concatenate([np.arange(m), rng.integers(0, m, size=n - m)])
    rng.shuffle(values)
    return values
