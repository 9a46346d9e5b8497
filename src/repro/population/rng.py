"""Counter-based random numbers with bit-identical numpy/python backends.

The fleet engine must produce *the same digests* whether or not numpy is
installed, across worker counts, and across cohort shardings.  Sequential
generators (``random.Random``, ``numpy.random.Generator``) cannot give that:
their streams depend on consumption order, and the two libraries do not
produce each other's bits.  Instead every draw here is a pure function of
``(seed, stream, counter)`` — the splitmix64 finalizer applied to a keyed
counter — so draw *indexing* replaces draw *ordering*:

* the pure-python path works on masked ints,
* the numpy path works on wrapping ``uint64`` arrays,

and both perform the identical 64-bit operations, so uniforms (and everything
derived from them) agree bit for bit.

Hypergeometric sampling — "how many of the ``m`` sampled servers are
attacker-controlled" — goes through :class:`HypergeomSampler`: an explicit
inverse-CDF table built *once in pure python* (exact ``math.comb`` ratios,
sequential float summation) and then shared by both backends, where
``bisect_right`` and ``numpy.searchsorted(side='right')`` agree by
construction.
"""

from __future__ import annotations

import math
import os
from bisect import bisect_right
from collections.abc import Sequence
from typing import Any, Optional

MASK64 = (1 << 64) - 1
_GOLDEN = 0x9E3779B97F4A7C15
_MIX1 = 0xBF58476D1CE4E5B9
_MIX2 = 0x94D049BB133111EB
_STREAM_SALT = 0xD6E8FEB86659FD93

#: Environment variable selecting the backend: ``auto`` (default), ``numpy``
#: (require numpy, raise if missing) or ``python`` (force the fallback).
BACKEND_ENV = "REPRO_POPULATION_BACKEND"


class BackendError(RuntimeError):
    """Raised when a requested population backend is unavailable."""


def numpy_or_none() -> Optional[Any]:
    """The numpy module when importable, else ``None``."""
    try:
        import numpy
    except ImportError:
        return None
    return numpy


def resolve_backend(name: Optional[str] = None) -> Optional[Any]:
    """Resolve a backend request to a numpy module or ``None`` (pure python).

    ``name`` overrides the :data:`BACKEND_ENV` environment variable; both
    accept ``auto`` / ``numpy`` / ``python``.
    """
    requested = (name or os.environ.get(BACKEND_ENV) or "auto").strip().lower()
    if requested == "python":
        return None
    if requested == "numpy":
        module = numpy_or_none()
        if module is None:
            raise BackendError("numpy backend requested but numpy is not installed")
        return module
    if requested == "auto":
        return numpy_or_none()
    raise ValueError(f"unknown population backend {requested!r}; "
                     f"accepted: auto, numpy, python")


def _finalize_py(z: int) -> int:
    """The splitmix64 finalizer on a masked python int."""
    z &= MASK64
    z ^= z >> 30
    z = (z * _MIX1) & MASK64
    z ^= z >> 27
    z = (z * _MIX2) & MASK64
    z ^= z >> 31
    return z


def derive_key(seed: int, stream: int) -> int:
    """Combine a seed and a stream id into one 64-bit counter key."""
    key = _finalize_py((seed & MASK64) * _GOLDEN + _STREAM_SALT)
    return _finalize_py(key ^ ((stream & MASK64) * _MIX1 & MASK64))


class CounterRNG:
    """Uniform floats in ``[0, 1)`` addressed by ``(seed, stream, counter)``.

    ``uniforms(counters)`` accepts a python sequence of counters (or a numpy
    integer array on the numpy backend) and returns the matching uniforms —
    one float per counter, independent of call batching.
    """

    def __init__(self, seed: int, stream: int = 0, backend: Optional[Any] = None) -> None:
        self.seed = seed
        self.stream = stream
        self.key = derive_key(seed, stream)
        self.np = backend

    # -- raw 64-bit words --------------------------------------------------
    def words(self, counters: Sequence[int]) -> Any:
        if self.np is not None:
            np = self.np
            z = np.asarray(counters, dtype=np.uint64)
            z = z * np.uint64(_GOLDEN) + np.uint64(self.key)
            z ^= z >> np.uint64(30)
            z *= np.uint64(_MIX1)
            z ^= z >> np.uint64(27)
            z *= np.uint64(_MIX2)
            z ^= z >> np.uint64(31)
            return z
        key = self.key
        return [_finalize_py((counter * _GOLDEN + key) & MASK64) for counter in counters]

    # -- uniforms ----------------------------------------------------------
    def uniforms(self, counters: Sequence[int]) -> Any:
        """53-bit uniforms in ``[0, 1)``, one per counter, backend-identical."""
        words = self.words(counters)
        if self.np is not None:
            np = self.np
            return (words >> np.uint64(11)).astype(np.float64) * 2.0 ** -53
        return [(word >> 11) * 2.0 ** -53 for word in words]

    def uniform_at(self, counter: int) -> float:
        """One uniform by absolute counter, as :meth:`uniforms` draws it."""
        return (_finalize_py((counter * _GOLDEN + self.key) & MASK64) >> 11) * 2.0 ** -53


class HypergeomSampler:
    """Inverse-CDF sampling of the hypergeometric ``(N, K, m)`` distribution.

    Draws the number of attacker-controlled servers in a uniform sample of
    ``m`` servers from a pool of ``N`` containing ``K`` malicious — the only
    random quantity a Chronos update round depends on.  The CDF table is
    built in exact integer arithmetic (``math.comb``) and summed sequentially
    in python so both backends consume *the same floats*.
    """

    def __init__(self, pool: int, malicious: int, sample: int) -> None:
        if not 0 <= malicious <= pool:
            raise ValueError("malicious count must lie in [0, pool]")
        if not 0 <= sample <= pool:
            raise ValueError("sample size must lie in [0, pool]")
        self.pool = pool
        self.malicious = malicious
        self.sample = sample
        self.low = max(0, sample - (pool - malicious))
        self.high = min(sample, malicious)
        total = math.comb(pool, sample)
        cdf: list[float] = []
        acc = 0.0
        for j in range(self.low, self.high + 1):
            weight = math.comb(malicious, j) * math.comb(pool - malicious, sample - j)
            acc += weight / total
            cdf.append(acc)
        cdf[-1] = 1.0  # guard against summation residue at the top
        self.cdf = cdf
        self._cdf_np: Optional[Any] = None

    def sample_at(self, uniform: float) -> int:
        """The count one uniform maps to (:meth:`sample_from` for one draw)."""
        return self.low + bisect_right(self.cdf, uniform)

    def sample_from(self, uniforms: Sequence[float], np: Optional[Any] = None) -> Any:
        """Map uniforms to counts; a degenerate support costs no arithmetic."""
        if self.low == self.high:
            if np is not None:
                return np.full(len(uniforms), self.low, dtype=np.int64)
            return [self.low] * len(uniforms)
        if np is not None:
            if self._cdf_np is None:
                self._cdf_np = np.asarray(self.cdf, dtype=np.float64)
            return np.searchsorted(self._cdf_np, uniforms, side="right") + self.low
        return [self.sample_at(u) for u in uniforms]


_SAMPLER_CACHE: dict = {}


def hypergeom_sampler(pool: int, malicious: int, sample: int) -> HypergeomSampler:
    """Memoised :class:`HypergeomSampler` (tables are tiny and reusable)."""
    key: tuple[int, int, int] = (pool, malicious, sample)
    sampler = _SAMPLER_CACHE.get(key)
    if sampler is None:
        sampler = HypergeomSampler(pool, malicious, sample)
        _SAMPLER_CACHE[key] = sampler
    return sampler
