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
sequential float summation) plus a guide table indexed by each word's top
16 bits, both shared by both backends.  The guide invariant: a draw whose
bucket straddles no CDF step reads its count from the guide, any other
searches the CDF with its exact 53-bit uniform, so every count is the one
``bisect_right`` gives on that uniform.
"""

from __future__ import annotations

import math
import os
from array import array
from bisect import bisect_right
from collections.abc import Sequence
from functools import cache, cached_property
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
    """64-bit words (and uniforms in ``[0, 1)``) addressed by ``(seed,
    stream, counter)``: one per counter of a python sequence (or, on the numpy
    backend, a numpy integer array), independent of call batching.
    """

    def __init__(self, seed: int, stream: int = 0, backend: Optional[Any] = None) -> None:
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
        return [self.word_at(counter) for counter in counters]

    def word_at(self, counter: int) -> int:
        """One word by absolute counter, as :meth:`words` draws it."""
        return _finalize_py((counter * _GOLDEN + self.key) & MASK64)

    # -- uniforms ----------------------------------------------------------
    def uniforms(self, counters: Sequence[int]) -> Any:
        """53-bit uniforms in ``[0, 1)``, one per counter, backend-identical."""
        words = self.words(counters)
        if self.np is not None:
            np = self.np
            return (words >> np.uint64(11)).astype(np.float64) * 2.0 ** -53
        return [(word >> 11) * 2.0 ** -53 for word in words]


#: Guide bucket ``j`` holds the words whose top 16 bits are ``j``, which are
#: exactly the uniforms ``[j * 2**-16, (j + 1) * 2**-16)``.
GUIDE_BITS = 16


class HypergeomSampler:
    """Inverse-CDF sampling of the hypergeometric ``(N, K, m)`` distribution.

    Draws the number of attacker-controlled servers in a uniform sample of
    ``m`` servers from a pool of ``N`` containing ``K`` malicious — the only
    random quantity a Chronos update round depends on.  The CDF table is
    built in exact integer arithmetic (``math.comb``) and summed sequentially
    in python so both backends consume *the same floats*.  A word ``w``
    draws the count ``low + bisect_right(cdf, (w >> 11) * 2**-53)``.
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
            cdf.append(min(acc, 1.0))
        cdf[-1] = 1.0  # summation residue may end the sum off 1.0 either way
        self.cdf = cdf

    @cached_property
    def guide(self) -> array:
        """Each bucket's count, or ``-1`` where a CDF step falls strictly inside
        it, in the narrowest signed typecode holding ``high``; built one run per
        count, ``low + i`` running up to bucket ``ceil(cdf[i] * 2**16)``."""
        code = next(code for code in "bhiq" if self.high < 1 << 8 * array(code).itemsize - 1)
        table = array(code)
        for count, step in enumerate(self.cdf, self.low):
            table.extend(array(code, [count]) * (math.ceil(step * 2 ** GUIDE_BITS) - len(table)))
        for step in self.cdf:
            if step * 2 ** GUIDE_BITS % 1:
                table[int(step * 2 ** GUIDE_BITS)] = -1
        return table

    def sample_word(self, word: int) -> int:
        """The count one word maps to (:meth:`sample_from` for one draw)."""
        count = self.guide[word >> 64 - GUIDE_BITS]
        if count < 0:
            count = self.low + bisect_right(self.cdf, (word >> 11) * 2.0 ** -53)
        return count

    def sample_from(self, words: Any, np: Any) -> Any:
        """:meth:`sample_word` over a numpy ``uint64`` array, as a guide-typed array."""
        buckets = (words >> np.uint64(64 - GUIDE_BITS)).view(np.int64)
        counts = np.take(np.frombuffer(self.guide, dtype=self.guide.typecode), buckets)
        if (counts < 0).any():
            straddled = np.flatnonzero(counts < 0)
            uniforms = (words[straddled] >> np.uint64(11)).astype(np.float64) * 2.0 ** -53
            counts[straddled] = np.searchsorted(self.cdf, uniforms, side="right") + self.low
        return counts


#: Memoised :class:`HypergeomSampler` (tables are tiny and reusable).
hypergeom_sampler = cache(HypergeomSampler)
