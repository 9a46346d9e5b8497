"""Tests for the population layer's counter RNG and batched selection.

The load-bearing contracts: every draw is a pure function of
``(seed, stream, counter)`` with bit-identical numpy and pure-python paths,
hypergeometric sampling shares one exact CDF table across backends, and the
batched Chronos selection matches the scalar rule element-wise — including
at decision boundaries, which the property tests probe deliberately.
"""

from __future__ import annotations

import math

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.core.selection import ChronosConfig, chronos_select, panic_select
from repro.defenses import HighTTLDiscard
from repro.population.batch import (
    FleetPolicy,
    batch_chronos_select,
    batch_panic_select,
    compose_client,
)
from repro.population.rng import (
    BACKEND_ENV,
    BackendError,
    CounterRNG,
    HypergeomSampler,
    hypergeom_sampler,
    numpy_or_none,
    resolve_backend,
)

numpy = numpy_or_none()
needs_numpy = pytest.mark.skipif(numpy is None, reason="numpy not installed")


# -- counter RNG -------------------------------------------------------------

def test_uniforms_are_pure_functions_of_the_counter():
    rng = CounterRNG(seed=7, stream=2)
    batched = rng.uniforms([5, 1, 9])
    assert batched == [rng.uniform_at(5), rng.uniform_at(1), rng.uniform_at(9)]
    assert all(0.0 <= u < 1.0 for u in batched)
    # Re-keying with the same (seed, stream) reproduces the stream exactly.
    assert CounterRNG(seed=7, stream=2).uniforms([5, 1, 9]) == batched


def test_seeds_and_streams_decorrelate():
    base = CounterRNG(seed=1, stream=0).uniforms(range(64))
    assert CounterRNG(seed=2, stream=0).uniforms(range(64)) != base
    assert CounterRNG(seed=1, stream=1).uniforms(range(64)) != base
    # No constant stream, and a sane mean for 64 draws.
    assert len(set(base)) == 64
    assert 0.25 < sum(base) / 64 < 0.75


@needs_numpy
def test_backend_parity_words_and_uniforms():
    counters = [0, 1, 2, 63, 2**32, 2**63 - 1, 2**64 - 1]
    for seed, stream in [(0, 0), (1, 2), (12345, 7)]:
        py = CounterRNG(seed, stream, backend=None)
        vec = CounterRNG(seed, stream, backend=numpy)
        assert vec.words(counters).tolist() == py.words(counters)
        assert vec.uniforms(counters).tolist() == py.uniforms(counters)


def test_resolve_backend_env_and_argument(monkeypatch):
    monkeypatch.setenv(BACKEND_ENV, "python")
    assert resolve_backend() is None
    assert resolve_backend("python") is None
    monkeypatch.setenv(BACKEND_ENV, "auto")
    assert resolve_backend() is numpy  # None when numpy is absent
    with pytest.raises(ValueError):
        resolve_backend("vectorized")
    if numpy is None:
        with pytest.raises(BackendError):
            resolve_backend("numpy")
    else:
        assert resolve_backend("numpy") is numpy
        # The explicit argument overrides the environment.
        monkeypatch.setenv(BACKEND_ENV, "numpy")
        assert resolve_backend("python") is None


# -- hypergeometric sampling -------------------------------------------------

def test_hypergeom_cdf_is_exact():
    sampler = HypergeomSampler(pool=20, malicious=6, sample=5)
    assert (sampler.low, sampler.high) == (0, 5)
    total = math.comb(20, 5)
    acc = 0.0
    for j in range(0, 6):
        acc += math.comb(6, j) * math.comb(14, 5 - j) / total
        if j < 5:
            assert sampler.cdf[j] == acc
    assert sampler.cdf[-1] == 1.0


def test_hypergeom_support_bounds():
    sampler = HypergeomSampler(pool=10, malicious=8, sample=5)
    assert (sampler.low, sampler.high) == (3, 5)  # at most 2 benign available
    counts = sampler.sample_from([0.0, 0.5, 0.999999])
    assert all(3 <= c <= 5 for c in counts)


def test_hypergeom_degenerate_support():
    all_malicious = HypergeomSampler(pool=9, malicious=9, sample=4)
    assert all_malicious.sample_from([0.1, 0.9]) == [4, 4]
    none_malicious = HypergeomSampler(pool=9, malicious=0, sample=4)
    assert none_malicious.sample_from([0.1, 0.9]) == [0, 0]
    if numpy is not None:
        out = all_malicious.sample_from(numpy.asarray([0.1, 0.9]), np=numpy)
        assert out.tolist() == [4, 4]


@needs_numpy
def test_hypergeom_backend_parity_including_cdf_boundaries():
    sampler = HypergeomSampler(pool=96, malicious=64, sample=15)
    # Probe exactly at CDF steps (inclusive/exclusive edges) plus a sweep.
    uniforms = list(sampler.cdf[:-1]) + [0.0, 1.0 - 2**-53] + [
        i / 97.0 for i in range(97)]
    py = sampler.sample_from(uniforms)
    vec = sampler.sample_from(numpy.asarray(uniforms), np=numpy)
    assert vec.tolist() == py


def test_hypergeom_sampler_memoisation():
    assert hypergeom_sampler(30, 10, 5) is hypergeom_sampler(30, 10, 5)


# -- batch pool composition --------------------------------------------------

def test_composition_past_the_last_query_is_never_poisoned():
    policy = FleetPolicy()
    assert compose_client(policy, 25) == compose_client(policy, 0)  # 25 > Q: never
    first = compose_client(policy, 1)
    assert first.benign == 0 and first.malicious == 89 * 24


@pytest.mark.parametrize("k", [0, 5])
def test_dedupe_pool_under_ttl_discard_admits_no_benign_server(k):
    # A zone TTL above the 3,600 s bound: the packet path admits no
    # response at all (test_high_ttl_filter_rejects_responses).
    policy = FleetPolicy(benign_ttl=7200, dedupe=True, defenses=("ttl_discard",))
    assert compose_client(policy, k).benign == 0


def test_fleet_defenses_are_the_pool_defenses_by_name_or_instance():
    policy = FleetPolicy(defenses=("address_cap", HighTTLDiscard()))
    assert policy.accepted(89, 150) == 4
    assert policy.accepted(89, 3601) == 0
    assert FleetPolicy().accepted(89, 2 * 86400) == 89


@pytest.mark.parametrize("name", ["multi_vantage", "fragment_rejection"])
def test_fleet_rejects_defenses_the_closed_form_cannot_model(name):
    with pytest.raises(ValueError, match=name):
        FleetPolicy(defenses=(name,))


# -- batched selection vs the scalar rule (property tests) -------------------

#: Offsets mixing a continuous range with exact decision-boundary values
#: (err, the agreement window, and float-summation trouble spots).
_offset = st.one_of(
    st.floats(-2.0, 2.0, allow_nan=False, allow_infinity=False),
    st.sampled_from([0.0, 0.1, -0.1, 0.2, -0.2, 0.1 + 2**-53,
                     0.30000000000000004]),
)
_row = st.lists(_offset, min_size=0, max_size=24)
_config = st.builds(
    ChronosConfig,
    sample_size=st.integers(min_value=3, max_value=21),
    err=st.sampled_from([0.05, 0.1, 0.25]),
    drift_ppm=st.sampled_from([0.0, 10.0]),
)
_elapsed = st.floats(0.0, 7200.0, allow_nan=False)


@settings(max_examples=200, deadline=None)
@given(rows=st.lists(_row, min_size=0, max_size=8), config=_config,
       elapsed=_elapsed)
def test_batch_select_matches_scalar_elementwise(rows, config, elapsed):
    batch = batch_chronos_select(rows, config, elapsed_since_update=elapsed)
    assert len(batch) == len(rows)
    for row, status, offset, accepted in zip(rows, batch.statuses,
                                             batch.offsets, batch.accepted):
        scalar = chronos_select(row, config, elapsed_since_update=elapsed)
        assert status is scalar.status
        assert offset == scalar.offset
        assert accepted is scalar.accepted


@settings(max_examples=100, deadline=None)
@given(rows=st.lists(_row, min_size=0, max_size=8))
def test_batch_panic_matches_scalar_elementwise(rows):
    batch = batch_panic_select(rows)
    for row, status, offset in zip(rows, batch.statuses, batch.offsets):
        scalar = panic_select(row, ChronosConfig())
        assert status is scalar.status
        assert offset == scalar.offset


@needs_numpy
@settings(max_examples=100, deadline=None)
@given(width=st.integers(min_value=0, max_value=20),
       count=st.integers(min_value=1, max_value=6),
       config=_config, elapsed=_elapsed, data=st.data())
def test_numpy_batch_select_matches_scalar_on_rectangles(width, count, config,
                                                         elapsed, data):
    rows = [data.draw(st.lists(_offset, min_size=width, max_size=width))
            for _ in range(count)]
    batch = batch_chronos_select(rows, config, elapsed_since_update=elapsed,
                                 np=numpy)
    for row, status, offset in zip(rows, batch.statuses, batch.offsets):
        scalar = chronos_select(row, config, elapsed_since_update=elapsed)
        assert status is scalar.status
        assert offset == scalar.offset
