"""Tests for the population layer's counter RNG and batched selection.

The load-bearing contracts: every draw is a pure function of
``(seed, stream, counter)`` with bit-identical numpy and pure-python paths,
hypergeometric sampling shares one exact CDF table and one guide table across
backends, and every count it draws is the one ``bisect_right`` gives on the
draw's exact uniform; the batched Chronos selection matches the scalar rule
element-wise.  Both differential gates probe decision boundaries
deliberately: bucket edges, CDF steps and their neighbouring floats.
"""

from __future__ import annotations

import hashlib
import json
import math
from array import array
from bisect import bisect_right

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.core.selection import ChronosConfig, chronos_select, panic_select
from repro.defenses import HighTTLDiscard
from repro.experiments import SweepScheduler
from repro.experiments.pins import FLEET_SWEEP_METRICS_DIGEST
from repro.population.batch import (
    FleetPolicy,
    batch_chronos_select,
    batch_panic_select,
    compose_client,
)
from repro.population.rng import (
    BACKEND_ENV,
    GUIDE_BITS,
    MASK64,
    BackendError,
    CounterRNG,
    HypergeomSampler,
    hypergeom_sampler,
    numpy_or_none,
    resolve_backend,
)
from repro.population.scenario import population_specs

numpy = numpy_or_none()
needs_numpy = pytest.mark.skipif(numpy is None, reason="numpy not installed")


# -- counter RNG -------------------------------------------------------------

def test_uniforms_are_pure_functions_of_the_counter():
    rng = CounterRNG(seed=7, stream=2)
    batched = rng.words([5, 1, 9])
    assert batched == [rng.word_at(5), rng.word_at(1), rng.word_at(9)]
    assert all(0 <= word <= MASK64 for word in batched)
    assert rng.uniforms([5, 1, 9]) == [(word >> 11) * 2.0 ** -53 for word in batched]
    assert all(0.0 <= u < 1.0 for u in rng.uniforms([5, 1, 9]))
    # Re-keying with the same (seed, stream) reproduces the stream exactly.
    assert CounterRNG(seed=7, stream=2).words([5, 1, 9]) == batched


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


def _word(uniform):
    """The lowest word whose uniform is ``uniform`` (a multiple of 2**-53)."""
    return int(uniform * 2 ** 53) << 11


def _reference(sampler, words):
    """The inverse-CDF count of each word: ``bisect_right`` on its uniform."""
    return [sampler.low + bisect_right(sampler.cdf, (word >> 11) * 2.0 ** -53)
            for word in words]


def _boundary_words(sampler):
    """0.0 and 1 - 2**-53, and around each CDF step: the step itself and the
    floats one ulp either side, rounded down and up to the uniform grid, plus
    the edges of the buckets next to the step."""
    words = {0, MASK64}
    for step in sampler.cdf:
        for value in (math.nextafter(step, -1.0), step, math.nextafter(step, 2.0)):
            grid = value * 2 ** 53
            for point in (math.floor(grid), math.ceil(grid)):
                if 0 <= point < 2 ** 53:
                    words.update((point << 11, point << 11 | 0x7FF))
        bucket = int(step * 2 ** GUIDE_BITS)
        for edge in range(max(bucket - 1, 1), min(bucket + 3, 2 ** GUIDE_BITS)):
            words.update((edge << 64 - GUIDE_BITS, (edge << 64 - GUIDE_BITS) - 1))
    return sorted(words)


def _assert_guide_is_bisect(sampler, words):
    expected = _reference(sampler, words)
    assert [sampler.sample_word(word) for word in words] == expected
    if numpy is not None:
        vectorized = sampler.sample_from(numpy.asarray(words, dtype=numpy.uint64), np=numpy)
        assert vectorized.tolist() == expected


def test_hypergeom_support_bounds():
    sampler = HypergeomSampler(pool=10, malicious=8, sample=5)
    assert (sampler.low, sampler.high) == (3, 5)  # at most 2 benign available
    counts = [sampler.sample_word(word) for word in (0, _word(0.5), MASK64)]
    assert counts[0] == 3 and counts[-1] == 5
    assert all(3 <= c <= 5 for c in counts)


def test_hypergeom_degenerate_support():
    all_malicious = HypergeomSampler(pool=9, malicious=9, sample=4)
    none_malicious = HypergeomSampler(pool=9, malicious=0, sample=4)
    words = [0, _word(0.1), _word(0.9), MASK64]
    assert [all_malicious.sample_word(word) for word in words] == [4] * 4
    assert [none_malicious.sample_word(word) for word in words] == [0] * 4
    assert set(all_malicious.guide) == {4}  # every bucket is pure
    if numpy is not None:
        out = all_malicious.sample_from(numpy.asarray(words, dtype=numpy.uint64), np=numpy)
        assert out.tolist() == [4] * 4


#: The fleet's own tables: one per poison query, (pool, malicious, 15) under
#: the default policy, which the 10**6-client sweep builds (k = 0 and k = 1
#: are the degenerate all-benign and all-malicious pools).
FLEET_SAMPLERS = [HypergeomSampler(comp.total, comp.malicious,
                                   min(ChronosConfig().sample_size, comp.total))
                  for comp in (compose_client(FleetPolicy(), k) for k in range(25))]


def test_hypergeom_backend_parity_including_cdf_boundaries():
    # Every bucket edge (each bucket's first and last word), each CDF step
    # and the floats one ulp either side, and the words of 0.0 and 1 - 2**-53.
    shift = 64 - GUIDE_BITS
    edges = [bucket << shift | low for bucket in range(2 ** GUIDE_BITS)
             for low in (0, (1 << shift) - 1)]
    assert sum(sampler.low != sampler.high for sampler in FLEET_SAMPLERS) == 23
    for sampler in FLEET_SAMPLERS:
        _assert_guide_is_bisect(sampler, edges + _boundary_words(sampler))


@settings(max_examples=150, deadline=None)
@given(data=st.data(), pool=st.integers(min_value=1, max_value=600))
def test_guide_lookup_is_bisect_on_the_exact_uniform(data, pool):
    sampler = HypergeomSampler(pool, data.draw(st.integers(0, pool)),
                               data.draw(st.integers(0, pool)))
    assert len(sampler.guide) == 2 ** GUIDE_BITS
    words = data.draw(st.lists(st.integers(0, MASK64), max_size=64))
    _assert_guide_is_bisect(sampler, _boundary_words(sampler) + words)


@pytest.mark.parametrize("pool, malicious, sample", [
    (1, 0, 1), (1, 1, 1), (9, 9, 4), (9, 0, 4), (5, 2, 0), (5, 2, 5),  # degenerate
    (2, 1, 1), (10, 1, 3), (10, 9, 1), (600, 599, 300), (600, 1, 300)])  # two-point
def test_guide_lookup_is_bisect_on_degenerate_and_two_point_supports(pool, malicious,
                                                                     sample):
    sampler = HypergeomSampler(pool, malicious, sample)
    assert sampler.high - sampler.low <= 1
    _assert_guide_is_bisect(sampler, _boundary_words(sampler))


@pytest.mark.parametrize("pool, malicious, sample, typecode", [
    (300, 150, 100, "b"), (600, 300, 127, "b"), (600, 300, 128, "h"),
    (600, 300, 200, "h")])
def test_guide_typecode_holds_the_widest_count(pool, malicious, sample, typecode):
    # A count that wrapped to a negative value would read as a straddle, or as
    # a wrong count; the typecode widens with the support instead.
    sampler = HypergeomSampler(pool, malicious, sample)
    assert sampler.guide.typecode == typecode
    assert max(sampler.guide) <= sampler.high
    _assert_guide_is_bisect(sampler, _boundary_words(sampler))


@pytest.mark.parametrize("backend", ["python"] + (["numpy"] if numpy else []))
def test_fleet_sweep_with_every_draw_falling_back_is_pinned(backend, monkeypatch):
    # With every bucket straddling, each draw searches the CDF: the reduced
    # seed-1 fleet sweep still reproduces its pinned metrics digest.
    straddled = array("b", [-1]) * 2 ** GUIDE_BITS
    monkeypatch.setattr(HypergeomSampler, "guide", property(lambda sampler: straddled))
    specs = population_specs(clients=10_000, cohort_size=2_500, seeds=(1,), base_params={
        "resolvers": 1024, "stagger_window": 86400.0, "update_rounds": 5,
        "backend": backend})
    (result,), _ = SweepScheduler(workers=1).run_specs(specs)
    metrics = json.dumps([record.metrics for record in result.records], sort_keys=True)
    assert hashlib.sha256(metrics.encode()).hexdigest() == FLEET_SWEEP_METRICS_DIGEST


def test_hypergeom_sampler_memoisation():
    assert hypergeom_sampler(30, 10, 5) is hypergeom_sampler(30, 10, 5)
    sampler = hypergeom_sampler(30, 10, 5)
    assert sampler.guide is sampler.guide  # built once, on first use


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
