"""Population-scale Chronos client simulation.

The packet-level scenarios simulate *one* victim at a time; this package
simulates *fleets* — up to millions of Chronos clients with staggered
re-query schedules sharing upstream resolvers — by vectorizing the per-client
pool/selection arithmetic instead of simulating packets.

Layout:

* :mod:`repro.population.rng` — counter-based, backend-parity random numbers
  (identical bits from the numpy and pure-python paths);
* :mod:`repro.population.batch` — closed-form batch pool composition and the
  vectorized Chronos selection rule;
* :mod:`repro.population.engine` — the fleet loop: resolver cache renewal,
  poisoning propagation, batched update rounds, streamed aggregates;
* :mod:`repro.population.scenario` — the ``population_sweep`` registry
  scenario plus cohort sharding across the :class:`SweepScheduler`;
* :mod:`repro.population.equivalence` — the packet-level cross-validation
  gate (digest-identical per-client outcomes on overlap populations).

numpy is an *optional* accelerator (the ``[population]`` extra): every code
path has a pure-python fallback producing bit-identical results, so the core
install stays dependency-free and digests never depend on which backend ran.
"""

from .batch import (
    BatchSelection,
    FleetPolicy,
    batch_chronos_select,
)
from .engine import FleetConfig, FleetEngine
from .equivalence import equivalence_digests, population_digest
from .rng import CounterRNG, HypergeomSampler, resolve_backend
from .scenario import population_specs

__all__ = [
    "BatchSelection",
    "CounterRNG",
    "FleetConfig",
    "FleetEngine",
    "FleetPolicy",
    "HypergeomSampler",
    "batch_chronos_select",
    "equivalence_digests",
    "population_digest",
    "population_specs",
    "resolve_backend",
]
