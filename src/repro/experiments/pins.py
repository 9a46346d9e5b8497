"""Pinned digests: the cross-release determinism contract, in one table.

Each value is the SHA-256 digest of one fixed sweep, named in its comment.
The tier-1 tests check every pin and the benchmarks import them from here,
so a deliberate semantic change that moves a digest re-pins it in exactly
one place.
"""

import hashlib
import json

from .runner import ExperimentSpec
from .scheduler import SweepScheduler

#: The default attack × defense grid (``DEFAULT_ATTACKS`` × ``DEFAULT_STACKS``
#: through :func:`~repro.experiments.matrix.run_defense_matrix`) at seeds
#: (1, 2).  It hashes every legacy cell in grid order, so it also pins the
#: ``LEGACY_ATTACKS`` × ``LEGACY_STACKS`` sub-grid.
FULL_GRID_DIGEST = "7ae32a72cca2adb6b2b62fbf2dd6cd30e97e0eb27a678b975502e7dda9c8d4b4"

#: The trimmed legacy grid of ``tests/test_defense_matrix.py`` (``bgp_hijack``
#: at 10 and ``frag_poisoning`` at 40 benign servers × ``classic`` /
#: ``dnssec`` / ``multi_vantage``) at seeds (1, 2).  No full-grid cell uses
#: those population sizes, so the full-grid pin does not imply this one.
TRIMMED_GRID_DIGEST = "dc79b9c580fe3132cbce6a489bd2745dd291c73e9ff73e04a5611b5f08e39fde"

#: The ``downgrade`` sweep at seeds 1..8 under no defense, strict DoT and
#: opportunistic DoT (in that ``param_sets`` order).
DOWNGRADE_SWEEP_DIGEST = "3434dd5189891d0cbc2d03a413e63d6df70c15c7ef8f2fef54d44d83c6205711"

#: The serving matrix (``SERVING_ATTACKS`` plus a plain ``downgrade`` row ×
#: ``SERVING_STACKS``) at seeds (1, 2).
SERVING_MATRIX_DIGEST = "39aa4ded83c452642a3bb727802460a26475c0cb8a00574d0a8ac5cb32041927"

#: The chaos grid (:func:`chaos_grid_specs`): faulted ``frag_poisoning`` and
#: ``downgrade`` runs plus one ``population_sweep`` shard.  It must hold
#: across worker counts and population backends.
CHAOS_GRID_DIGEST = "b7789500e91733242db1daea42721960e4a8d69f050c929523a52d83243c2178"

#: The chaos grid's fault plan: ramped upstream loss, a flapping link,
#: reorder jitter and duplication, all at once.
CHAOS_FAULTS = (
    {"kind": "link_loss", "loss_rate": 0.4, "src": "@nameserver",
     "dst": "@resolver", "start": 0.0, "end": 9e9, "ramp": 30.0},
    {"kind": "link_flap", "down_time": 3.0, "up_time": 11.0,
     "src": "@resolver", "dst": "@nameserver", "start": 10.0, "end": 600.0},
    {"kind": "reorder_jitter", "jitter": 0.05, "start": 0.0, "end": 9e9},
    {"kind": "duplicate", "probability": 0.1, "delay": 0.02,
     "start": 0.0, "end": 9e9},
)


def chaos_grid_specs() -> list[ExperimentSpec]:
    """Both poisoning vectors under :data:`CHAOS_FAULTS` (``frag_poisoning``
    also fault-free), plus one small ``population_sweep`` shard."""
    return [
        ExperimentSpec(scenario="frag_poisoning", seeds=(1, 2),
                       base_params={"benign_server_count": 40},
                       param_sets=({"faults": CHAOS_FAULTS}, {"faults": ()})),
        ExperimentSpec(scenario="downgrade", seeds=(1,),
                       param_sets=({"faults": CHAOS_FAULTS},)),
        ExperimentSpec(scenario="population_sweep", seeds=(1,),
                       base_params={"clients": 200, "update_rounds": 2}),
    ]


def chaos_grid_digest(workers: int = 1) -> str:
    """Run the chaos grid; SHA-256 over its records in spec and task order,
    one ``json.dumps(record.canonical(), sort_keys=True)`` per record."""
    results, _ = SweepScheduler(workers=workers).run_specs(chaos_grid_specs())
    digest = hashlib.sha256()
    for result in results:
        for record in result.records:
            digest.update(json.dumps(record.canonical(), sort_keys=True).encode())
    return digest.hexdigest()

#: The 8-seed fleet-vs-packet equivalence gate
#: (:mod:`repro.population.equivalence`); the packet and fleet sides must
#: both reproduce it.
FLEET_GATE_DIGEST = "d5c792a72f16d29abfccaa10eeb054f646c3d863be7be670c0997aceaa8cd517"

#: ``population_sweep`` at seed 1 with 1024 resolvers, a one-day stagger and 5
#: update rounds (perfbench's ``fleet``): the record digest of 10⁶ clients in
#: 125,000-client cohorts on numpy, and the metrics-only digest of 10⁴ clients
#: in 2,500-client cohorts, which both backends reproduce.
FLEET_SWEEP_DIGEST = "e355f1e26b9450e075f15c87b4e8e81245857bb5acf194c9805b0e9e52c532f9"
FLEET_SWEEP_METRICS_DIGEST = "13e16884e62e86ea36b0ead985a65a99a8080b1b9c12eeaf1f900784f8b82471"
