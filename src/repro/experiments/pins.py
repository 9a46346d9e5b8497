"""Pinned digests: the cross-release determinism contract, in one table.

Each value is the SHA-256 digest of one fixed sweep, named in its comment.
The tier-1 tests check every pin and the benchmarks import them from here,
so a deliberate semantic change that moves a digest re-pins it in exactly
one place.
"""

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

#: The chaos grid of ``tests/test_faults.py``: faulted ``frag_poisoning`` and
#: ``downgrade`` runs plus one ``population_sweep`` shard.  It must hold
#: across worker counts and population backends.
CHAOS_GRID_DIGEST = "b7789500e91733242db1daea42721960e4a8d69f050c929523a52d83243c2178"

#: The 8-seed fleet-vs-packet equivalence gate
#: (:mod:`repro.population.equivalence`); the packet and fleet sides must
#: both reproduce it.
FLEET_GATE_DIGEST = "d5c792a72f16d29abfccaa10eeb054f646c3d863be7be670c0997aceaa8cd517"
