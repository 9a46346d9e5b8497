#!/usr/bin/env python3
"""Run the attack × defense matrix and reproduce the §V mitigation table.

Every attack scenario (both poisoning vectors, the end-to-end Chronos pool
attack, the sustained 24-hour-hijack variant, and the traditional-client
baseline) runs under every named defense stack — from the bare classic
defenses through DNS-0x20/cookies, fragment handling, the §V mitigations,
vantage cross-checking and DNSSEC-style signing.  The printed grid *is* the
paper's argument:

* the classic defenses and the entropy hardenings stop neither vector;
* fragment rejection stops only the defragmentation splice;
* the §V mitigations stop a single poisoning but the sustained-hijack row
  stays at 1.0 — the residual risk the paper concedes;
* only content authentication (the ``dnssec`` column) clears every row.

Run with:  python examples/defense_matrix.py [seeds] [workers] [--cache]

With ``--cache`` the grid runs through the persistent run cache
(``$REPRO_CACHE_DIR`` or ``./.repro-cache``): re-run the example with more
seeds and only the new seeds are computed — the rest replays from disk,
digest-identically.

A second, serving-layer grid follows the default one: the sustained-load
fragmentation racer and the downgrade attacker against the response-rate-
limiting columns (``rrl``, ``rrl_plus_dot``, ``rrl_plus_dot_opp``) — RRL
throttles the sustained race, but only the strict DoT pairing stops the
downgrade.
"""

from __future__ import annotations

import sys

from repro.analysis import section5_from_matrix
from repro.experiments import AttackSpec, RunCache, run_defense_matrix
from repro.experiments.matrix import SERVING_ATTACKS, SERVING_STACKS


def _progress(done: int, total: int) -> None:
    print(f"\r  sweep: {done}/{total} tasks", end="" if done < total else "\n",
          file=sys.stderr, flush=True)


def main(seed_count: int = 2, workers: int = 1, use_cache: bool = False) -> None:
    cache = RunCache() if use_cache else None
    matrix = run_defense_matrix(seeds=range(1, seed_count + 1), workers=workers,
                                cache=cache, on_progress=_progress)
    print(f"== attack × defense matrix: success rates "
          f"({matrix.elapsed_seconds:.1f}s, workers={workers}) ==")
    prefix = f"cache [{cache.path}]" if cache is not None else "sweep"
    print(f"{prefix}: {matrix.sweep_stats.formatted()}")
    for line in matrix.formatted():
        print(line)
    print(f"\nmatrix digest (byte-identical across worker counts): {matrix.digest()}")

    print("\n== the §V mitigation table as a matrix cell-slice ==")
    comparisons = section5_from_matrix(matrix)
    for comparison in comparisons:
        print(comparison.formatted())
    agree = all(c.verdict_agrees and c.counts_agree for c in comparisons)
    print(f"\nanalytic table reproduced: {agree}")
    print(f"residual 24h-hijack success under both mitigations: "
          f"{matrix.residual_hijack_rate():.2f}  (the paper's point: the DNS "
          f"dependency itself remains the pitfall)")

    print("\n== serving layer: sustained load × response-rate limiting ==")
    serving = run_defense_matrix(
        attacks=(*SERVING_ATTACKS, AttackSpec("downgrade", "downgrade", {})),
        stacks=SERVING_STACKS,
        seeds=range(1, seed_count + 1), workers=workers,
        cache=cache, on_progress=_progress)
    for line in serving.formatted():
        print(line)
    sustained = serving.cell("sustained_load", "rrl")
    races = sustained.mean("races_poisoned")
    total = sustained.mean("races_run")
    print(f"\nRRL throttles the sustained racer to {races:.0f}/{total:.0f} "
          f"poisoned races; the downgrade row shows only the strict DoT "
          f"pairing (rrl_plus_dot) closes the plaintext fallback.")
    print(f"serving matrix digest: {serving.digest()}")


if __name__ == "__main__":
    argv = sys.argv[1:]
    with_cache = "--cache" in argv
    argv = [arg for arg in argv if arg != "--cache"]
    try:
        seed_count = int(argv[0]) if argv else 2
        worker_count = int(argv[1]) if len(argv) > 1 else 1
    except ValueError:
        sys.exit("usage: defense_matrix.py [seeds] [workers] [--cache]")
    main(seed_count=seed_count, workers=worker_count, use_cache=with_cache)
