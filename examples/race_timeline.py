#!/usr/bin/env python3
"""Watch the §IV poisoning race, one upstream query at a time.

Cache poisoning is a race: the attacker plants spoofed trailing fragments
*before* the resolver even asks its question, the legitimate nameserver's
response arrives, the resolver's reassembly splices the two — and the
defense stack referees.  The observability layer records every leg of that
race stamped with **simulated** time; this example replays it as a readable
timeline twice:

1. **Undefended** — the spoofed fragments splice into the legitimate
   response and the attacker's records win the cache.
2. **fragment_rejection** — the same burst, the same splice, but the
   defense rejects the reassembled response; the timeline names the
   defense and the reason, and the retry over intact paths wins instead.

Both runs also export a Chrome-trace JSON (open it at https://ui.perfetto.dev)
so the same race can be scrubbed on a real timeline UI.

Run with:  python examples/race_timeline.py [trace.json]
"""

from __future__ import annotations

import sys

from repro import obs
from repro.attacks.frag_poisoning import FragPoisoningConfig, FragPoisoningScenario
from repro.obs.timeline import format_races


def traced_run(defenses: tuple[str, ...]):
    with obs.capture() as ob:
        scenario = FragPoisoningScenario(FragPoisoningConfig(defenses=defenses))
        result = scenario.run()
    return result, ob


def main(trace_path: str | None = None) -> None:
    print("== 1. undefended: the spoofed fragments win the race ==")
    result, ob = traced_run(())
    print(format_races(ob.trace.events()))
    print(f"\ncache poisoned: {result['cache_poisoned']} "
          f"({result['poisoned_records_cached']}/{result['records_cached']} cached "
          f"records are the attacker's)")

    print("\n== 2. fragment_rejection: same burst, the defense referees ==")
    result, ob = traced_run(("fragment_rejection",))
    print(format_races(ob.trace.events()))
    print(f"\ncache poisoned: {result['cache_poisoned']}")

    snapshot = ob.metrics.snapshot()
    print("\n== counters of the defended run ==")
    for line in snapshot.formatted():
        print(f"  {line}")

    if trace_path:
        ob.trace.write_chrome_trace(trace_path)
        print(f"\nChrome trace written to {trace_path} "
              f"— open at https://ui.perfetto.dev")


if __name__ == "__main__":
    main(sys.argv[1] if len(sys.argv) > 1 else None)
