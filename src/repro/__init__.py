"""repro — reproduction of "Pitfalls of Provably Secure Systems in Internet:
The Case of Chronos-NTP" (Jeitner, Shulman, Waidner; DSN-S 2020).

The package is organised by subsystem:

* :mod:`repro.netsim` — discrete-event network simulation (IPv4/UDP,
  fragmentation, BGP, hosts);
* :mod:`repro.dns` — DNS wire format, caching resolver, pool.ntp.org
  nameservers;
* :mod:`repro.ntp` — NTP packets, clocks, servers, the traditional client;
* :mod:`repro.core` — the Chronos client (pool generation, selection, panic
  mode) and its analytical security bounds;
* :mod:`repro.attacks` — the DNS-poisoning vectors and the pool attack of
  the paper, plus time-shift execution;
* :mod:`repro.measurement` — the §II DNS measurement statistics;
* :mod:`repro.analysis` — per-experiment sweeps and tables (experiments
  E1–E9, see the README);
* :mod:`repro.experiments` — declarative testbeds, the scenario registry,
  and the parallel multi-seed experiment runner.

Quick start::

    from repro.experiments import ExperimentRunner

    result = ExperimentRunner("chronos_pool_attack", seeds=range(8),
                              base_params={"poison_at_query": 3}).run()
    print(result.success_rate(), result.success_interval().formatted())
"""

from . import analysis, attacks, core, dns, experiments, measurement, netsim, ntp

__version__ = "1.0.0"

__all__ = [
    "analysis",
    "attacks",
    "core",
    "dns",
    "experiments",
    "measurement",
    "netsim",
    "ntp",
    "__version__",
]
