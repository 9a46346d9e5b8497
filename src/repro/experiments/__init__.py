"""repro.experiments — the unified experiment engine.

Three layers, composable but independently usable:

* :mod:`~repro.experiments.testbed` — declarative world construction
  (:class:`TestbedConfig` + :class:`TestbedBuilder`) shared by every attack
  scenario;
* :mod:`~repro.experiments.registry` — the :class:`Scenario` protocol and
  the by-name registry that makes any scenario runnable from a config dict;
* :mod:`~repro.experiments.runner` / :mod:`~repro.experiments.results` —
  declarative multi-seed sweeps (:class:`ExperimentSpec`) with deterministic,
  order-preserving aggregation (:class:`ExperimentResult`);
* :mod:`~repro.experiments.scheduler` / :mod:`~repro.experiments.cache` —
  the sweep-execution layer: :meth:`SweepScheduler.run_specs`, the one way
  to run cells, on a single shared worker pool across any number of specs,
  and a persistent content-addressed run cache (:class:`RunCache`) that
  makes re-runs incremental;
* :mod:`~repro.experiments.matrix` — the attack × defense-stack grid
  (:func:`run_defense_matrix`), reproducing the paper's countermeasure
  analysis as one deterministic sweep.

Quick start::

    from repro.experiments import ExperimentSpec, SweepScheduler

    spec = ExperimentSpec(
        "chronos_pool_attack",
        seeds=tuple(range(16)),
        base_params={"poison_at_query": 3},
    )
    (result,), stats = SweepScheduler(workers=4).run_specs([spec])
    print(result.success_rate(), result.success_interval().formatted())
"""

from .cache import (
    CACHE_DIR_ENV,
    CACHE_SCHEMA_VERSION,
    RunCache,
    scenario_fingerprint,
    task_key,
)
from .matrix import (
    DEFAULT_ATTACKS,
    DEFAULT_STACKS,
    LEGACY_ATTACKS,
    LEGACY_STACKS,
    AttackSpec,
    DefenseMatrixResult,
    DefenseStackSpec,
    MatrixCell,
    matrix_specs,
    run_defense_matrix,
)
from .registry import (
    Scenario,
    available_scenarios,
    get_scenario,
    merge_params,
    register_scenario,
)
from .results import (
    ConfidenceInterval,
    ExperimentResult,
    RunRecord,
    mean_interval,
    wilson_interval,
)
from .runner import ExperimentSpec, run_scenario
from .scheduler import (
    SweepError,
    SweepScheduler,
    SweepStats,
    TaskFailure,
    guided_chunk_sizes,
)
from .testbed import (
    DEFAULT_ZONE,
    Testbed,
    TestbedBuilder,
    TestbedConfig,
    build_testbed,
)

__all__ = [
    "CACHE_DIR_ENV",
    "CACHE_SCHEMA_VERSION",
    "RunCache",
    "scenario_fingerprint",
    "task_key",
    "DEFAULT_ATTACKS",
    "DEFAULT_STACKS",
    "LEGACY_ATTACKS",
    "LEGACY_STACKS",
    "AttackSpec",
    "DefenseMatrixResult",
    "DefenseStackSpec",
    "MatrixCell",
    "matrix_specs",
    "run_defense_matrix",
    "SweepError",
    "SweepScheduler",
    "SweepStats",
    "TaskFailure",
    "guided_chunk_sizes",
    "Scenario",
    "available_scenarios",
    "get_scenario",
    "merge_params",
    "register_scenario",
    "ConfidenceInterval",
    "ExperimentResult",
    "RunRecord",
    "mean_interval",
    "wilson_interval",
    "ExperimentSpec",
    "run_scenario",
    "DEFAULT_ZONE",
    "Testbed",
    "TestbedBuilder",
    "TestbedConfig",
    "build_testbed",
]
