"""Attacker implementations: poisoning vectors, the Chronos pool attack, time shifting.

Each attack scenario's ``run`` returns the metrics dict its registry
experiment records (see :mod:`repro.experiments.scenarios`).
"""

from .attacker import (
    DEFAULT_MALICIOUS_TTL,
    AttackerInfrastructure,
    ImpersonatingNameserver,
    build_attacker_infrastructure,
)
from .baseline_scenario import (
    BaselineAttackConfig,
    TraditionalClientAttackScenario,
)
from .bgp_hijack import (
    BGPHijackConfig,
    BGPHijackPoisoner,
    BGPHijackScenario,
)
from .chronos_pool_attack import (
    DEFAULT_ZONE,
    ChronosPoolAttackScenario,
    PoolAttackConfig,
    analytic_pool_composition,
)
from .downgrade import (
    DNS_STREAM_PORTS,
    DowngradeConfig,
    DowngradeScenario,
    SynFloodDowngrader,
)
from .frag_poisoning import (
    FragmentationAttackConditions,
    FragmentationAttackReport,
    FragmentationPoisoner,
    FragPoisoningConfig,
    FragPoisoningScenario,
    FragRaceWorld,
    fragmentation_attack_success_probability,
)
from .query_trigger import SMTPTriggerServer, TriggerRecord

__all__ = [
    "DEFAULT_MALICIOUS_TTL",
    "AttackerInfrastructure",
    "ImpersonatingNameserver",
    "build_attacker_infrastructure",
    "BaselineAttackConfig",
    "TraditionalClientAttackScenario",
    "BGPHijackConfig",
    "BGPHijackPoisoner",
    "BGPHijackScenario",
    "DEFAULT_ZONE",
    "ChronosPoolAttackScenario",
    "PoolAttackConfig",
    "analytic_pool_composition",
    "DNS_STREAM_PORTS",
    "DowngradeConfig",
    "DowngradeScenario",
    "SynFloodDowngrader",
    "FragmentationAttackConditions",
    "FragmentationAttackReport",
    "FragmentationPoisoner",
    "FragPoisoningConfig",
    "FragPoisoningScenario",
    "FragRaceWorld",
    "fragmentation_attack_success_probability",
    "SMTPTriggerServer",
    "TriggerRecord",
]
