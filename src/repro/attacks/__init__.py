"""Attacker implementations: poisoning vectors, the Chronos pool attack, time shifting."""

from .attacker import (
    DEFAULT_MALICIOUS_TTL,
    AttackerCapabilities,
    AttackerInfrastructure,
    ImpersonatingNameserver,
    build_attacker_infrastructure,
)
from .baseline_scenario import (
    BaselineAttackConfig,
    BaselineAttackResult,
    TraditionalClientAttackScenario,
)
from .bgp_hijack import (
    BGPHijackConfig,
    BGPHijackPoisoner,
    BGPHijackResult,
    BGPHijackScenario,
    HijackWindow,
)
from .chronos_pool_attack import (
    DEFAULT_ZONE,
    ChronosPoolAttackScenario,
    PoolAttackConfig,
    PoolAttackResult,
    TimeShiftResult,
    analytic_pool_composition,
    minimum_queries_for_attacker_majority,
)
from .downgrade import (
    DNS_STREAM_PORTS,
    DowngradeConfig,
    DowngradeResult,
    DowngradeScenario,
    SynFloodDowngrader,
)
from .frag_poisoning import (
    FragmentationAttackConditions,
    FragmentationAttackReport,
    FragmentationPoisoner,
    FragPoisoningConfig,
    FragPoisoningResult,
    FragPoisoningScenario,
    FragRaceWorld,
    fragmentation_attack_success_probability,
)
from .ntp_shift import (
    OfflineShiftModel,
    ShiftOutcome,
    chronos_round_offset,
    ntpd_round_offset,
    shift_chronos_client,
    shift_traditional_client,
)
from .query_trigger import QueryTrigger, SMTPTriggerServer, TriggerRecord

__all__ = [
    "DEFAULT_MALICIOUS_TTL",
    "AttackerCapabilities",
    "AttackerInfrastructure",
    "ImpersonatingNameserver",
    "build_attacker_infrastructure",
    "BaselineAttackConfig",
    "BaselineAttackResult",
    "TraditionalClientAttackScenario",
    "BGPHijackConfig",
    "BGPHijackPoisoner",
    "BGPHijackResult",
    "BGPHijackScenario",
    "HijackWindow",
    "DEFAULT_ZONE",
    "ChronosPoolAttackScenario",
    "PoolAttackConfig",
    "PoolAttackResult",
    "TimeShiftResult",
    "analytic_pool_composition",
    "minimum_queries_for_attacker_majority",
    "DNS_STREAM_PORTS",
    "DowngradeConfig",
    "DowngradeResult",
    "DowngradeScenario",
    "SynFloodDowngrader",
    "FragmentationAttackConditions",
    "FragmentationAttackReport",
    "FragmentationPoisoner",
    "FragPoisoningConfig",
    "FragPoisoningResult",
    "FragPoisoningScenario",
    "FragRaceWorld",
    "fragmentation_attack_success_probability",
    "OfflineShiftModel",
    "ShiftOutcome",
    "chronos_round_offset",
    "ntpd_round_offset",
    "shift_chronos_client",
    "shift_traditional_client",
    "QueryTrigger",
    "SMTPTriggerServer",
    "TriggerRecord",
]
