"""Experiment-level analyses: one module per paper claim / figure family."""

from .effort import (
    DNSAttackComparisonRow,
    EffortRow,
    ShiftEffortRow,
    chronos_security_bound_table,
    dns_attack_comparison,
    end_to_end_success_table,
    fraction_sweep_table,
    poisoning_success_probability,
    shift_effort_table,
)
from .mitigations import (
    SECTION5_ATTACKS,
    SECTION5_MATRIX_CELLS,
    SECTION5_STACKS,
    MitigationRow,
    Section5CellComparison,
    analytic_mitigation_table,
    section5_from_matrix,
)
from .poisoning_vectors import (
    VectorFeasibilityRow,
    feasibility_row,
    mtu_sweep,
    vulnerable_pair_fraction,
)
from .pool_composition import (
    PoolCompositionRow,
    analytic_sweep,
    crossover_query_index,
    figure1_report,
    simulated_composition,
)
from .response_capacity import (
    INTERESTING_PAYLOAD_LIMITS,
    CapacityRow,
    capacity_row,
    capacity_table,
    paper_capacity_claim,
    verify_capacity_by_encoding,
)

__all__ = [
    "DNSAttackComparisonRow",
    "EffortRow",
    "ShiftEffortRow",
    "chronos_security_bound_table",
    "dns_attack_comparison",
    "end_to_end_success_table",
    "fraction_sweep_table",
    "poisoning_success_probability",
    "shift_effort_table",
    "SECTION5_ATTACKS",
    "SECTION5_MATRIX_CELLS",
    "SECTION5_STACKS",
    "MitigationRow",
    "Section5CellComparison",
    "analytic_mitigation_table",
    "section5_from_matrix",
    "VectorFeasibilityRow",
    "feasibility_row",
    "mtu_sweep",
    "vulnerable_pair_fraction",
    "PoolCompositionRow",
    "analytic_sweep",
    "crossover_query_index",
    "figure1_report",
    "simulated_composition",
    "INTERESTING_PAYLOAD_LIMITS",
    "CapacityRow",
    "capacity_row",
    "capacity_table",
    "paper_capacity_claim",
    "verify_capacity_by_encoding",
]
