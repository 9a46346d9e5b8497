#!/usr/bin/env python3
"""Evaluate the §V mitigations and the residual 24-hour-hijack attack (E8).

The paper recommends two changes to Chronos' pool generation — accept at most
4 addresses from a single DNS response, and discard responses with high TTL
values — while noting that the DNS dependency itself remains exploitable by
an attacker who keeps the victim's DNS hijacked for the full 24-hour window.

This example prints the closed-form evaluation and then, with ``--simulate``,
runs the defense-matrix cells that reproduce each row at packet level: the
chronos rows × ``classic`` / ``address_cap`` / ``ttl_discard`` / ``section5``
slice of the default grid (see
:data:`repro.analysis.mitigations.SECTION5_MATRIX_CELLS`).  Both sides give
the same counts.  The TTL discard stops the 2/3 majority, but behind a caching
resolver it leaves the pool empty: the discarded entry stays cached and
answers every later query, so the client is denied service rather than
handed a refilled benign pool.

Run with:  python examples/mitigation_evaluation.py [--simulate] [--workers N]
"""

from __future__ import annotations

import sys

from repro.analysis import (
    SECTION5_ATTACKS,
    SECTION5_STACKS,
    MitigationRow,
    analytic_mitigation_table,
    section5_from_matrix,
)
from repro.experiments import run_defense_matrix


def main(simulate: bool = False, workers: int = 1) -> None:
    print("== Closed-form mitigation evaluation (single poisoning at query 1) ==")
    print(MitigationRow.header())
    for row in analytic_mitigation_table():
        print(row.formatted())

    if simulate:
        print(f"\n== Packet-level mitigation evaluation (workers={workers}) ==")
        matrix = run_defense_matrix(SECTION5_ATTACKS, SECTION5_STACKS, seeds=(1,),
                                    workers=workers)
        for row in section5_from_matrix(matrix):
            print(row.formatted())
    else:
        print("\n(pass --simulate to also run the packet-level evaluation)")


if __name__ == "__main__":
    argv = sys.argv[1:]
    worker_count = 1
    if "--workers" in argv:
        try:
            worker_count = int(argv[argv.index("--workers") + 1])
        except (IndexError, ValueError):
            sys.exit("usage: mitigation_evaluation.py [--simulate] [--workers N]")
    main(simulate="--simulate" in argv, workers=worker_count)
