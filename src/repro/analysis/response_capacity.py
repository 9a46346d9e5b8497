"""Experiment E5: how many A records fit in a single DNS response.

Reproduces the §IV statement that the attacker can fit "up to 89" addresses
into a single non-fragmented DNS response — computed from the real wire
layout rather than assumed — and tabulates the capacity for other payload
budgets (the classic 512-byte limit, the IPv6-safe 1232 bytes, and the
fragmentation thresholds the measurement study probes).
"""

from __future__ import annotations

from collections.abc import Sequence
from dataclasses import dataclass

from ..dns.message import (
    CLASSIC_UDP_LIMIT,
    MAX_UNFRAGMENTED_UDP_PAYLOAD,
    DNSMessage,
    max_a_records_for_payload,
    response_size_for_a_records,
)
from ..dns.nameserver import DEFAULT_ZONE
from ..dns.records import a_record
from ..netsim.packets import IPV4_HEADER_SIZE, UDP_HEADER_SIZE

#: Payload budgets worth tabulating (bytes of UDP payload).
INTERESTING_PAYLOAD_LIMITS = (
    CLASSIC_UDP_LIMIT,          # pre-EDNS limit
    1232,                       # the "DNS flag day 2020" recommendation
    MAX_UNFRAGMENTED_UDP_PAYLOAD,  # single Ethernet frame
    4096,                       # common EDNS advertisement
)


@dataclass(frozen=True)
class CapacityRow:
    """One row of the capacity table."""

    payload_limit: int
    mtu_equivalent: int
    max_a_records: int
    exact_response_size: int

    @staticmethod
    def header() -> str:
        return f"{'payload':>8} {'~MTU':>6} {'max A records':>14} {'response bytes':>15}"

    def formatted(self) -> str:
        return (f"{self.payload_limit:>8} {self.mtu_equivalent:>6} "
                f"{self.max_a_records:>14} {self.exact_response_size:>15}")


def capacity_row(payload_limit: int, qname: str = DEFAULT_ZONE) -> CapacityRow:
    """Capacity and exact encoded size for one payload budget."""
    count = max_a_records_for_payload(qname, payload_limit)
    size = response_size_for_a_records(qname, count)
    return CapacityRow(
        payload_limit=payload_limit,
        mtu_equivalent=payload_limit + UDP_HEADER_SIZE + IPV4_HEADER_SIZE,
        max_a_records=count,
        exact_response_size=size,
    )


def capacity_table(payload_limits: Sequence[int] = INTERESTING_PAYLOAD_LIMITS,
                   qname: str = DEFAULT_ZONE) -> list[CapacityRow]:
    """The full capacity table for the E5 benchmark."""
    return [capacity_row(limit, qname) for limit in payload_limits]


def paper_capacity_claim(qname: str = DEFAULT_ZONE) -> int:
    """The number the paper quotes (89) for a non-fragmented response."""
    return max_a_records_for_payload(qname, MAX_UNFRAGMENTED_UDP_PAYLOAD)


def verify_capacity_by_encoding(qname: str = DEFAULT_ZONE,
                                payload_limit: int = MAX_UNFRAGMENTED_UDP_PAYLOAD) -> dict:
    """Cross-check the analytic capacity against an actually-encoded message.

    Builds a real response with the computed number of records, encodes it,
    and confirms (a) it fits in the budget and (b) one more record would not.
    """
    count = max_a_records_for_payload(qname, payload_limit)
    query = DNSMessage.query(0x1234, qname)
    records = [a_record(qname, f"198.51.100.{(i % 254) + 1}", 172800) for i in range(count)]
    response = query.make_response(records)
    one_more = query.make_response(records + [a_record(qname, "198.51.100.1", 172800)])
    return {
        "record_count": count,
        "encoded_size": response.wire_size,
        "fits": response.wire_size <= payload_limit,
        "one_more_overflows": one_more.wire_size > payload_limit,
    }
