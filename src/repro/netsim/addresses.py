"""IPv4 address and prefix utilities for the network simulation.

The simulation deals in plain dotted-quad strings at the API surface (that is
what DNS A records carry) but internally needs integer arithmetic for prefix
matching (BGP hijack modelling) and for allocating large, disjoint blocks of
benign and attacker NTP-server addresses.
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import lru_cache


class AddressError(ValueError):
    """Raised for malformed IPv4 addresses or prefixes."""


#: Bound on each conversion memo.  A cold grid touches a few thousand
#: distinct addresses; the bound only stops an adversarial sweep from
#: growing the tables without limit.
_MEMO_SIZE = 1 << 16


@lru_cache(maxsize=_MEMO_SIZE)
def ip_to_int(address: str) -> int:
    """Convert a dotted-quad IPv4 address to its 32-bit integer value.

    Memoised: DNS A records, checksums and prefix matches convert the same
    few thousand addresses over and over.
    """
    parts = address.split(".")
    if len(parts) != 4:
        raise AddressError(f"malformed IPv4 address: {address!r}")
    value = 0
    for part in parts:
        if not part.isdigit():
            raise AddressError(f"malformed IPv4 address: {address!r}")
        octet = int(part)
        if octet > 255:
            raise AddressError(f"octet out of range in {address!r}")
        value = (value << 8) | octet
    return value


@lru_cache(maxsize=_MEMO_SIZE)
def int_to_ip(value: int) -> str:
    """Convert a 32-bit integer to a dotted-quad IPv4 address (memoised)."""
    if not 0 <= value <= 0xFFFFFFFF:
        raise AddressError(f"value out of IPv4 range: {value}")
    return ".".join(str((value >> shift) & 0xFF) for shift in (24, 16, 8, 0))


def is_valid_ip(address: str) -> bool:
    """Return ``True`` when ``address`` parses as a dotted-quad IPv4 address."""
    try:
        ip_to_int(address)
    except AddressError:
        return False
    return True


@dataclass(frozen=True)
class Prefix:
    """An IPv4 prefix such as ``203.0.113.0/24``.

    Used by the BGP model: routes are prefixes, and a hijacker wins traffic
    by announcing a longer (more specific) prefix covering the victim.
    """

    network: int
    length: int

    def __post_init__(self) -> None:
        if not 0 <= self.length <= 32:
            raise AddressError(f"prefix length out of range: {self.length}")
        mask = self.mask
        if self.network & ~mask & 0xFFFFFFFF:
            # Normalise: zero the host bits rather than erroring, matching
            # how routers treat sloppy configuration.
            object.__setattr__(self, "network", self.network & mask)

    @classmethod
    def parse(cls, text: str) -> Prefix:
        """Parse ``"a.b.c.d/len"`` (or a bare address, meaning a /32)."""
        if "/" in text:
            address, _, length_text = text.partition("/")
            if not length_text.isdigit():
                raise AddressError(f"malformed prefix: {text!r}")
            length = int(length_text)
        else:
            address, length = text, 32
        return cls(ip_to_int(address), length)

    @property
    def mask(self) -> int:
        """The 32-bit netmask for this prefix length."""
        if self.length == 0:
            return 0
        return (0xFFFFFFFF << (32 - self.length)) & 0xFFFFFFFF

    def contains(self, address: str) -> bool:
        """Whether ``address`` falls inside this prefix."""
        return (ip_to_int(address) & self.mask) == self.network

    def __str__(self) -> str:
        return f"{int_to_ip(self.network)}/{self.length}"


class AddressAllocator:
    """Hands out sequential addresses from a base prefix.

    Experiments need blocks of addresses for the benign pool.ntp.org zone
    (hundreds of servers) and for the attacker's malicious NTP servers
    (up to 89 in a single DNS response).  Keeping the blocks disjoint and
    deterministic makes attack traces readable.
    """

    def __init__(self, base: str) -> None:
        self._prefix = Prefix.parse(base)
        self._next = self._prefix.network + 1  # skip the network address
        self._limit = self._prefix.network + (1 << (32 - self._prefix.length)) - 1

    def allocate(self) -> str:
        """Allocate the next unused address in the block."""
        if self._next >= self._limit:
            raise AddressError(f"address block {self._prefix} exhausted")
        address = int_to_ip(self._next)
        self._next += 1
        return address

    def allocate_many(self, count: int) -> list[str]:
        """Allocate ``count`` consecutive addresses."""
        return [self.allocate() for _ in range(count)]
