"""Differential gate: the nameserver side of every defended world.

Each defense that touches the nameserver (listeners, keys, MTU floor, rate
limiter) sets it up on the built world.  This table pins, per world, what
the built nameserver looks like; it was recorded when the same worlds were
set up by rewriting a private copy of the config before the build, so any
drift in how a stack reaches its world shows here.  Every world is seed 1.

Columns: listener ``(port, fast_open)`` pairs, whether a resumption ticket
store exists, the certificate key the secure listeners present (``None``
when no DoT/DoH listener exists), the zone-signing key,
``min_supported_mtu``, the effective path MTU of the nameserver's datagrams
and whether a response-rate limiter is attached.
"""

from __future__ import annotations

from dataclasses import replace

import pytest

from repro.defenses import available_defenses
from repro.defenses.transport import EncryptedTransport
from repro.dns.transport import DOH_PORT, DOT_PORT
from repro.experiments import TestbedConfig, build_testbed
from repro.experiments.matrix import DEFAULT_STACKS, RESILIENCE_STACKS, SERVING_STACKS
from repro.experiments.scenarios import TRANSPORT_PROFILES

TLS = "tls|pool.ntp.org|1"
ZSK = "zsk|pool.ntp.org|1"
PLAIN = ((), False, None, None, 548, 548, False)
TCP = ((53, False),)
DOT = ((53, False), (853, False))
DOH = ((53, False), (443, False))

#: Defense name alone, on a world whose nameserver fragments down to 548.
DEFENSE_WORLDS = {
    "address_cap": PLAIN,
    "cache_ttl_cap": PLAIN,
    "dns_0x20": PLAIN,
    "dns_cookies": PLAIN,
    "encrypted_transport": (DOT, False, TLS, None, 548, 548, False),
    "encrypted_transport_doh": (DOH, False, TLS, None, 548, 548, False),
    "encrypted_transport_opportunistic": (DOT, False, TLS, None, 548, 548, False),
    "fragment_rejection": PLAIN,
    "multi_vantage": PLAIN,
    "pmtu_floor": ((), False, None, None, 1500, 1500, False),
    "random_source_port": PLAIN,
    "random_txid": PLAIN,
    "response_matching": PLAIN,
    "response_rate_limit": (TCP, False, None, None, 548, 548, True),
    "response_record_cap": PLAIN,
    "response_signing": ((), False, None, ZSK, 548, 548, False),
    "serve_stale": PLAIN,
    "ttl_discard": PLAIN,
    "upstream_retries": PLAIN,
}

#: Matrix stack name, on the same 548-byte world.
STACK_WORLDS = {
    "classic": PLAIN,
    "dns_0x20": PLAIN,
    "dns_cookies": PLAIN,
    "frag_reject": PLAIN,
    "dnssec": ((), False, None, ZSK, 548, 548, False),
    "address_cap": PLAIN,
    "ttl_discard": PLAIN,
    "section5": PLAIN,
    "multi_vantage": PLAIN,
    "hardened": PLAIN,
    "dot_strict": (DOT, False, TLS, None, 548, 548, False),
    "dot_opportunistic": (DOT, False, TLS, None, 548, 548, False),
    "rrl": (TCP, False, None, None, 548, 548, True),
    "rrl_plus_dot": (DOT, False, TLS, None, 548, 548, True),
    "rrl_plus_dot_opp": (DOT, False, TLS, None, 548, 548, True),
    "serve_stale": PLAIN,
    "upstream_retries": PLAIN,
    "stale_retries": PLAIN,
}

#: ``TRANSPORT_PROFILES`` label, on an unfragmenting world.
PROFILE_WORLDS = {
    "udp": ((), False, None, None, 1500, 1500, False),
    "tcp": (TCP, False, None, None, 1500, 1500, False),
    "dot": (DOT, False, TLS, None, 1500, 1500, False),
    "doh": (DOH, False, TLS, None, 1500, 1500, False),
    "dot_reused": (DOT, False, TLS, None, 1500, 1500, False),
    "dot_0rtt": (((53, False), (853, True)), True, TLS, None, 1500, 1500, False),
}

#: Config fields and defenses asking for the same listeners, in either
#: order: each port is served once, and resumption covers every secure port.
ALL_SECURE_RESUMED = (((53, False), (443, True), (853, True)), True, TLS, None,
                      1500, 1500, False)
UNION_WORLDS = {
    "tcp_config_plus_rrl_plus_dot": (
        {"nameserver_transports": ("tcp",),
         "defenses": ("response_rate_limit", "encrypted_transport")},
        (DOT, False, TLS, None, 1500, 1500, True)),
    "doh_config_plus_dot_0rtt": (
        {"nameserver_transports": ("doh",),
         "defenses": (EncryptedTransport(zero_rtt=True),)},
        ALL_SECURE_RESUMED),
    "dot_0rtt_then_doh": (
        {"defenses": (EncryptedTransport(zero_rtt=True), "encrypted_transport_doh")},
        ALL_SECURE_RESUMED),
    "doh_then_dot_0rtt": (
        {"defenses": ("encrypted_transport_doh", EncryptedTransport(zero_rtt=True))},
        ALL_SECURE_RESUMED),
    "pmtu_floor_plus_signing": (
        {"nameserver_min_mtu": 548, "defenses": ("pmtu_floor", "response_signing")},
        ((), False, None, ZSK, 1500, 1500, False)),
}


def nameserver_side(config: TestbedConfig) -> tuple:
    """Build ``config`` and read back the nameserver's side of the world;
    the caller's config must come out of the build unchanged."""
    before = replace(config)
    testbed = build_testbed(config)
    assert config == before
    nameserver = testbed.nameserver
    listeners = nameserver.tcp.listeners
    server = nameserver.stream_transport
    secure = DOT_PORT in listeners or DOH_PORT in listeners
    return (
        tuple(sorted((port, listener.fast_open) for port, listener in listeners.items())),
        server is not None and server.ticket_store is not None,
        server.cert_key if secure else None,
        nameserver.zone_key,
        nameserver.min_supported_mtu,
        testbed.network.effective_mtu(nameserver.address),
        nameserver.rate_limiter is not None,
    )


def world(**overrides) -> TestbedConfig:
    return TestbedConfig(seed=1, benign_server_count=8, with_attacker=False, **overrides)


def test_the_tables_cover_every_defense_stack_and_profile():
    assert set(DEFENSE_WORLDS) == set(available_defenses())
    assert list(STACK_WORLDS) == [stack.name for stack in
                                  (*DEFAULT_STACKS, *SERVING_STACKS, *RESILIENCE_STACKS)]
    assert set(PROFILE_WORLDS) == set(TRANSPORT_PROFILES)


@pytest.mark.parametrize("name", sorted(DEFENSE_WORLDS))
def test_each_defense_alone(name):
    config = world(nameserver_min_mtu=548, defenses=(name,))
    assert nameserver_side(config) == DEFENSE_WORLDS[name]


@pytest.mark.parametrize("stack", [*DEFAULT_STACKS, *SERVING_STACKS, *RESILIENCE_STACKS],
                         ids=lambda stack: stack.name)
def test_each_matrix_stack(stack):
    config = world(nameserver_min_mtu=548, defenses=stack.defenses)
    assert nameserver_side(config) == STACK_WORLDS[stack.name]


@pytest.mark.parametrize("label", sorted(PROFILE_WORLDS))
def test_each_transport_profile(label):
    assert nameserver_side(world(**TRANSPORT_PROFILES[label])) == PROFILE_WORLDS[label]


@pytest.mark.parametrize("name", sorted(UNION_WORLDS))
def test_config_and_defense_unions(name):
    overrides, expected = UNION_WORLDS[name]
    assert nameserver_side(world(**overrides)) == expected
