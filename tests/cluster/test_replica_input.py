"""Malformed fabric input to a booted replica gets an error reply.

Fault injection can corrupt a channel-setup frame into valid JSON that
lacks the relying party's DH value or carries a garbled one.  The
replica refuses a missing or non-string value itself and VeilMon
refuses a non-hex one; either way the reply is an error -- which the
relying party turns into an :class:`AttestationError` and the
quarantine/retry path handles -- instead of a simulator crash.
"""

import pytest

from repro.cluster import (ClusterConfig, ClusterFleet, decode_message,
                           encode_message)


@pytest.fixture(scope="module")
def fleet():
    fleet = ClusterFleet(ClusterConfig(replicas=1, requests=2))
    fleet.attest_all()
    return fleet


def exchange(fleet, frame: dict) -> dict:
    """Send one frame to the replica, pump it, and decode its reply."""
    replica = fleet.replicas["replica0"]
    frontend = fleet.frontend.name
    fleet.net.send(frontend, replica.name, encode_message(frame))
    assert replica.pump() == 1
    src, wire = fleet.net.recv(frontend)
    assert src == replica.name
    return decode_message(wire)


@pytest.mark.parametrize("frame", [
    {"kind": "channel_init"},
    {"kind": "channel_init", "peer_public_hex": 7},
    {"kind": "channel_init", "peer_public_hex": None},
    {"kind": "channel_init", "peer_public_hex": ["00"]},
    {"kind": "channel_init", "peer_public_hex": "not hex"},
    {"kind": "channel_init", "peer_public_hex": "abc"},
], ids=["missing", "int", "null", "list", "non-hex", "odd-length"])
def test_malformed_channel_init_gets_error_reply(fleet, frame):
    reply = exchange(fleet, frame)
    assert reply["status"] == "error"


def test_replica_still_attests_after_malformed_frames(fleet):
    exchange(fleet, {"kind": "channel_init"})
    link = fleet.verifier.establish(fleet.replicas["replica0"],
                                    fleet.frontend.name)
    assert link.replica == "replica0"
    assert link.handshake_cycles > 0
