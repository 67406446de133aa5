"""Fleet-wide audit-log collection and verification.

The auditor is the remote-user side of VeilS-LOG at datacenter scale: a
central host that pages every replica's ``log_export`` over the fabric,
unseals each chunk with the attested *control* channel (the exact key
VeilMon holds), and verifies the service's chained MAC over the full
record stream.  Because the chain digest travels *inside* the sealed
record, a compromised relaying OS can neither rewrite entries nor splice
chunks from different epochs without the recomputed chain diverging.
"""

from __future__ import annotations

import typing
from dataclasses import dataclass, field

from ..crypto.hashes import DigestChain
from ..errors import SecurityViolation
from ..hw.cycles import CycleLedger
from ..trace.tracer import NULL_TRACER
from .attest import AttestedLink
from .net import InterHostNetwork, encode_message, try_decode

if typing.TYPE_CHECKING:
    from .replica import ClusterReplica


@dataclass
class ReplicaAudit:
    """Verified export of one replica's protected log."""

    replica: str
    entries: list[str]
    chain_hex: str
    chunks: int
    verified: bool = True


@dataclass
class FleetAuditReport:
    """Aggregate result of one fleet-wide audit sweep."""

    replicas: list[ReplicaAudit] = field(default_factory=list)

    @property
    def total_entries(self) -> int:
        return sum(len(audit.entries) for audit in self.replicas)

    @property
    def all_verified(self) -> bool:
        return all(audit.verified for audit in self.replicas)


class FleetAuditor:
    """Central log collector holding the fleet's control channels."""

    #: Bounded retry budget per export chunk.  A dropped, corrupted, or
    #: refused chunk is simply re-requested -- the replica re-seals it
    #: under a fresh counter and the windowed control channel accepts
    #: the re-sealed record.
    CHUNK_ATTEMPTS = 4

    def __init__(self, net: InterHostNetwork, *, name: str = "auditor",
                 tracer=None):
        self.net = net
        self.name = name
        self.tracer = tracer or NULL_TRACER
        self.ledger = CycleLedger()
        net.attach(name, self.ledger)

    def _chunk_reply(self, replica_name: str, start: int) -> dict | None:
        """Pop the reply for the chunk at ``start``, discarding the rest.

        Fabric garbage and stale/duplicated replies to earlier chunk
        requests are dropped (and counted) so a retried export never
        splices the wrong chunk into the record stream.
        """
        matched = None
        while self.net.pending(self.name):
            src, wire = self.net.recv(self.name)
            reply = try_decode(wire)
            if (matched is None and reply is not None
                    and src == replica_name
                    and reply.get("start") == start):
                matched = reply
            else:
                self.tracer.metrics.count(
                    "auditor_discarded",
                    "stale" if reply is not None else "garbage")
        return matched

    def _fetch_chunk(self, link: AttestedLink, replica: "ClusterReplica",
                     start: int) -> tuple[dict, dict]:
        """One chunk with bounded retry: (envelope, unsealed payload)."""
        reason = "no attempts"
        for _attempt in range(self.CHUNK_ATTEMPTS):
            self.net.send(self.name, link.replica, encode_message(
                # veil-lint: allow(trace-context) -- control-plane frame: the audit sweep is not part of any client request
                {"kind": "log_export", "start": start}))
            replica.pump()
            reply = self._chunk_reply(link.replica, start)
            if reply is None:
                reason = "no reply"
            elif reply.get("status") != "ok":
                reason = f"refused export: {reply.get('reason', reply)}"
            else:
                try:
                    sealed = bytes.fromhex(reply.get("record_hex", ""))
                    payload = link.control.receive(sealed)
                except ValueError as malformed:
                    reason = f"malformed chunk: {malformed}"
                except SecurityViolation as tampered:
                    reason = f"tampered chunk: {tampered}"
                else:
                    return reply, payload
            self.tracer.metrics.count("audit_chunk_retry", link.replica)
        raise SecurityViolation(
            f"replica {link.replica} export chunk at {start} failed "
            f"after {self.CHUNK_ATTEMPTS} attempts ({reason})")

    def pull(self, link: AttestedLink,
             replica: "ClusterReplica") -> ReplicaAudit:
        """Page one replica's sealed export and verify its MAC chain."""
        entries: list[str] = []
        chain_hex = DigestChain().hexdigest
        start: int | None = 0
        chunks = 0
        with self.tracer.span("cluster", "audit_pull",
                              args={"replica": link.replica}):
            while start is not None:
                reply, payload = self._fetch_chunk(link, replica, start)
                entries.extend(payload["logs"])
                chain_hex = payload["chain_hex"]
                start = reply.get("next")
                chunks += 1
        recomputed = DigestChain()
        for entry in entries:
            recomputed.extend("log", entry.encode("utf-8"))
        verified = recomputed.hexdigest == chain_hex
        self.tracer.metrics.count("audit_entries", link.replica,
                                  len(entries))
        self.tracer.metrics.count(
            "audit_verified" if verified else "audit_failed", link.replica)
        if not verified:
            self.tracer.instant("cluster", "audit_chain_mismatch",
                                args={"replica": link.replica})
        return ReplicaAudit(replica=link.replica, entries=entries,
                            chain_hex=chain_hex, chunks=chunks,
                            verified=verified)

    def sweep(self, links: "typing.Iterable[AttestedLink]",
              replicas: "dict[str, ClusterReplica]") -> FleetAuditReport:
        """Audit every attested replica; raise if any chain fails."""
        report = FleetAuditReport()
        for link in links:
            audit = self.pull(link, replicas[link.replica])
            report.replicas.append(audit)
        if not report.all_verified:
            bad = [a.replica for a in report.replicas if not a.verified]
            raise SecurityViolation(
                f"audit chain mismatch on {', '.join(bad)}")
        return report
