"""Integration tests: fleet-wide sealed log export and chain checking."""

import pytest

from repro.cluster import ClusterConfig, ClusterFleet
from repro.crypto import MeasurementChain
from repro.errors import SecurityViolation


def served_fleet(**overrides):
    defaults = dict(replicas=2, requests=20, keyspace=4)
    defaults.update(overrides)
    config = ClusterConfig(**defaults)
    fleet = ClusterFleet(config)
    fleet.attest_all()
    fleet.frontend.reset_schedule()
    fleet.drive(config.requests)
    return fleet


class TestAuditPull:
    def test_entries_match_replica_logs(self):
        fleet = served_fleet()
        report = fleet.audit_all()
        assert report.all_verified
        by_name = {a.replica: a for a in report.replicas}
        for name, replica in fleet.replicas.items():
            assert len(by_name[name].entries) == replica.log_entry_count()

    def test_export_is_paged(self):
        """More records than one EXPORT_CHUNK forces multiple chunks."""
        fleet = served_fleet(requests=30)
        report = fleet.audit_all()
        assert any(a.chunks > 1 for a in report.replicas)

    def test_audit_is_repeatable(self):
        """Control-channel sequence state survives one full sweep."""
        fleet = served_fleet()
        first = fleet.audit_all()
        second = fleet.audit_all()
        assert first.total_entries == second.total_entries

    def test_untrusted_os_cannot_reorder_records(self):
        """Swapping two stored records breaks the recomputed chain."""
        fleet = served_fleet()
        log = fleet.replicas["replica0"].system.log
        log._index[0], log._index[1] = log._index[1], log._index[0]
        with pytest.raises(SecurityViolation):
            fleet.audit_all()

    def test_mismatch_is_attributed(self):
        fleet = served_fleet()
        log = fleet.replicas["replica1"].system.log
        log._index[0], log._index[1] = log._index[1], log._index[0]
        link = fleet.links["replica1"]
        audit = fleet.auditor.pull(link, fleet.replicas["replica1"])
        assert not audit.verified

    def test_log_chain_matches_auditor_recomputation(self):
        """VeilS-LOG keeps only the running digest, and that digest is
        byte for byte the chain the auditor (and a full measurement
        chain with its per-event log) recomputes from the records."""
        fleet = served_fleet(requests=30)
        report = fleet.audit_all()
        assert report.all_verified
        by_name = {a.replica: a for a in report.replicas}
        for name, replica in fleet.replicas.items():
            chain = replica.system.log.chain
            assert not hasattr(chain, "_events")
            audit = by_name[name]
            assert len(audit.entries) == replica.log_entry_count() > 0
            assert audit.chain_hex == chain.hexdigest
            full = MeasurementChain()
            for entry in audit.entries:
                full.extend("log", entry.encode("utf-8"))
            assert full.digest == chain.digest
            assert len(full.event_log()) == len(audit.entries)

    def test_auditor_pays_for_transfers(self):
        fleet = served_fleet()
        fleet.audit_all()
        assert fleet.auditor.ledger.category("net") > 0
