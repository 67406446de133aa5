"""Order/charge parity for the veil-warp bulk-copy fast paths.

Every bulk path must be behaviorally indistinguishable from the loop it
replaced: same frame order out of the allocator, same bytes on disk,
same cycle charges.  (The cipher fast path is pinned separately by the
known-answer tests in ``tests/test_cipher_kat.py``.)  At fleet scale the
whole attested fleet must run cycle- and byte-identically with the
``VEIL_WARP`` knob off and on.
"""

import pytest

from repro.cluster import ClusterConfig, run_cluster
from repro.hw.platform import FrameAllocator
from repro.kernel.diskfs import DiskSync, SUPERBLOCK_LBA


class TestAllocManyParity:
    def test_fresh_frames_match_repeated_alloc(self):
        bulk, loop = FrameAllocator(64), FrameAllocator(64)
        assert bulk.alloc_many(5) == [loop.alloc() for _ in range(5)]
        assert bulk._next == loop._next

    def test_free_list_reuse_matches_repeated_alloc(self):
        bulk, loop = FrameAllocator(64), FrameAllocator(64)
        for allocator in (bulk, loop):
            ppns = [allocator.alloc() for _ in range(6)]
            for ppn in (ppns[1], ppns[3], ppns[4]):
                allocator.free(ppn)
        # Bulk draws LIFO from the free list then fresh, like alloc().
        assert bulk.alloc_many(5) == [loop.alloc() for _ in range(5)]
        assert bulk.allocated_count == loop.allocated_count

    def test_exhaustion_rolls_back_the_free_list(self):
        allocator = FrameAllocator(8)
        held = [allocator.alloc() for _ in range(7)]
        allocator.free(held[2])
        allocator.free(held[5])
        snapshot = list(allocator._free)
        with pytest.raises(MemoryError):
            allocator.alloc_many(4)    # only 2 free, no fresh left
        assert list(allocator._free) == snapshot
        assert allocator.alloc_many(2) == [held[5], held[2]]

    def test_zero_and_negative_counts_are_noops(self):
        allocator = FrameAllocator(8)
        assert allocator.alloc_many(0) == []
        assert allocator.alloc_many(-3) == []
        assert allocator.allocated_count == 0


def populate(system):
    """A small namespace whose snapshot spans several sectors."""
    kernel, core = system.kernel, system.boot_core
    proc = kernel.create_process("writer")
    kernel.syscall(core, proc, "mkdir", "/bulk")
    from repro.kernel.fs import O_CREAT, O_RDWR
    import repro.kernel.layout as layout
    buf = layout.USER_STACK_TOP - 4096
    core.regs.cr3, core.regs.cpl = proc.page_table.root_ppn, 3
    for index in range(4):
        fd = kernel.syscall(core, proc, "open", f"/bulk/f{index}",
                            O_CREAT | O_RDWR)
        payload = bytes((index + i) % 256 for i in range(300))
        core.write(buf, payload)
        kernel.syscall(core, proc, "write", fd, buf, len(payload))
        kernel.syscall(core, proc, "close", fd)


def sync_lap(monkeypatch, warp):
    """Boot, populate, sync; returns (sectors, disk bytes, charges)."""
    from repro.core import VeilConfig, boot_native_system
    monkeypatch.setenv("VEIL_WARP", "1" if warp else "0")
    system = boot_native_system(VeilConfig(
        memory_bytes=32 * 1024 * 1024, num_cores=2,
        log_storage_pages=64))
    populate(system)
    mark = system.machine.ledger.snapshot()
    sync = DiskSync(system.kernel)
    sectors = sync.sync(system.boot_core)
    charges = dict(system.machine.ledger.since(mark).by_category)
    superblock = system.hv.block.read_sector(SUPERBLOCK_LBA)
    restored = sync.restore(system.boot_core)
    return sectors, charges, superblock, restored, system


class TestDiskSyncParity:
    def test_warp_and_classic_write_identical_state(self, monkeypatch):
        (slow_sectors, slow_charges, slow_super, slow_restored,
         slow_sys) = sync_lap(monkeypatch, warp=False)
        (fast_sectors, fast_charges, fast_super, fast_restored,
         fast_sys) = sync_lap(monkeypatch, warp=True)
        assert fast_sectors == slow_sectors > 1
        assert fast_charges == slow_charges
        assert fast_super == slow_super
        assert fast_restored == slow_restored
        # The restored namespaces carry identical file bytes.
        for index in range(4):
            slow = slow_sys.kernel.fs.resolve(f"/bulk/f{index}").data
            fast = fast_sys.kernel.fs.resolve(f"/bulk/f{index}").data
            assert bytes(fast) == bytes(slow)

    def test_superblock_lba_unchanged_by_fast_path(self):
        assert SUPERBLOCK_LBA == 8


def fleet_fingerprint(result):
    """Everything a fleet run pins: routing, handshake costs, every
    cycle ledger, makespan, and the audit outcome with chain bytes."""
    return {
        "routed": result.requests_routed,
        "by_replica": result.routed_by_replica,
        "handshake": result.handshake_cycles,
        "replica_cycles": result.replica_cycles,
        "frontend_cycles": result.frontend_cycles,
        "makespan": result.makespan_cycles,
        "audit": [(a.replica, len(a.entries), a.verified, a.chain_hex)
                  for a in result.audit.replicas],
    }


class TestKnobInvariance:
    def test_bulk_copy_knob_does_not_change_cycles(self, monkeypatch):
        config = ClusterConfig(replicas=3, requests=15, keyspace=4)
        monkeypatch.setenv("VEIL_WARP", "0")
        slow = run_cluster(config)
        monkeypatch.setenv("VEIL_WARP", "1")
        fast = run_cluster(config)
        assert fleet_fingerprint(fast) == fleet_fingerprint(slow)
