"""Unit tests: the Reverse Map table and VMPL permission semantics."""

import pytest
from hypothesis import given, strategies as st

from repro.errors import InvalidInstruction, NestedPageFault
from repro.hw.cycles import CostModel, CycleLedger, free_cost_model
from repro.hw.rmp import Access, NUM_VMPLS, Rmp


def make_rmp(pages: int = 64) -> Rmp:
    return Rmp(pages, cost=free_cost_model(), ledger=CycleLedger())


def assigned_page(rmp: Rmp, ppn: int = 1) -> int:
    rmp.assign(ppn)
    rmp.pvalidate(executing_vmpl=0, ppn=ppn, validate=True)
    return ppn


class TestAccessFlags:
    def test_all_includes_every_kind(self):
        everything = Access.all()
        for kind in (Access.READ, Access.WRITE, Access.UEXEC,
                     Access.SEXEC):
            assert kind & everything

    def test_rw_excludes_execute(self):
        assert not Access.rw() & Access.UEXEC
        assert not Access.rw() & Access.SEXEC


class TestAllowsBitTest:
    def test_allows_matches_flag_arithmetic_for_every_pair(self):
        from repro.hw.rmp import RmpEntry

        kinds = (Access.READ, Access.WRITE, Access.UEXEC, Access.SEXEC)
        values = [Access.NONE]
        for kind in kinds:
            values += [value | kind for value in values]
        for perms in values:
            entry = RmpEntry(perms=[Access.NONE, perms, perms, perms])
            for access in values:
                expected = (perms & access) == access
                for vmpl in (1, 2, 3):
                    assert entry.allows(vmpl, access) == expected
                assert entry.allows(0, access)

    def test_denial_message_names_the_flag(self):
        rmp = make_rmp()
        ppn = assigned_page(rmp)
        with pytest.raises(NestedPageFault,
                           match=r"VMPL-2 lacks <Access.WRITE: 2> on page"):
            rmp.check_access(ppn=ppn, vmpl=2, access=Access.WRITE)
        rmp.share(5)
        with pytest.raises(NestedPageFault,
                           match="execute from shared page 0x5"):
            rmp.check_access(ppn=5, vmpl=1,
                             access=Access.READ | Access.UEXEC)


class TestVmpl0Privilege:
    def test_vmpl0_always_allowed(self):
        rmp = make_rmp()
        ppn = assigned_page(rmp)
        rmp.check_access(ppn=ppn, vmpl=0, access=Access.all())

    def test_lower_vmpls_start_with_nothing(self):
        rmp = make_rmp()
        ppn = assigned_page(rmp)
        for vmpl in (1, 2, 3):
            with pytest.raises(NestedPageFault):
                rmp.check_access(ppn=ppn, vmpl=vmpl, access=Access.READ)


class TestRmpadjust:
    def test_grant_and_check(self):
        rmp = make_rmp()
        ppn = assigned_page(rmp)
        rmp.rmpadjust(executing_vmpl=0, ppn=ppn, target_vmpl=3,
                      perms=Access.READ)
        rmp.check_access(ppn=ppn, vmpl=3, access=Access.READ)
        with pytest.raises(NestedPageFault):
            rmp.check_access(ppn=ppn, vmpl=3, access=Access.WRITE)

    def test_cannot_adjust_more_privileged_level(self):
        rmp = make_rmp()
        ppn = assigned_page(rmp)
        with pytest.raises(InvalidInstruction):
            rmp.rmpadjust(executing_vmpl=3, ppn=ppn, target_vmpl=0,
                          perms=Access.all())
        with pytest.raises(InvalidInstruction):
            rmp.rmpadjust(executing_vmpl=2, ppn=ppn, target_vmpl=1,
                          perms=Access.all())

    def test_cannot_adjust_own_level_except_vmpl0(self):
        rmp = make_rmp()
        ppn = assigned_page(rmp)
        with pytest.raises(InvalidInstruction):
            rmp.rmpadjust(executing_vmpl=2, ppn=ppn, target_vmpl=2,
                          perms=Access.all())
        # VMPL-0 self-target is the SVSM AP-creation exception.
        rmp.rmpadjust(executing_vmpl=0, ppn=ppn, target_vmpl=0,
                      perms=Access.NONE, vmsa=True)
        assert rmp.entry(ppn).vmsa

    def test_vmpl1_may_adjust_vmpl2_and_3(self):
        rmp = make_rmp()
        ppn = assigned_page(rmp)
        rmp.rmpadjust(executing_vmpl=1, ppn=ppn, target_vmpl=3,
                      perms=Access.rw())
        rmp.rmpadjust(executing_vmpl=1, ppn=ppn, target_vmpl=2,
                      perms=Access.READ)
        rmp.check_access(ppn=ppn, vmpl=3, access=Access.rw())
        rmp.check_access(ppn=ppn, vmpl=2, access=Access.READ)

    def test_rmpadjust_on_unassigned_page_faults(self):
        rmp = make_rmp()
        with pytest.raises(NestedPageFault):
            rmp.rmpadjust(executing_vmpl=0, ppn=5, target_vmpl=3,
                          perms=Access.all())

    def test_rmpadjust_charges_cycles(self):
        ledger = CycleLedger()
        rmp = Rmp(16, cost=CostModel(), ledger=ledger)
        ppn = assigned_page(rmp)
        before = ledger.category("rmpadjust")
        rmp.rmpadjust(executing_vmpl=0, ppn=ppn, target_vmpl=3,
                      perms=Access.NONE)
        assert ledger.category("rmpadjust") - before == \
            CostModel().rmpadjust


class TestValidation:
    def test_access_to_unvalidated_page_faults(self):
        rmp = make_rmp()
        rmp.assign(3)
        with pytest.raises(NestedPageFault):
            rmp.check_access(ppn=3, vmpl=0, access=Access.READ)

    def test_pvalidate_on_unassigned_page_faults(self):
        rmp = make_rmp()
        with pytest.raises(NestedPageFault):
            rmp.pvalidate(executing_vmpl=0, ppn=3, validate=True)

    def test_invalidate_then_access_faults(self):
        rmp = make_rmp()
        ppn = assigned_page(rmp)
        rmp.pvalidate(executing_vmpl=0, ppn=ppn, validate=False)
        with pytest.raises(NestedPageFault):
            rmp.check_access(ppn=ppn, vmpl=0, access=Access.READ)


class TestSharedPages:
    def test_shared_page_read_write_any_vmpl(self):
        rmp = make_rmp()
        rmp.share(4)
        for vmpl in range(NUM_VMPLS):
            rmp.check_access(ppn=4, vmpl=vmpl, access=Access.rw())

    def test_shared_page_never_executable(self):
        rmp = make_rmp()
        rmp.share(4)
        with pytest.raises(NestedPageFault):
            rmp.check_access(ppn=4, vmpl=3, access=Access.UEXEC)
        with pytest.raises(NestedPageFault):
            rmp.check_access(ppn=4, vmpl=0, access=Access.SEXEC)

    def test_unassign_clears_state(self):
        rmp = make_rmp()
        ppn = assigned_page(rmp)
        rmp.rmpadjust(executing_vmpl=0, ppn=ppn, target_vmpl=3,
                      perms=Access.all())
        rmp.unassign(ppn)
        ent = rmp.entry(ppn)
        assert not ent.assigned and not ent.validated
        assert ent.perms[3] == Access.NONE


class TestVmsaPages:
    def test_vmsa_page_sealed_from_lower_vmpls(self):
        rmp = make_rmp()
        ppn = assigned_page(rmp)
        rmp.rmpadjust(executing_vmpl=0, ppn=ppn, target_vmpl=3,
                      perms=Access.all(), vmsa=True)
        with pytest.raises(NestedPageFault):
            rmp.check_access(ppn=ppn, vmpl=3, access=Access.READ)
        rmp.check_access(ppn=ppn, vmpl=0, access=Access.READ)


class TestBulkOperations:
    def test_bulk_assign_validate_covers_defaults(self):
        rmp = make_rmp(1024)
        rmp.bulk_assign_validate(1024)
        rmp.check_access(ppn=1000, vmpl=0, access=Access.all())

    def test_bulk_rmpadjust_sets_default_and_respects_exclusions(self):
        rmp = make_rmp(1024)
        rmp.bulk_assign_validate(1024)
        excluded = {5, 10}
        rmp.bulk_rmpadjust(executing_vmpl=0, target_vmpl=3,
                           perms=Access.all(), count=1024,
                           exclude=excluded)
        rmp.check_access(ppn=500, vmpl=3, access=Access.all())
        for ppn in excluded:
            with pytest.raises(NestedPageFault):
                rmp.check_access(ppn=ppn, vmpl=3, access=Access.READ)

    def test_bulk_rmpadjust_privilege_rule(self):
        rmp = make_rmp()
        with pytest.raises(InvalidInstruction):
            rmp.bulk_rmpadjust(executing_vmpl=3, target_vmpl=0,
                               perms=Access.all(), count=64)

    def test_bulk_rmpadjust_charges_per_page(self):
        ledger = CycleLedger()
        rmp = Rmp(256, cost=CostModel(), ledger=ledger)
        rmp.bulk_assign_validate(256)
        before = ledger.category("rmpadjust")
        rmp.bulk_rmpadjust(executing_vmpl=0, target_vmpl=3,
                           perms=Access.all(), count=256)
        assert ledger.category("rmpadjust") - before == \
            256 * CostModel().rmpadjust

    def test_bulk_updates_existing_entries(self):
        rmp = make_rmp()
        ppn = assigned_page(rmp, 7)       # materialized entry
        rmp.bulk_assign_validate(64)
        rmp.bulk_rmpadjust(executing_vmpl=0, target_vmpl=3,
                           perms=Access.READ, count=64)
        rmp.check_access(ppn=7, vmpl=3, access=Access.READ)
        with pytest.raises(NestedPageFault):
            rmp.check_access(ppn=7, vmpl=3, access=Access.WRITE)

    def test_bulk_skips_vmsa_and_shared_entries(self):
        rmp = make_rmp()
        rmp.bulk_assign_validate(64)
        vmsa_ppn = 8
        rmp.rmpadjust(executing_vmpl=0, ppn=vmsa_ppn, target_vmpl=3,
                      perms=Access.NONE, vmsa=True)
        rmp.share(9)
        rmp.bulk_rmpadjust(executing_vmpl=0, target_vmpl=3,
                           perms=Access.all(), count=64)
        with pytest.raises(NestedPageFault):
            rmp.check_access(ppn=vmsa_ppn, vmpl=3, access=Access.READ)
        assert rmp.entry(9).shared


class TestPropertyBased:
    @given(st.integers(0, 3), st.integers(0, 3))
    def test_privilege_lattice(self, executing, target):
        """RMPADJUST succeeds iff target is strictly less privileged
        (with the VMPL-0 self-target exception)."""
        rmp = make_rmp()
        ppn = assigned_page(rmp)
        should_succeed = target > executing or \
            (executing == 0 and target == 0)
        if should_succeed:
            rmp.rmpadjust(executing_vmpl=executing, ppn=ppn,
                          target_vmpl=target, perms=Access.READ)
        else:
            with pytest.raises(InvalidInstruction):
                rmp.rmpadjust(executing_vmpl=executing, ppn=ppn,
                              target_vmpl=target, perms=Access.READ)

    @given(st.sampled_from([Access.NONE, Access.READ, Access.rw(),
                            Access.all(),
                            Access.READ | Access.SEXEC]))
    def test_check_matches_granted_mask(self, perms):
        rmp = make_rmp()
        ppn = assigned_page(rmp)
        rmp.rmpadjust(executing_vmpl=0, ppn=ppn, target_vmpl=3,
                      perms=perms)
        for kind in (Access.READ, Access.WRITE, Access.UEXEC,
                     Access.SEXEC):
            if perms & kind:
                rmp.check_access(ppn=ppn, vmpl=3, access=kind)
            else:
                with pytest.raises(NestedPageFault):
                    rmp.check_access(ppn=ppn, vmpl=3, access=kind)
