"""GHCB decode skip: a view re-decodes only bytes it did not write.

The GHCB is untrusted shared memory, so every read must reflect the
bytes actually in the page, whoever last wrote them.
"""

import json

import pytest

from repro.errors import CvmHalted
from repro.hw.cycles import CycleLedger, free_cost_model
from repro.hw.ghcb import Ghcb
from repro.hw.memory import PAGE_SIZE, PhysicalMemory


@pytest.fixture
def mem():
    return PhysicalMemory(16 * PAGE_SIZE, cost=free_cost_model(),
                          ledger=CycleLedger())


def flip(mem, ppn: int, old: bytes, new: bytes) -> None:
    """Rewrite ``old`` to ``new`` inside page ``ppn`` (a host write)."""
    raw = mem.read(ppn * PAGE_SIZE, PAGE_SIZE)
    mem.write(ppn * PAGE_SIZE + raw.index(old), new)


class TestGhcbDecodeSkip:
    @pytest.mark.parametrize("target", [0, 1, 2, 3, 7, True])
    def test_switch_frame_bytes_unchanged(self, mem, target):
        message = {"op": "domain_switch", "target_vmpl": target}
        Ghcb(3).write_message(mem, message)
        blob = json.dumps(message, sort_keys=True).encode("utf-8")
        assert mem.read(3 * PAGE_SIZE, 4 + len(blob)) == \
            len(blob).to_bytes(4, "little") + blob
        assert Ghcb(3).read_message(mem) == json.loads(blob)

    def test_flipped_byte_is_seen_by_the_writer_view(self, mem):
        ghcb = Ghcb(3)
        ghcb.write_message(mem, {"op": "domain_switch", "target_vmpl": 1})
        flip(mem, 3, b'"target_vmpl": 1', b'"target_vmpl": 2')
        assert ghcb.read_message(mem)["target_vmpl"] == 2

    def test_byzantine_reply_is_seen(self, mem):
        ghcb = Ghcb(3)
        ghcb.write_message(mem, {"status": "ok", "signature_hex": "00ff"})
        flip(mem, 3, b"00ff", b"01ff")
        assert ghcb.read_message(mem)["signature_hex"] == "01ff"

    def test_other_views_decode_real_bytes(self, mem):
        writer, reader = Ghcb(3), Ghcb(3)
        writer.write_message(mem, {"op": "io", "lba": 4})
        assert reader.read_message(mem) == {"lba": 4, "op": "io"}
        reader.write_message(mem, {"op": "halt"})
        assert writer.read_message(mem) == {"op": "halt"}

    def test_returned_dict_is_a_fresh_copy(self, mem):
        ghcb = Ghcb(3)
        ghcb.write_message(mem, {"op": "domain_switch", "target_vmpl": 1})
        ghcb.read_message(mem)["target_vmpl"] = 0
        assert ghcb.read_message(mem) == {"op": "domain_switch",
                                          "target_vmpl": 1}

    @pytest.mark.parametrize("payload", [
        {"ppns": [1, [2]], "action": "share"},
        {5: "int key"},
        {"pair": (1, 2)},
    ])
    def test_non_flat_payloads_decode_as_json_loads(self, mem, payload):
        ghcb = Ghcb(3)
        ghcb.write_message(mem, payload)
        expected = json.loads(json.dumps(payload, sort_keys=True))
        got = ghcb.read_message(mem)
        assert got == expected and list(got) == list(expected)


class TestSharedView:
    def test_one_view_per_page(self, machine):
        assert machine.ghcb(7) is machine.ghcb(7)
        assert machine.ghcb(7) is not machine.ghcb(8)

    def test_hypervisor_sees_a_tampered_switch_request(self, veil,
                                                       monkeypatch):
        """A host flips the switch target between the guest's write and
        the hypervisor's read: the hypervisor acts on the flipped bytes
        (and its policy halts the CVM) rather than on the guest's
        remembered message."""
        hv = veil.hv
        original = hv.handle_vmgexit

        def tamper_then_handle(core):
            gpa = core.instance.regs.ghcb_msr
            raw = hv.host_read(gpa, 64)
            if b'"target_vmpl": 1' in raw:
                at = raw.index(b'"target_vmpl": 1')
                hv.host_write(gpa + at, b'"target_vmpl": 9')
            return original(core)

        monkeypatch.setattr(hv, "handle_vmgexit", tamper_then_handle)
        core = veil.boot_core
        with pytest.raises(CvmHalted):
            veil.gateway.call_service(core, {"op": "log_append",
                                             "record_hex": "00"})
        assert "VMPL-9" in veil.machine.halt_reason
