"""Unit tests: privilege domains and IDCBs."""

import json

import pytest

from repro.core.domains import (ALL_DOMAINS, DOM_ENC, DOM_MON, DOM_SER,
                                DOM_UNT, domain_for_vmpl)
from repro.core.idcb import Idcb
from repro.errors import SimulationError
from repro.hw.cycles import CycleLedger, free_cost_model
from repro.hw.memory import PAGE_SIZE, PhysicalMemory


class TestDomains:
    def test_paper_assignments(self):
        assert (DOM_MON.vmpl, DOM_MON.cpl) == (0, 0)
        assert (DOM_SER.vmpl, DOM_SER.cpl) == (1, 0)
        assert (DOM_ENC.vmpl, DOM_ENC.cpl) == (2, 3)
        assert DOM_UNT.vmpl == 3

    def test_domains_cover_all_vmpls(self):
        assert sorted(d.vmpl for d in ALL_DOMAINS) == [0, 1, 2, 3]

    def test_lookup_by_vmpl(self):
        assert domain_for_vmpl(2) is DOM_ENC
        with pytest.raises(ValueError):
            domain_for_vmpl(4)

    def test_str_rendering(self):
        assert "VMPL-0" in str(DOM_MON)


class TestIdcb:
    def make(self, pages: int = 2):
        mem = PhysicalMemory(16 * PAGE_SIZE, cost=free_cost_model(),
                             ledger=CycleLedger())
        idcb = Idcb(list(range(4, 4 + pages)), low_vmpl=3, high_vmpl=0)
        return mem, idcb

    def test_request_reply_slots_independent(self):
        mem, idcb = self.make()
        idcb.write_request(mem, {"op": "ping"})
        idcb.write_reply(mem, {"status": "ok"})
        assert idcb.read_request(mem) == {"op": "ping"}
        assert idcb.read_reply(mem) == {"status": "ok"}

    def test_empty_slot_rejected(self):
        mem, idcb = self.make()
        with pytest.raises(SimulationError):
            idcb.read_request(mem)

    def test_large_message_spans_pages(self):
        mem, idcb = self.make(pages=4)
        payload = {"data": "x" * 6000}
        idcb.write_request(mem, payload)
        assert idcb.read_request(mem) == payload

    def test_oversized_message_rejected(self):
        mem, idcb = self.make(pages=2)
        with pytest.raises(SimulationError):
            idcb.write_request(mem, {"data": "x" * (PAGE_SIZE * 2)})

    def test_single_int_constructor(self):
        mem = PhysicalMemory(16 * PAGE_SIZE, cost=free_cost_model(),
                             ledger=CycleLedger())
        idcb = Idcb(3, low_vmpl=3, high_vmpl=1)
        assert idcb.ppns == [3]
        idcb.write_request(mem, {"op": "x"})
        assert idcb.read_request(mem)["op"] == "x"

    def test_empty_page_list_rejected(self):
        with pytest.raises(SimulationError):
            Idcb([], low_vmpl=3, high_vmpl=0)


class TestIdcbDecodeSkip:
    """A slot skips ``json.loads`` only for the exact frame it wrote."""

    def make(self):
        mem = PhysicalMemory(16 * PAGE_SIZE, cost=free_cost_model(),
                             ledger=CycleLedger())
        return mem, Idcb([4, 5], low_vmpl=3, high_vmpl=1)

    @staticmethod
    def flip(mem, addr, old: bytes, new: bytes):
        """Rewrite ``old`` to ``new`` inside the page at ``addr``."""
        raw = mem.read(addr, PAGE_SIZE)
        at = raw.index(old)
        mem.write(addr + at, new)

    def test_own_frame_is_not_decoded_again(self, monkeypatch):
        mem, idcb = self.make()
        idcb.write_request(mem, {"op": "log_append", "_reply_to": 3})

        def no_decode(*args, **kwargs):
            raise AssertionError("json.loads called for an unchanged frame")

        monkeypatch.setattr(json, "loads", no_decode)
        assert idcb.read_request(mem) == {"_reply_to": 3,
                                          "op": "log_append"}

    def test_flipped_value_byte_is_seen(self):
        mem, idcb = self.make()
        idcb.write_request(mem, {"op": "log_append", "record_hex": "abcd"})
        self.flip(mem, 4 * PAGE_SIZE, b"abcd", b"abce")
        assert idcb.read_request(mem)["record_hex"] == "abce"

    def test_flipped_reply_byte_is_seen(self):
        mem, idcb = self.make()
        idcb.write_reply(mem, {"status": "ok"})
        self.flip(mem, 4 * PAGE_SIZE + idcb.slot_size, b'"ok"', b'"no"')
        assert idcb.read_reply(mem) == {"status": "no"}

    def test_flipped_length_is_seen(self):
        mem, idcb = self.make()
        idcb.write_request(mem, {"op": "ping"})
        mem.write(4 * PAGE_SIZE, b"\x00")
        with pytest.raises(SimulationError):
            idcb.read_request(mem)
        mem.write(4 * PAGE_SIZE, b"\xff\xff\x00\x00")
        with pytest.raises(SimulationError):
            idcb.read_request(mem)

    @pytest.mark.parametrize("payload", [
        {"pages": [1, [2, 3], {"n": None}]},
        {1: "int key", 2: [True, False]},
        {"tuple": (1, 2), "nested": {"t": ("a",)}},
        {"z": 1.5, "a": -0.0},
        {"pair": "\ud83d\ude00", "plain": "x"},
        {"z": 1, "a": True, "m": None},
    ])
    def test_decodes_exactly_as_json_loads(self, payload):
        mem, idcb = self.make()
        expected = json.loads(json.dumps(payload, sort_keys=True))
        idcb.write_request(mem, payload)
        idcb.write_reply(mem, payload)
        for got in (idcb.read_request(mem), idcb.read_reply(mem)):
            assert got == expected
            assert list(got) == list(expected)
            assert [type(v) for v in got.values()] == \
                [type(v) for v in expected.values()]

    def test_returned_dict_is_a_fresh_copy(self):
        mem, idcb = self.make()
        idcb.write_request(mem, {"op": "ping", "seq": 1})
        first = idcb.read_request(mem)
        first["op"] = "mutated"
        first["extra"] = True
        assert idcb.read_request(mem) == {"op": "ping", "seq": 1}
        assert idcb.read_request(mem) is not idcb.read_request(mem)

    def test_writer_payload_mutation_does_not_leak(self):
        mem, idcb = self.make()
        payload = {"op": "ping", "seq": 1}
        idcb.write_request(mem, payload)
        payload["seq"] = 2
        assert idcb.read_request(mem) == {"op": "ping", "seq": 1}
