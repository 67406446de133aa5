"""Inter-Domain Communication Blocks (paper section 5.2).

IDCBs are *private* guest pages (unlike the hypervisor-visible GHCB) used
for bi-directional communication between two domains.  They are allocated
in the **less-privileged** domain's memory so both sides can access them,
and at per-VCPU granularity to avoid contention.

An IDCB spans one or more (not necessarily contiguous) physical pages:
half the region is the request slot, half the reply slot.  Requests and
replies are serialized through the simulated memory system so copy costs
are charged on both sides of the exchange.  A read always decodes the
bytes actually in the slot; when they are the frame this IDCB last wrote
there, the decode is skipped (:class:`~repro.hw.codec.FrameMemo`).
"""

from __future__ import annotations

from ..errors import SimulationError
from ..hw.codec import FrameMemo, encode, round_trip_copy
from ..hw.memory import PAGE_SHIFT, PAGE_SIZE, PhysicalMemory, page_base

_LEN = 4

#: Default IDCB size in pages (32 KiB: large enough for page-list
#: arguments like KCI activation and enclave layouts).
DEFAULT_IDCB_PAGES = 8


class Idcb:
    """One IDCB region shared between two domains on one VCPU."""

    def __init__(self, ppns, *, low_vmpl: int, high_vmpl: int):
        if isinstance(ppns, int):
            ppns = [ppns]
        if not ppns:
            raise SimulationError("IDCB needs at least one page")
        self.ppns = list(ppns)
        self.low_vmpl = low_vmpl      # less privileged side (owns memory)
        self.high_vmpl = high_vmpl
        self.size = len(self.ppns) * PAGE_SIZE
        self.slot_size = self.size // 2
        #: Last frame written to the (request, reply) slot and the payload
        #: behind it: a read of unchanged bytes skips ``json.loads``.
        self._memos = (FrameMemo(), FrameMemo())

    @property
    def ppn(self) -> int:
        return self.ppns[0]

    # -- scatter I/O over the backing pages ---------------------------------

    def _write_bytes(self, mem: PhysicalMemory, offset: int,
                     data: bytes) -> None:
        in_page = offset & (PAGE_SIZE - 1)
        if 0 < len(data) <= PAGE_SIZE - in_page:
            # Single-page fast path: one charged write, no chunking.
            mem.write(page_base(self.ppns[offset >> PAGE_SHIFT]) + in_page,
                      data)
            return
        pos = 0
        while pos < len(data):
            page_index, in_page = divmod(offset + pos, PAGE_SIZE)
            chunk = min(len(data) - pos, PAGE_SIZE - in_page)
            mem.write(page_base(self.ppns[page_index]) + in_page,
                      data[pos:pos + chunk])
            pos += chunk

    def _read_bytes(self, mem: PhysicalMemory, offset: int,
                    length: int) -> bytes:
        in_page = offset & (PAGE_SIZE - 1)
        if 0 < length <= PAGE_SIZE - in_page:
            # Single-page fast path: one charged read, no gather buffer.
            return mem.read(page_base(self.ppns[offset >> PAGE_SHIFT]) +
                            in_page, length)
        out = bytearray()
        pos = 0
        while pos < length:
            page_index, in_page = divmod(offset + pos, PAGE_SIZE)
            chunk = min(length - pos, PAGE_SIZE - in_page)
            out.extend(mem.read(page_base(self.ppns[page_index]) + in_page,
                                chunk))
            pos += chunk
        return bytes(out)

    # -- message slots ---------------------------------------------------------

    def _write(self, mem: PhysicalMemory, offset: int, payload: dict) -> None:
        blob = encode(payload)
        if len(blob) + _LEN > self.slot_size:
            raise SimulationError(
                f"IDCB message of {len(blob)}B exceeds the "
                f"{self.slot_size}B slot")
        self._write_bytes(mem, offset,
                          len(blob).to_bytes(_LEN, "little") + blob)
        self._memos[offset != 0].remember(blob, round_trip_copy(payload))

    def _read(self, mem: PhysicalMemory, offset: int) -> dict:
        length = int.from_bytes(self._read_bytes(mem, offset, _LEN),
                                "little")
        if length == 0 or length > self.slot_size - _LEN:
            raise SimulationError("IDCB slot holds no valid message")
        return self._memos[offset != 0].decode(
            self._read_bytes(mem, offset + _LEN, length))

    def write_request(self, mem: PhysicalMemory, payload: dict) -> None:
        """Serialize a request into the request slot."""
        self._write(mem, 0, payload)

    def read_request(self, mem: PhysicalMemory) -> dict:
        """Deserialize the current request."""
        return self._read(mem, 0)

    def write_reply(self, mem: PhysicalMemory, payload: dict) -> None:
        """Serialize a reply into the reply slot."""
        self._write(mem, self.slot_size, payload)

    def read_reply(self, mem: PhysicalMemory) -> dict:
        """Deserialize the current reply."""
        return self._read(mem, self.slot_size)
