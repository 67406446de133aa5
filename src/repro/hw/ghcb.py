"""Guest–Hypervisor Communication Block (GHCB).

A GHCB is one *shared* (unencrypted) physical page through which a VCPU
passes explicit state to the hypervisor on non-automatic exits.  The guest
publishes the GHCB's location by writing its physical address to the GHCB
MSR; the hypervisor reads that MSR at exit time to find the block.

Messages are structured records serialized into the page bytes, so both
sides genuinely communicate through the simulated shared memory (and pay
its copy costs) rather than through Python object references.  The page
is untrusted: a reader always decodes the bytes actually in it (see
:class:`~repro.hw.codec.FrameMemo` for how a view skips re-decoding a
frame it wrote itself).
"""

from __future__ import annotations

from ..errors import SimulationError
from .codec import FrameMemo, encode, round_trip_copy
from .memory import PAGE_SIZE, PhysicalMemory, page_base
from .rmp import NUM_VMPLS

#: Byte length prefix for serialized messages.
_LEN_BYTES = 4


def _framed(payload: dict) -> tuple[bytes, bytes, dict | None]:
    blob = encode(payload)
    return (len(blob).to_bytes(_LEN_BYTES, "little") + blob, blob,
            round_trip_copy(payload))


#: The constant domain-switch request, encoded once per target VMPL:
#: target -> (length-prefixed frame, frame, decoded payload).
_SWITCH_FRAMES = {vmpl: _framed({"op": "domain_switch",
                                 "target_vmpl": vmpl})
                  for vmpl in range(NUM_VMPLS)}


class Ghcb:
    """Helper view over a shared physical page used as a GHCB.

    Keep one view per page (:meth:`SevSnpMachine.ghcb
    <repro.hw.platform.SevSnpMachine.ghcb>`) so the side that reads a
    message sees the frame memo of the side that wrote it.
    """

    def __init__(self, ppn: int):
        self.ppn = ppn
        self.gpa = page_base(ppn)
        self._memo = FrameMemo()

    # -- message passing ----------------------------------------------------

    def write_message(self, mem: PhysicalMemory, message: dict) -> None:
        """Serialize ``message`` into the GHCB page."""
        target = message.get("target_vmpl")
        if type(target) is int and target in _SWITCH_FRAMES and \
                len(message) == 2 and message.get("op") == "domain_switch":
            framed, blob, decoded = _SWITCH_FRAMES[target]
        else:
            framed, blob, decoded = _framed(message)
            if len(blob) + _LEN_BYTES > PAGE_SIZE:
                raise SimulationError(
                    f"GHCB message of {len(blob)} bytes exceeds one page")
        mem.write(self.gpa, framed)
        self._memo.remember(blob, decoded)

    def read_message(self, mem: PhysicalMemory) -> dict:
        """Deserialize the current message from the GHCB page."""
        length = int.from_bytes(mem.read(self.gpa, _LEN_BYTES), "little")
        if length == 0 or length > PAGE_SIZE - _LEN_BYTES:
            raise SimulationError(f"GHCB holds no valid message ({length})")
        return self._memo.decode(mem.read(self.gpa + _LEN_BYTES, length))

    def clear(self, mem: PhysicalMemory) -> None:
        """Invalidate the current message."""
        mem.write(self.gpa, b"\x00" * _LEN_BYTES)
