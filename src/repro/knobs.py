"""Process-wide feature knobs read from the environment.

veil-warp follows the veil-turbo precedent (``VEIL_TLB``): every fast
path is parity-pinned against its slow twin, and one environment knob
flips between them so the parity suites can assert byte-identical
ledgers, traces, and outputs in both modes.

This module sits below every other ``repro`` package (it imports only
the standard library) so hardware, crypto, and kernel layers can all
consult the knob without layering cycles.
"""

from __future__ import annotations

import os

#: Environment variable gating the veil-warp bulk-copy fast paths.
#: Unset or any value other than ``"0"`` means enabled; ``VEIL_WARP=0``
#: selects the historical per-unit paths.
WARP_ENV = "VEIL_WARP"


def warp_enabled() -> bool:
    """True when the veil-warp fast paths are enabled (the default)."""
    return os.environ.get(WARP_ENV, "1") != "0"


#: Environment variable enabling the veil-surge event-heap invariant
#: self-checks (O(n) per pop).  Off by default; the determinism suite
#: turns it on so a broken heap fails loudly instead of reordering
#: events silently.
SURGE_CHECK_ENV = "VEIL_SURGE_CHECK"


def surge_check_enabled() -> bool:
    """True when event-heap invariant checks are enabled (off by default)."""
    return os.environ.get(SURGE_CHECK_ENV, "0") != "0"
