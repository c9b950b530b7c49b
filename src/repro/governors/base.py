"""Power-governor interface (paper §2.3).

The governor does not set frequencies: it supplies a *floor* and a *request*
per cpu, and the hardware (``hw.freqmodel``) picks a frequency within those
bounds given the socket's turbo budget and its own ramping behaviour.
"""

from __future__ import annotations

from typing import TYPE_CHECKING, Optional

if TYPE_CHECKING:  # pragma: no cover
    from ..kernel.scheduler_core import Kernel


class Governor:
    """Base class for power governors."""

    def __init__(self) -> None:
        self.kernel: Optional["Kernel"] = None

    def bind(self, kernel: "Kernel") -> None:
        if self.kernel is not None:
            raise RuntimeError("governor already bound to a kernel")
        self.kernel = kernel
        self.on_bind()

    def on_bind(self) -> None:
        """Hook called once the kernel reference is available."""

    # ---- bounds queried by the hardware ------------------------------------

    def floor_mhz(self, cpu: int) -> int:
        """Minimum frequency the governor wants for ``cpu``."""
        raise NotImplementedError

    def request_mhz(self, cpu: int) -> int:
        """Frequency the governor suggests for ``cpu``."""
        raise NotImplementedError

    @property
    def name(self) -> str:
        return type(self).__name__.replace("Governor", "").lower()
