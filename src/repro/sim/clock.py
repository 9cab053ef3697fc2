"""Backend-neutral simulation time source.

Statistics code used to reach into ``net.engine.now`` and a private
``Network._utilization_window`` attribute -- both artifacts of the
object engine.  With two simulator engines (``repro.sim.engine.Engine``
and ``repro.sim.vec.kernel.KernelEngine``) the clock and the measurement
window live behind one accessor, :class:`SimClock`, owned by the
:class:`~repro.sim.network.Network`:

- ``clock.now`` -- the current simulated time in nanoseconds, delegated
  to whichever engine is driving events;
- ``clock.utilization_window`` -- the window (ns) over which per-link
  utilization counters were accumulated, set by the experiment drivers
  (``run_synthetic`` uses the measurement window; finite runs use their
  completion time) and read by ``Network.channel_utilization``.

Both engines expose the same ``now`` attribute, so the accessor is a
thin delegation -- the point is that stats code names *one* time
source and never a backend-specific engine internal.
"""

from __future__ import annotations

from typing import Optional

__all__ = ["SimClock"]


class SimClock:
    """The single time source stats code reads (see module docstring)."""

    __slots__ = ("_engine", "utilization_window")

    def __init__(self, engine) -> None:
        self._engine = engine
        #: Measurement window (ns) behind ``channel_utilization()``;
        #: ``None`` until an experiment establishes one.
        self.utilization_window: Optional[float] = None

    @property
    def now(self) -> float:
        """Current simulated time (ns) of the active backend."""
        return self._engine.now
