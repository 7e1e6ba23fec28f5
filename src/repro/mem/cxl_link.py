"""CXL link model: fixed per-direction latency + bandwidth server queues.

Each host owns one link to the CXL memory node (Fig. 1).  A message pays the
configured one-way latency plus serialization at the per-direction
bandwidth, plus queueing behind earlier traffic in the same direction.
Inter-host (4-hop) traffic traverses two links — the requester's and the
owner's — which the system model composes from two :class:`CxlLink` calls.

Resilience: a link may carry an attached fault model (see
:mod:`repro.faults`).  Faulty transfers retry with exponential backoff; a
transfer that exhausts its retry budget either absorbs a give-up penalty
(demand traffic, which must complete) or raises :class:`LinkTransferError`
(bulk migration traffic, which a transactional caller aborts and rolls
back).  One timing body serves every transfer, faulted or not; its retry
tail is split out so the engine's fast lane, which flies a faulted link
with no degrade window inline, runs the same retries and give-ups.
"""

from __future__ import annotations

from typing import Optional

from .. import units
from ..config import CxlLinkConfig
from ..stats import Counter, ScopedStats

#: Direction constants.
TO_DEVICE = 0
TO_HOST = 1


class LinkTransferError(Exception):
    """A link transfer exhausted its retry budget.

    Raised only on *faultable* transfers — bulk migration traffic that a
    transactional caller can abort and roll back.  Demand accesses never
    raise; they absorb a recovery penalty instead.
    """

    def __init__(self, host: int, direction: int, size_bytes: int,
                 reason: str = "retries exhausted") -> None:
        super().__init__(
            f"link {host} dir {direction}: {reason} ({size_bytes}B transfer)"
        )
        self.host = host
        self.direction = direction
        self.size_bytes = size_bytes
        self.reason = reason


class CxlLink:
    """One bidirectional host <-> CXL-node link."""

    __slots__ = ("config", "_busy_until", "_stats", "_faults", "_latency_ns",
                 "_bw_bytes_ns", "_messages", "_bytes", "_queue_ns",
                 "_retries", "_giveups")

    def __init__(self, config: CxlLinkConfig, stats: Optional[ScopedStats] = None):
        self.config = config
        self._busy_until = [0.0, 0.0]
        self._stats = stats
        self._faults = None  # Optional[repro.faults.LinkFaultModel]
        self._latency_ns = config.latency_ns
        # transfer_ns(size, gbs) == size * 1e9 / (gbs * GB); hoist the
        # constant denominator so the fault-free path skips the helper.
        self._bw_bytes_ns = config.bandwidth_gbs * units.GB
        self._bind_counters()

    def _bind_counters(self) -> None:
        """Preresolve the stat cells both timing paths bump.

        With no registry attached the cells are detached :class:`Counter`
        objects, so transfer accounting works identically either way — the
        fault path used to skip counting entirely without a registry and
        pay a string-key lookup with one.
        """
        stats = self._stats
        if stats is not None:
            self._messages = stats.counter("messages")
            self._bytes = stats.counter("bytes")
            self._queue_ns = stats.counter("queue_ns")
            self._retries = stats.counter("retries")
            self._giveups = stats.counter("giveups")
        else:
            self._messages = Counter()
            self._bytes = Counter()
            self._queue_ns = Counter()
            self._retries = Counter()
            self._giveups = Counter()

    def attach_faults(self, model) -> None:
        """Attach a per-link fault model (``None`` detaches)."""
        self._faults = model

    def transfer(self, direction: int, now: float, size_bytes: int,
                 faultable: bool = False) -> float:
        """Latency (ns) for ``size_bytes`` in ``direction`` starting ``now``.

        The one timing body, with or without a fault model: a degrade
        window (if the model has one open at ``now``) scales latency and
        serialization, and a drawn CRC error hands the first attempt's
        total to :meth:`retry_tail`.  ``faultable`` selects what a give-up
        does there (see :meth:`try_transfer`).
        """
        if size_bytes <= 0:
            raise ValueError(
                f"transfer size must be positive, got {size_bytes}"
            )
        faults = self._faults
        window = (
            faults.window_at(now)
            if faults is not None and faults.windows else None
        )
        if window is None:
            latency_ns = self._latency_ns
            serialization = size_bytes * 1e9 / self._bw_bytes_ns
        else:
            latency_ns = self.config.latency_ns * window.latency_x
            serialization = units.transfer_ns(
                size_bytes, self.config.bandwidth_gbs / window.bandwidth_x
            )
        busy_until = self._busy_until
        busy = busy_until[direction]
        if busy > now:
            queue_delay = busy - now
            busy_until[direction] = busy + serialization
        else:
            queue_delay = 0.0
            busy_until[direction] = now + serialization
        self._messages.value += 1
        self._bytes.value += size_bytes
        self._queue_ns.value += queue_delay
        total = latency_ns + queue_delay + serialization
        if (
            faults is not None
            and faults.error_rate > 0.0
            and faults.draw_error()
        ):
            return self.retry_tail(
                direction, size_bytes, serialization, total, faultable
            )
        return total

    def try_transfer(self, direction: int, now: float, size_bytes: int) -> float:
        """Like :meth:`transfer`, but raises :class:`LinkTransferError` when
        the retry budget runs out instead of absorbing a give-up penalty.

        Use for abortable bulk traffic (page/line migration payloads).
        """
        return self.transfer(direction, now, size_bytes, True)

    def retry_tail(
        self, direction: int, size_bytes: int, serialization: float,
        total: float, faultable: bool = False,
    ) -> float:
        """Finish a transfer whose first attempt drew a CRC error.

        ``total`` is that attempt's latency.  Each retry waits an
        exponential backoff, re-sends the payload behind the direction's
        queue and draws again; the first clean draw returns the total.
        When the attempts run out, demand traffic absorbs the give-up
        penalty and ``faultable`` traffic raises.  Only called with a
        fault model attached: by :meth:`transfer`, and by the engine's
        fast lane, which flies a windowless faulted link inline.
        """
        faults = self._faults
        attempt = 1
        while attempt < faults.max_attempts:
            faults.counters.link_retries += 1
            self._retries.value += 1
            self._busy_until[direction] += serialization
            self._messages.value += 1
            self._bytes.value += size_bytes
            total += (
                faults.retry_backoff_ns * (2 ** (attempt - 1)) + serialization
            )
            attempt += 1
            if not faults.draw_error():
                return total
        faults.counters.link_giveups += 1
        self._giveups.value += 1
        if faultable:
            raise LinkTransferError(faults.host, direction, size_bytes)
        # Demand traffic must complete: charge the recovery penalty
        # (scrub + re-issue through a clean path).
        faults.counters.recovery_ns += faults.giveup_penalty_ns
        return total + faults.giveup_penalty_ns

    def round_trip(
        self,
        now: float,
        request_bytes: int = units.CACHE_LINE,
        response_bytes: int = units.CACHE_LINE,
    ) -> float:
        """Request to the device and response back, starting at ``now``:
        the response leg starts when the request leg delivers."""
        out = self.transfer(TO_DEVICE, now, request_bytes)
        back = self.transfer(TO_HOST, now + out, response_bytes)
        return out + back

    def try_round_trip(
        self,
        now: float,
        request_bytes: int = units.CACHE_LINE,
        response_bytes: int = units.CACHE_LINE,
    ) -> float:
        """Abortable round trip: raises :class:`LinkTransferError` on give-up."""
        out = self.try_transfer(TO_DEVICE, now, request_bytes)
        back = self.try_transfer(TO_HOST, now + out, response_bytes)
        return out + back

    def occupancy_until(self, direction: int) -> float:
        return self._busy_until[direction]

    def reset(self) -> None:
        self._busy_until = [0.0, 0.0]
        if self._stats is not None:
            self._stats.clear()
        # clear() drops the scope's keys from the registry; re-bind so
        # post-reset traffic lands in live (fresh, zeroed) cells.
        self._bind_counters()


#: Size of a bare coherence/control message on the link (header-only flit).
CONTROL_BYTES = 16
