"""Switched CXL fabric: hosts -> switches -> memory node path objects.

The flat model gives every host a private point-to-point
:class:`~repro.mem.cxl_link.CxlLink` to the memory node, and the system
composes inter-host (4-hop) flows from two such links.  At rack scale the
interesting regime is *switched*: each host's edge link feeds a switch,
and the resources behind the switch — the device-facing port, leaf->spine
uplinks — are shared per-direction bandwidth queues that contend across
hosts.  This module builds that graph from a
:class:`~repro.config.FabricConfig` and resolves it into per-host *path
objects* with the same timing interface as a bare link:

* ``flat`` — no switches; :meth:`FabricTopology.paths` returns the edge
  :class:`CxlLink` objects themselves (identity, not wrappers), so the
  flat preset is byte-identical to the pre-fabric model by construction.
* ``single-switch`` — every path is edge link + the switch's shared
  device port segment (one switch hop).
* ``two-tier`` — edge link + the leaf's shared uplink + the spine's
  shared device port (two switch hops).

Faults compose at two levels: per-host edge fault models attach to the
edge links exactly as before, and a ``switchdown`` window degrades every
segment a given switch owns — so every path traversing that switch slows
down for the window, without touching paths routed elsewhere.
"""

from __future__ import annotations

from typing import List, Optional, Sequence, Tuple

from .. import units
from ..config import CxlLinkConfig, FabricConfig
from ..stats import Counter, ScopedStats, StatRegistry
from .cxl_link import TO_DEVICE, TO_HOST, CxlLink


class FabricSegment:
    """One shared fabric resource: a switch port or an inter-switch link.

    Timing mirrors :class:`CxlLink`: a traversal pays the segment's
    one-way latency (the switch hop that feeds it plus any wire latency)
    plus serialization at the segment's per-direction bandwidth, plus
    queueing behind earlier traffic in the same direction — from *any*
    host whose path crosses this segment; that sharing is the whole point.

    A degrade window (the ``switchdown`` fault) multiplies latency and
    serialization while ``start <= now < end``; being a pure function of
    simulated time it keeps runs bit-for-bit reproducible.
    """

    __slots__ = ("name", "_busy_until", "_latency_ns", "_bw_bytes_ns",
                 "_stats", "_messages", "_bytes", "_queue_ns",
                 "_deg_start", "_deg_end", "_deg_latency_x", "_deg_bw_x")

    def __init__(
        self,
        name: str,
        latency_ns: float,
        bandwidth_gbs: float,
        stats: Optional[ScopedStats] = None,
    ) -> None:
        self.name = name
        self._busy_until = [0.0, 0.0]
        self._latency_ns = latency_ns
        self._bw_bytes_ns = bandwidth_gbs * units.GB
        self._stats = stats
        self._deg_start = 0.0
        self._deg_end = 0.0
        self._deg_latency_x = 1.0
        self._deg_bw_x = 1.0
        self._bind_counters()

    def _bind_counters(self) -> None:
        stats = self._stats
        if stats is not None:
            self._messages = stats.counter("messages")
            self._bytes = stats.counter("bytes")
            self._queue_ns = stats.counter("queue_ns")
        else:
            self._messages = Counter()
            self._bytes = Counter()
            self._queue_ns = Counter()

    def set_degrade(
        self, start_ns: float, end_ns: float, latency_x: float,
        bandwidth_x: float,
    ) -> None:
        """Arm a degrade window (``end <= start`` disarms)."""
        self._deg_start = start_ns
        self._deg_end = end_ns
        self._deg_latency_x = latency_x
        self._deg_bw_x = bandwidth_x

    def degraded_at(self, now: float) -> bool:
        return self._deg_start <= now < self._deg_end

    def transfer(self, direction: int, now: float, size_bytes: int) -> float:
        """Latency (ns) to cross the segment in ``direction`` at ``now``."""
        latency = self._latency_ns
        serialization = size_bytes * 1e9 / self._bw_bytes_ns
        if self._deg_start <= now < self._deg_end:
            latency *= self._deg_latency_x
            serialization *= self._deg_bw_x
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
        return latency + queue_delay + serialization

    def occupancy_until(self, direction: int) -> float:
        return self._busy_until[direction]

    def reset(self) -> None:
        self._busy_until = [0.0, 0.0]
        if self._stats is not None:
            self._stats.clear()
        self._bind_counters()


class SwitchedPath:
    """One host's route through the fabric, with a link-compatible surface.

    Composes the host's private edge :class:`CxlLink` with the ordered
    shared :class:`FabricSegment` list between its switch and the memory
    node.  Host-bound and device-bound flights traverse the resources in
    opposite orders, each leg starting when the previous one delivers, so
    queueing at a congested shared segment delays exactly the traffic
    that actually reaches it.

    Edge-link fault models (transient errors, per-host degrade windows)
    stay attached to the edge link; segment traversals never error — a
    ``switchdown`` only slows them — so retry/abort semantics are
    unchanged from the flat model.

    The engine's fast lane flies a path's hops itself, transfer errors
    included, so this object serves the slow path's accesses and paths
    with a degrade window (a switchdown, or one in the edge link's fault
    model).  :meth:`transfer` flies the edge link and the segments
    inline, reading their slots directly, instead of composing
    :meth:`CxlLink.transfer` and :meth:`FabricSegment.transfer` calls.
    The inline hops keep the
    composed arithmetic bit for bit: each hop adds ``(latency + queue) +
    serialization`` to the running sum, queue state and counters change
    in traversal order, and a segment's degrade window is tested at the
    time the flight reaches it.  With a fault model on the edge link it
    falls back to the composed calls, where retries and degrade windows
    live.
    """

    __slots__ = ("edge", "segments", "name", "_reversed")

    def __init__(
        self, edge: CxlLink, segments: Sequence[FabricSegment],
        name: str = "",
    ) -> None:
        self.edge = edge
        self.segments = tuple(segments)
        self._reversed = self.segments[::-1]
        self.name = name

    @property
    def config(self) -> CxlLinkConfig:
        return self.edge.config

    def attach_faults(self, model) -> None:
        self.edge.attach_faults(model)

    def hop_count(self) -> int:
        """Switch hops between the host and the memory node."""
        return len(self.segments)

    def degraded_at(self, now: float) -> bool:
        return any(seg.degraded_at(now) for seg in self.segments)

    # -- timing --------------------------------------------------------
    def _composed(
        self, edge_transfer, direction: int, now: float, size_bytes: int
    ) -> float:
        """One leg through the hops' own transfer methods (the faulted
        and abortable paths)."""
        if direction == TO_DEVICE:
            lat = edge_transfer(direction, now, size_bytes)
            for seg in self.segments:
                lat += seg.transfer(direction, now + lat, size_bytes)
            return lat
        lat = 0.0
        for seg in self._reversed:
            lat += seg.transfer(direction, now + lat, size_bytes)
        return lat + edge_transfer(direction, now + lat, size_bytes)

    def transfer(self, direction: int, now: float, size_bytes: int) -> float:
        edge = self.edge
        if edge._faults is not None or size_bytes <= 0:
            return self._composed(edge.transfer, direction, now, size_bytes)
        # The edge link and the segments share their timing slots; only a
        # segment has a degrade window (the edge's live in its fault model).
        if direction == TO_DEVICE:
            hops = (edge, *self.segments)
        else:
            hops = (*self._reversed, edge)
        lat = 0.0
        for hop in hops:
            at = now + lat
            hop_lat = hop._latency_ns
            serialization = size_bytes * 1e9 / hop._bw_bytes_ns
            if hop is not edge and hop._deg_start <= at < hop._deg_end:
                hop_lat *= hop._deg_latency_x
                serialization *= hop._deg_bw_x
            busy_until = hop._busy_until
            busy = busy_until[direction]
            if busy > at:
                queue_delay = busy - at
                busy_until[direction] = busy + serialization
            else:
                queue_delay = 0.0
                busy_until[direction] = at + serialization
            hop._messages.value += 1
            hop._bytes.value += size_bytes
            hop._queue_ns.value += queue_delay
            lat += hop_lat + queue_delay + serialization
        return lat

    def try_transfer(
        self, direction: int, now: float, size_bytes: int
    ) -> float:
        """Abortable variant: edge-link give-ups raise before any shared
        segment's queue state mutates (device-bound), so an aborted bulk
        transfer never charges phantom occupancy downstream."""
        return self._composed(
            self.edge.try_transfer, direction, now, size_bytes
        )

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
        out = self.try_transfer(TO_DEVICE, now, request_bytes)
        back = self.try_transfer(TO_HOST, now + out, response_bytes)
        return out + back

    def occupancy_until(self, direction: int) -> float:
        busy = self.edge.occupancy_until(direction)
        for seg in self.segments:
            seg_busy = seg.occupancy_until(direction)
            if seg_busy > busy:
                busy = seg_busy
        return busy

    def reset(self) -> None:
        self.edge.reset()
        for seg in self.segments:
            seg.reset()


class HostPair:
    """The resolved route between two hosts (through the memory node).

    Inter-host (4-hop) flows are two fabric traversals — the requester's
    and the owner's — joined at the CXL node; this object is the per-pair
    resolution of both ends, so call sites name the pair once instead of
    re-composing two link lookups inline.
    """

    __slots__ = ("requester", "owner")

    def __init__(self, requester, owner) -> None:
        self.requester = requester
        self.owner = owner

    def hop_count(self) -> int:
        """Total switch hops a 4-hop flow crosses (both directions)."""
        total = 0
        for end in (self.requester, self.owner):
            if isinstance(end, SwitchedPath):
                total += end.hop_count()
        return total


class FabricTopology:
    """The host/switch/memory-node graph, resolved into path objects.

    Owns the per-host edge links (``links``), the shared segments, and
    the per-host resolved paths (``paths``).  For the ``flat`` topology
    ``paths[h] is links[h]`` — the identity is what guarantees the flat
    preset cannot perturb a single float of the pre-fabric model.
    """

    def __init__(
        self,
        fabric: FabricConfig,
        link_config: CxlLinkConfig,
        num_hosts: int,
        stats: Optional[StatRegistry] = None,
    ) -> None:
        fabric.validate()
        self.config = fabric
        self.num_hosts = num_hosts
        self.links: List[CxlLink] = [
            CxlLink(
                link_config,
                stats.scoped(f"link{h}") if stats is not None else None,
            )
            for h in range(num_hosts)
        ]
        #: ``switch_segments[s]`` = shared segments switch ``s`` owns.
        self.switch_segments: List[Tuple[FabricSegment, ...]] = []
        self.segments: List[FabricSegment] = []

        def _scoped(name: str) -> Optional[ScopedStats]:
            return stats.scoped(name) if stats is not None else None

        if fabric.topology == "flat":
            self.paths: List[CxlLink] = list(self.links)
        elif fabric.topology == "single-switch":
            port = FabricSegment(
                "switch0.memport",
                fabric.switch_latency_ns,
                fabric.switch_port_bandwidth_gbs,
                _scoped("switch0"),
            )
            self.segments = [port]
            self.switch_segments = [(port,)]
            self.paths = [
                SwitchedPath(link, (port,), name=f"host{h}-switch0-mem")
                for h, link in enumerate(self.links)
            ]
        else:  # two-tier
            leaves = fabric.num_leaves(num_hosts)
            uplinks = [
                FabricSegment(
                    f"leaf{leaf}.uplink",
                    fabric.switch_latency_ns + fabric.uplink_latency_ns,
                    fabric.uplink_bandwidth_gbs,
                    _scoped(f"leaf{leaf}"),
                )
                for leaf in range(leaves)
            ]
            port = FabricSegment(
                "spine.memport",
                fabric.switch_latency_ns,
                fabric.switch_port_bandwidth_gbs,
                _scoped("spine"),
            )
            self.segments = [*uplinks, port]
            # Switch ids: leaves 0..L-1, then the spine at L.
            self.switch_segments = [(up,) for up in uplinks] + [(port,)]
            self.paths = [
                SwitchedPath(
                    link,
                    (uplinks[h // fabric.hosts_per_leaf], port),
                    name=f"host{h}-leaf{h // fabric.hosts_per_leaf}-spine-mem",
                )
                for h, link in enumerate(self.links)
            ]

    @property
    def num_switches(self) -> int:
        return len(self.switch_segments)

    def host_path(self, host: int):
        """The resolved path object serving ``host``'s fabric traffic."""
        return self.paths[host]

    def pair(self, requester: int, owner: int) -> HostPair:
        """Resolve the route of a 4-hop flow between two hosts."""
        return self._pairs[requester][owner]

    # Lazily built: systems only reach for pairs on inter-host flows.
    @property
    def _pairs(self) -> List[List[HostPair]]:
        cache = getattr(self, "_pair_cache", None)
        if cache is None:
            cache = [
                [HostPair(self.paths[a], self.paths[b])
                 for b in range(self.num_hosts)]
                for a in range(self.num_hosts)
            ]
            self._pair_cache = cache
        return cache

    def apply_switch_down(
        self, switch: int, start_ns: float, end_ns: float,
        latency_x: float, bandwidth_x: float,
    ) -> None:
        """Degrade every path traversing ``switch`` for the window.

        Arms the degrade window on each shared segment the switch owns;
        any path routed through the switch crosses one of them, so every
        such path slows down while the window is open.
        """
        if not 0 <= switch < len(self.switch_segments):
            raise ValueError(
                f"switch {switch} out of range; topology "
                f"{self.config.topology!r} has {len(self.switch_segments)}"
            )
        for segment in self.switch_segments[switch]:
            segment.set_degrade(start_ns, end_ns, latency_x, bandwidth_x)

    def hosts_behind(self, switch: int) -> Tuple[int, ...]:
        """Hosts whose path traverses ``switch``."""
        owned = set(self.switch_segments[switch])
        return tuple(
            h for h, path in enumerate(self.paths)
            if isinstance(path, SwitchedPath)
            and any(seg in owned for seg in path.segments)
        )

    def reset(self) -> None:
        for link in self.links:
            link.reset()
        for segment in self.segments:
            segment.reset()

    def describe(self) -> str:
        if self.config.topology == "flat":
            return f"flat: {self.num_hosts} point-to-point links"
        hops = self.paths[0].hop_count() if self.paths else 0
        return (
            f"{self.config.topology}: {self.num_hosts} hosts, "
            f"{self.num_switches} switches, {hops} hop(s) per path"
        )
