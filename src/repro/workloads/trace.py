"""Trace format and stream-synthesis machinery.

A :class:`WorkloadTrace` holds one access stream per host.  Each record is
a plain tuple ``(gap_instructions, byte_address, is_write, core)`` — the
simulator hot loop iterates millions of these, so they stay tuples rather
than objects.

Streams are synthesized from *mixture components*: cyclic sequential scans,
zipfian random accesses, and strided walks over named regions of the shared
heap (or a host's private window).  Components are interleaved
probabilistically with a seeded RNG so runs are reproducible.
"""

from __future__ import annotations

import itertools
from dataclasses import dataclass, field
from typing import ClassVar, List, Optional, Sequence, Tuple

import numpy as np

from .. import units
from ..mem.address import Region

#: One trace record: (gap_instructions, byte_address, is_write, core).
AccessRecord = Tuple[int, int, int, int]


@dataclass(frozen=True)
class WorkloadScale:
    """How big to make a synthetic run.

    ``footprint_bytes`` scales every region proportionally against the
    workload's natural layout; ``accesses_per_host`` bounds trace length.
    """

    accesses_per_host: int = 150_000
    footprint_bytes: int = 4 * units.MB
    seed: int = 7

    #: The preset names :meth:`named` accepts, smallest first.
    NAMES: ClassVar[Tuple[str, ...]] = ("tiny", "small", "default", "large")

    @classmethod
    def named(cls, name: str) -> "WorkloadScale":
        """The preset called ``name`` (one of :attr:`NAMES`)."""
        if name not in cls.NAMES:
            raise ValueError(
                f"unknown scale {name!r}; choose from {list(cls.NAMES)}"
            )
        return getattr(cls, name)()

    @classmethod
    def tiny(cls) -> "WorkloadScale":
        """For unit tests: fast, still enough reuse to exercise migration."""
        return cls(accesses_per_host=8_000, footprint_bytes=512 * units.KB,
                   seed=7)

    @classmethod
    def small(cls) -> "WorkloadScale":
        return cls(accesses_per_host=50_000, footprint_bytes=2 * units.MB,
                   seed=7)

    @classmethod
    def default(cls) -> "WorkloadScale":
        return cls()

    @classmethod
    def large(cls) -> "WorkloadScale":
        return cls(accesses_per_host=400_000, footprint_bytes=8 * units.MB,
                   seed=7)


@dataclass
class WorkloadTrace:
    """A complete multi-host workload: metadata + per-host streams."""

    name: str
    num_hosts: int
    streams: List[List[AccessRecord]]
    footprint_bytes: int
    regions: List[Region] = field(default_factory=list)
    mlp: float = 4.0
    read_write_ratio: float = 0.8  # fraction of reads, informational
    description: str = ""

    @property
    def total_accesses(self) -> int:
        return sum(len(s) for s in self.streams)

    @property
    def total_instructions(self) -> int:
        return sum(sum(rec[0] for rec in s) for s in self.streams)

    def baked_arrays(self, host: int, ns_per_instr: float) -> "BakedStream":
        """``streams[host]`` as a structure-of-arrays :class:`BakedStream`.

        The instruction gap is pre-multiplied into compute nanoseconds (one
        vectorized multiply at load instead of per access) and the write
        flag becomes a real bool array; :meth:`BakedStream.records` unpacks
        the arrays into the engine's run-loop tuples.  Raises
        ``ValueError`` when a record does not have exactly four fields.
        """
        stream = self.streams[host]
        widths = set(map(len, stream))
        if widths - {4}:
            raise ValueError(
                f"{self.name}: host {host} records must have 4 fields "
                f"(gap, address, is_write, core); found widths "
                f"{sorted(widths)}"
            )
        raw = np.fromiter(
            itertools.chain.from_iterable(stream),
            dtype=np.int64,
            count=4 * len(stream),
        ).reshape(-1, 4)
        gap = raw[:, 0]
        return BakedStream(
            gap=gap,
            compute_ns=gap * float(ns_per_instr),
            addr=np.ascontiguousarray(raw[:, 1]),
            is_write=raw[:, 2] != 0,
            core=np.ascontiguousarray(raw[:, 3]),
        )

    def baked_stream(
        self, host: int, ns_per_instr: float
    ) -> List[Tuple[float, int, bool, int]]:
        """``streams[host]`` as flat run-loop records (the engine's view
        of :meth:`baked_arrays`)."""
        return self.baked_arrays(host, ns_per_instr).records()

    def validate(
        self,
        cxl_capacity: int,
        total_capacity: int,
        addr_arrays: Optional[Sequence[np.ndarray]] = None,
    ) -> None:
        """Check every address of every host stream against the physical map.

        Addresses must fall in the shared CXL pool ``[0, cxl_capacity)`` or
        inside the issuing host's *own* local window — an address in another
        host's window would silently be served as if it were requester-
        private data.  Vectorized over the full streams; ``addr_arrays``
        lets callers that already hold the baked SoA address arrays skip
        rebuilding them.
        """
        if not 0 <= cxl_capacity <= total_capacity:
            raise ValueError(
                f"{self.name}: cxl capacity {cxl_capacity} outside total "
                f"capacity {total_capacity}"
            )
        local_capacity, remainder = divmod(
            total_capacity - cxl_capacity, max(self.num_hosts, 1)
        )
        if remainder:
            raise ValueError(
                f"{self.name}: local capacity {total_capacity - cxl_capacity}"
                f" does not divide across {self.num_hosts} hosts"
            )
        for host, stream in enumerate(self.streams):
            if not stream:
                continue
            if addr_arrays is not None:
                addrs = addr_arrays[host]
            else:
                addrs = np.array([rec[1] for rec in stream], dtype=np.int64)
            window_start = cxl_capacity + host * local_capacity
            window_end = window_start + local_capacity
            ok = (addrs >= 0) & (
                (addrs < cxl_capacity)
                | ((addrs >= window_start) & (addrs < window_end))
            )
            if ok.all():
                continue
            index = int(np.argmax(~ok))
            addr = int(addrs[index])
            if 0 <= addr < total_capacity:
                raise ValueError(
                    f"{self.name}: host {host} record {index} address "
                    f"{addr:#x} falls inside another host's local window"
                )
            raise ValueError(
                f"{self.name}: host {host} record {index} address "
                f"{addr:#x} outside the physical map "
                f"[0, {total_capacity:#x})"
            )


@dataclass
class BakedStream:
    """One host's stream as parallel numpy arrays (structure of arrays).

    ``gap`` is the int64 instruction gap column, ``compute_ns`` is float64
    (gap * ns_per_instruction), ``addr``/``core`` are int64 and
    ``is_write`` is bool.
    """

    gap: np.ndarray
    compute_ns: np.ndarray
    addr: np.ndarray
    is_write: np.ndarray
    core: np.ndarray

    def __len__(self) -> int:
        return len(self.addr)

    def records(self) -> List[Tuple[float, int, bool, int]]:
        """Flat ``(compute_ns, addr, is_write, core)`` tuples.

        ``ndarray.tolist`` hands back native Python floats/ints/bools with
        exactly the values the arrays hold.
        """
        return list(zip(
            self.compute_ns.tolist(), self.addr.tolist(),
            self.is_write.tolist(), self.core.tolist(),
        ))


@dataclass(frozen=True)
class MixtureComponent:
    """One behavioural strand of a host's access stream."""

    name: str
    weight: float
    addresses: np.ndarray  # cyclic pool of byte addresses (int64)
    write_fraction: float = 0.0
    #: If True the pool is walked cyclically in order; else sampled randomly
    #: by the pre-generated order of ``addresses`` (callers pre-shuffle /
    #: pre-zipf them).
    sequential: bool = True


def zipf_indices(
    rng: np.random.Generator, n: int, count: int, alpha: float = 0.99
) -> np.ndarray:
    """``count`` indexes in ``[0, n)`` with zipf popularity skew ``alpha``.

    Samples the *bounded* zipf distribution over exactly ``n`` ranks by
    inverse-CDF (``P(rank k) ∝ (k + 1) ** -alpha``), so any positive skew —
    including the common ``alpha < 1`` regime that ``numpy.random.zipf``
    cannot represent — is honored exactly as requested, and no probability
    mass from an unbounded tail gets clipped onto the last rank.  Popular
    ranks are spread over the range (not clustered at 0) via a fixed
    permutation.
    """
    if n <= 0:
        raise ValueError("n must be positive")
    if alpha <= 0:
        raise ValueError(f"zipf alpha must be positive, got {alpha}")
    weights = np.arange(1, n + 1, dtype=np.float64) ** -alpha
    cdf = np.cumsum(weights)
    cdf /= cdf[-1]
    ranks = np.searchsorted(cdf, rng.random(count), side="right")
    # Spread hot ranks across the region deterministically.
    perm = np.random.default_rng(12345).permutation(n)
    return perm[ranks]


def seq_lines(region: Region, start: int = 0) -> np.ndarray:
    """All line-granule addresses of ``region`` starting at ``start`` lines in."""
    lines = region.size // units.CACHE_LINE
    idx = (np.arange(lines, dtype=np.int64) + start) % lines
    return region.start + idx * units.CACHE_LINE


def random_lines(
    rng: np.random.Generator,
    region: Region,
    count: int,
    alpha: Optional[float] = None,
) -> np.ndarray:
    """``count`` line-aligned addresses in ``region``; zipf if ``alpha``."""
    lines = region.size // units.CACHE_LINE
    if alpha is None:
        idx = rng.integers(0, lines, size=count, dtype=np.int64)
    else:
        idx = zipf_indices(rng, lines, count, alpha).astype(np.int64)
    return region.start + idx * units.CACHE_LINE


class StreamBuilder:
    """Interleaves mixture components into one host's access stream."""

    def __init__(
        self,
        rng: np.random.Generator,
        cores: int = 4,
        mean_gap: int = 10,
    ) -> None:
        if mean_gap < 1:
            raise ValueError("mean_gap must be >= 1")
        self.rng = rng
        self.cores = cores
        self.mean_gap = mean_gap

    def build(
        self, components: Sequence[MixtureComponent], length: int
    ) -> List[AccessRecord]:
        """Synthesize ``length`` records by weighted component interleaving."""
        if not components:
            raise ValueError("need at least one mixture component")
        weights = np.array([c.weight for c in components], dtype=np.float64)
        if (weights <= 0).any():
            raise ValueError("component weights must be positive")
        weights /= weights.sum()
        choice = self.rng.choice(len(components), size=length, p=weights)

        addrs = np.empty(length, dtype=np.int64)
        writes = np.zeros(length, dtype=np.int64)
        for idx, comp in enumerate(components):
            mask = choice == idx
            count = int(mask.sum())
            if count == 0:
                continue
            pool = comp.addresses
            if comp.sequential:
                take = (np.arange(count, dtype=np.int64)) % len(pool)
            else:
                take = self.rng.integers(0, len(pool), size=count)
            addrs[mask] = pool[take]
            if comp.write_fraction > 0:
                writes[mask] = (
                    self.rng.random(count) < comp.write_fraction
                ).astype(np.int64)

        gaps = self.rng.geometric(1.0 / self.mean_gap, size=length)
        cores = np.arange(length, dtype=np.int64) % self.cores
        return list(zip(gaps.tolist(), addrs.tolist(),
                        writes.tolist(), cores.tolist()))

    def from_arrays(
        self,
        addrs: np.ndarray,
        writes: np.ndarray,
        mean_gap: Optional[int] = None,
    ) -> List[AccessRecord]:
        """Wrap pre-computed address/write arrays into trace records."""
        if len(addrs) != len(writes):
            raise ValueError("addrs and writes must be the same length")
        gap = mean_gap if mean_gap is not None else self.mean_gap
        gaps = self.rng.geometric(1.0 / gap, size=len(addrs))
        cores = np.arange(len(addrs), dtype=np.int64) % self.cores
        return list(zip(gaps.tolist(), np.asarray(addrs, dtype=np.int64).tolist(),
                        np.asarray(writes, dtype=np.int64).tolist(),
                        cores.tolist()))


def private_region(local_window: Tuple[int, int], size: int) -> Region:
    """A host-private (stack/code) region inside the host's local window."""
    start, end = local_window
    if start + size > end:
        raise ValueError("private region exceeds the local window")
    return Region("private", start, size)


def partition_region(region: Region, part: int, parts: int) -> Region:
    """The ``part``-th of ``parts`` page-aligned slices of ``region``."""
    if not 0 <= part < parts:
        raise ValueError(f"part {part} out of range [0, {parts})")
    pages = region.size // units.PAGE_SIZE
    base_pages = pages // parts
    extra = pages % parts
    start_page = part * base_pages + min(part, extra)
    count = base_pages + (1 if part < extra else 0)
    return Region(
        f"{region.name}[{part}/{parts}]",
        region.start + start_page * units.PAGE_SIZE,
        max(count, 1) * units.PAGE_SIZE,
    )
