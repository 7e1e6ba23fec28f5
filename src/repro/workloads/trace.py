"""Trace format and stream-synthesis machinery.

A :class:`WorkloadTrace` holds one access stream per host.  Each stream is
one C-contiguous ``(n, 4)`` int64 array whose rows are the records
``(gap_instructions, byte_address, is_write, core)``: 32 bytes a record,
the layout :mod:`repro.workloads.export` archives.  The engine bakes the
columns once into its own run-loop lists (:meth:`BakedStream.columns`).

Streams are synthesized from *mixture components*: cyclic sequential scans,
zipfian random accesses, and strided walks over named regions of the shared
heap (or a host's private window).  Components are interleaved
probabilistically with a seeded RNG so runs are reproducible.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import ClassVar, List, Optional, Sequence, Tuple

import numpy as np

from .. import units
from ..mem.address import Region

#: One trace record: (gap_instructions, byte_address, is_write, core), a
#: row of a stream array; hand-built traces may pass lists of these.
AccessRecord = Tuple[int, int, int, int]

_FIELDS = "(gap, address, is_write, core)"


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


def _as_stream(records, where: str) -> np.ndarray:
    """``records`` as a C-contiguous ``(n, 4)`` int64 stream array.

    Takes an ``(n, 4)`` integer array (returned as is when it is already
    contiguous int64) or a sequence of 4-field records.
    """
    if isinstance(records, np.ndarray):
        if records.ndim != 2 or records.shape[1] != 4:
            raise ValueError(
                f"{where} records must have 4 fields {_FIELDS}; got an "
                f"array of shape {records.shape}"
            )
        if not np.can_cast(records.dtype, np.int64):
            raise ValueError(
                f"{where} records must cast safely to int64; got an "
                f"array of {records.dtype}"
            )
        return np.ascontiguousarray(records, dtype=np.int64)
    widths = set(map(len, records))
    if widths - {4}:
        raise ValueError(
            f"{where} records must have 4 fields {_FIELDS}; found widths "
            f"{sorted(widths)}"
        )
    return np.array(records, dtype=np.int64).reshape(-1, 4)


@dataclass
class WorkloadTrace:
    """A complete multi-host workload: metadata + per-host streams.

    Each of ``streams`` is a C-contiguous ``(n, 4)`` int64 array.  The
    constructor also takes a hand-built sequence of 4-field records per
    host and converts it; a record or array of any other width raises
    ``ValueError``.
    """

    name: str
    num_hosts: int
    streams: List[np.ndarray]
    footprint_bytes: int
    regions: List[Region] = field(default_factory=list)
    mlp: float = 4.0
    read_write_ratio: float = 0.8  # fraction of reads, informational
    description: str = ""

    def __post_init__(self) -> None:
        self.streams = [
            _as_stream(stream, f"{self.name}: host {host}")
            for host, stream in enumerate(self.streams)
        ]

    @property
    def total_accesses(self) -> int:
        return sum(len(s) for s in self.streams)

    @property
    def total_instructions(self) -> int:
        return sum(int(s[:, 0].sum()) for s in self.streams)

    def baked_arrays(self, host: int, ns_per_instr: float) -> "BakedStream":
        """``streams[host]`` as a structure-of-arrays :class:`BakedStream`.

        The integer columns are views of the stream array.  The instruction
        gap is pre-multiplied into compute nanoseconds (one vectorized
        multiply at load instead of per access) and the write flag becomes
        a real bool array; :meth:`BakedStream.columns` turns the arrays
        into the engine's run-loop lists.
        """
        stream = self.streams[host]
        gap = stream[:, 0]
        return BakedStream(
            gap=gap,
            compute_ns=gap * float(ns_per_instr),
            addr=stream[:, 1],
            is_write=stream[:, 2] != 0,
            core=stream[:, 3],
        )

    def validate(self, cxl_capacity: int, total_capacity: int) -> None:
        """Check every address of every host stream against the physical map.

        Addresses must fall in the shared CXL pool ``[0, cxl_capacity)`` or
        inside the issuing host's *own* local window — an address in another
        host's window would silently be served as if it were requester-
        private data.  Vectorized over each stream's address column.
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
            addrs = stream[:, 1]
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

    ``gap``, ``addr`` and ``core`` are int64 column views of the trace's
    stream, ``compute_ns`` is float64 (gap * ns_per_instruction) and
    ``is_write`` is bool.
    """

    gap: np.ndarray
    compute_ns: np.ndarray
    addr: np.ndarray
    is_write: np.ndarray
    core: np.ndarray

    def __len__(self) -> int:
        return len(self.addr)

    def columns(self) -> Tuple[List[float], List[int], List[bool], List[int]]:
        """The run loop's ``(compute_ns, addr, is_write, core)`` lists.

        Equal values share one Python object: compute ns and addresses
        hold one float or int per distinct value, the flags and cores are
        the interpreter's own bools and small ints.  A record costs its
        four list slots (32 bytes), not a tuple of four fresh objects.
        """
        return (
            _shared_values(self.compute_ns),
            _shared_values(self.addr),
            self.is_write.tolist(),
            self.core.tolist(),
        )


def _shared_values(column: np.ndarray) -> list:
    """``column.tolist()`` with one Python object per distinct value."""
    distinct, where = np.unique(column, return_inverse=True)
    return distinct.astype(object)[where].tolist()


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
    ) -> np.ndarray:
        """Synthesize a ``length``-record stream by weighted component
        interleaving."""
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

        return self.from_arrays(addrs, writes)

    def from_arrays(
        self,
        addrs: np.ndarray,
        writes: np.ndarray,
        mean_gap: Optional[int] = None,
    ) -> np.ndarray:
        """Wrap pre-computed address/write arrays into a stream array,
        drawing the instruction gaps and assigning cores round-robin."""
        if len(addrs) != len(writes):
            raise ValueError("addrs and writes must be the same length")
        gap = mean_gap if mean_gap is not None else self.mean_gap
        length = len(addrs)
        stream = np.empty((length, 4), dtype=np.int64)
        stream[:, 0] = self.rng.geometric(1.0 / gap, size=length)
        stream[:, 1] = addrs
        stream[:, 2] = writes
        stream[:, 3] = np.arange(length, dtype=np.int64) % self.cores
        return stream


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
