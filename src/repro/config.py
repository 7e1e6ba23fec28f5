"""System configuration (Table 2 of the paper).

Two factory presets are provided:

* :meth:`SystemConfig.paper` — the paper's scaled-down system verbatim:
  4 hosts x 4 OoO cores @ 4 GHz, 32 KB L1, 8 MB LLC per host, DDR5-4800,
  50 ns / 5 GB/s CXL link, 10 ms kernel migration interval, 20 us / 5 us
  per-page kernel costs, PIPM threshold 8.

* :meth:`SystemConfig.scaled` — the same relative configuration with
  migration intervals and kernel costs shrunk by ``time_scale`` so that a
  few-hundred-thousand-access synthetic trace spans many migration
  intervals.  Cache and footprint sizes shrink by ``size_scale`` so the
  cache hierarchy's *reach relative to the footprint* is preserved.

Every latency/bandwidth knob the evaluation sweeps (Figs. 14-17) is a plain
field that benches override on a copy (see :meth:`SystemConfig.replace`).
"""

from __future__ import annotations

import dataclasses
from dataclasses import dataclass, field
from typing import Any, Dict, Optional, Tuple

from . import units
from .units import GB, KB, MB, MS, US


@dataclass(frozen=True)
class CacheConfig:
    """One level of set-associative cache."""

    size_bytes: int
    ways: int
    latency_ns: float  # round-trip hit latency
    line_bytes: int = units.CACHE_LINE

    @property
    def sets(self) -> int:
        return self.size_bytes // (self.ways * self.line_bytes)

    def validate(self) -> None:
        if self.size_bytes % (self.ways * self.line_bytes):
            raise ValueError(
                f"cache size {self.size_bytes} not divisible by "
                f"{self.ways} ways x {self.line_bytes}B lines"
            )
        if self.sets < 1:
            raise ValueError("cache must have at least one set")


@dataclass(frozen=True)
class DramConfig:
    """One DRAM pool (a host's local DRAM or the CXL node's DRAM)."""

    capacity_bytes: int
    channels: int
    bandwidth_gbs_per_channel: float  # DDR5-4800 ~= 38.4 GB/s
    trcd_ns: float = 15.0
    tcl_ns: float = 20.0
    trp_ns: float = 15.0
    trc_ns: float = 48.0
    controller_ns: float = 30.0  # queueing/controller fixed overhead
    banks_per_channel: int = 32
    row_bytes: int = 8 * KB

    @property
    def row_hit_ns(self) -> float:
        return self.tcl_ns + self.controller_ns

    @property
    def row_miss_ns(self) -> float:
        return self.trp_ns + self.trcd_ns + self.tcl_ns + self.controller_ns


@dataclass(frozen=True)
class CxlLinkConfig:
    """The CXL link between one host and the memory node."""

    latency_ns: float = 50.0  # per direction
    bandwidth_gbs: float = 5.0  # per direction (effective, x16 scaled)


@dataclass(frozen=True)
class FabricConfig:
    """The CXL fabric between the hosts and the memory node.

    ``flat`` is the paper's implicit topology — every host owns a
    point-to-point :class:`CxlLinkConfig` link to the memory node and no
    switch sits in between; it is byte-identical to the pre-fabric model.
    ``single-switch`` routes every host's edge link through one switch
    whose memory-node port is a shared per-direction bandwidth queue, so
    hosts contend for the device the way a real pooled rack does.
    ``two-tier`` groups hosts under leaf switches whose shared uplinks
    feed a spine switch in front of the memory node (the CXL-ClusterSim /
    DRackSim rack shape): two switch hops, two shared queues.
    """

    topology: str = "flat"  # flat | single-switch | two-tier
    #: One-way traversal latency of a switch (per hop, per direction).
    switch_latency_ns: float = 25.0
    #: Bandwidth of the switch port facing the memory node — shared by
    #: every host behind that switch (per direction).
    switch_port_bandwidth_gbs: float = 20.0
    #: Wire latency of a leaf->spine uplink (two-tier only).
    uplink_latency_ns: float = 10.0
    #: Bandwidth of one leaf's shared uplink (per direction).
    uplink_bandwidth_gbs: float = 15.0
    #: Hosts grouped under each leaf switch (two-tier only).
    hosts_per_leaf: int = 8

    TOPOLOGIES = ("flat", "single-switch", "two-tier")

    #: Named starting points for :meth:`parse` (one per topology).
    PRESETS = {
        "flat": {},
        "single-switch": {"topology": "single-switch"},
        "two-tier": {"topology": "two-tier"},
    }

    @property
    def is_flat(self) -> bool:
        return self.topology == "flat"

    def num_leaves(self, num_hosts: int) -> int:
        """Leaf-switch count for ``num_hosts`` (two-tier only, else 0)."""
        if self.topology != "two-tier":
            return 0
        return (num_hosts + self.hosts_per_leaf - 1) // self.hosts_per_leaf

    def num_switches(self, num_hosts: int) -> int:
        """Switches a system of ``num_hosts`` instantiates.

        ``single-switch`` has switch 0; ``two-tier`` numbers the leaves
        ``0..L-1`` and the spine ``L``.
        """
        if self.topology == "flat":
            return 0
        if self.topology == "single-switch":
            return 1
        return self.num_leaves(num_hosts) + 1

    def validate(self) -> None:
        if self.topology not in self.TOPOLOGIES:
            raise ValueError(
                f"unknown fabric topology {self.topology!r}; choose from "
                f"{list(self.TOPOLOGIES)}"
            )
        if self.switch_latency_ns < 0 or self.uplink_latency_ns < 0:
            raise ValueError("switch/uplink latencies must be non-negative")
        if self.switch_port_bandwidth_gbs <= 0:
            raise ValueError("switch_port_bandwidth_gbs must be positive")
        if self.uplink_bandwidth_gbs <= 0:
            raise ValueError("uplink_bandwidth_gbs must be positive")
        if self.hosts_per_leaf < 1:
            raise ValueError("hosts_per_leaf must be >= 1")

    @classmethod
    def from_dict(cls, data: Dict[str, Any]) -> "FabricConfig":
        known = {f.name for f in dataclasses.fields(cls)}
        config = cls(**{k: v for k, v in data.items() if k in known})
        config.validate()
        return config

    @classmethod
    def parse(cls, spec: str) -> "FabricConfig":
        """Build a config from a CLI spec: ``preset[:key=val,...]``.

        ``spec`` is a topology name (``flat``, ``single-switch``,
        ``two-tier``) optionally followed by overrides; dashes in key
        names are accepted (``hosts-per-leaf`` == ``hosts_per_leaf``).
        """
        spec = spec.strip()
        preset, _, rest = spec.partition(":")
        if preset not in cls.PRESETS:
            raise ValueError(
                f"unknown fabric topology {preset!r}; choose from "
                f"{sorted(cls.PRESETS)}"
            )
        values: Dict[str, Any] = dict(cls.PRESETS[preset])
        fields = {f.name: f for f in dataclasses.fields(cls)}
        for token in filter(None, (t.strip() for t in rest.split(","))):
            key, sep, raw = token.partition("=")
            key = key.strip().replace("-", "_")
            if not sep or key not in fields or key == "topology":
                raise ValueError(f"bad fabric override {token!r}")
            if isinstance(fields[key].default, int):
                values[key] = int(float(raw))
            else:
                values[key] = float(raw)
        config = cls(**values)
        config.validate()
        return config

    def describe(self) -> str:
        if self.topology == "flat":
            return "flat (point-to-point host<->device links)"
        if self.topology == "single-switch":
            return (
                f"single-switch, {self.switch_latency_ns:g}ns/hop, "
                f"{self.switch_port_bandwidth_gbs:g}GB/s shared device port"
            )
        return (
            f"two-tier, {self.hosts_per_leaf} hosts/leaf, "
            f"{self.switch_latency_ns:g}ns/hop, uplinks "
            f"{self.uplink_bandwidth_gbs:g}GB/s, device port "
            f"{self.switch_port_bandwidth_gbs:g}GB/s"
        )


@dataclass(frozen=True)
class DirectoryConfig:
    """The device coherence directory on the CXL memory node."""

    sets: int = 2048
    ways: int = 16
    slices: int = 16
    latency_ns: float = 16.0  # 32-cycle RT at 2 GHz

    @property
    def entries(self) -> int:
        return self.sets * self.ways * self.slices


@dataclass(frozen=True)
class PipmConfig:
    """PIPM architectural parameters (Section 4, Table 2)."""

    migration_threshold: int = 8
    global_counter_bits: int = 6
    local_counter_bits: int = 4
    host_id_bits: int = 5
    local_pfn_bits: int = 28
    global_remap_cache_bytes: int = 16 * KB
    global_remap_cache_ways: int = 8
    global_remap_cache_latency_ns: float = 2.0  # 4-cycle RT at 2 GHz
    local_remap_cache_bytes: int = 1 * MB
    local_remap_cache_ways: int = 8
    local_remap_cache_latency_ns: float = 2.0  # 8-cycle RT at 4 GHz
    global_entry_bytes: int = 2
    local_entry_bytes: int = 4
    radix_root_bytes: int = 32 * MB

    @property
    def global_counter_max(self) -> int:
        return (1 << self.global_counter_bits) - 1

    @property
    def local_counter_max(self) -> int:
        return (1 << self.local_counter_bits) - 1


@dataclass(frozen=True)
class KernelMigrationConfig:
    """OS page-migration cost model (Section 5.1.4)."""

    interval_ns: float = 10 * MS
    initiator_cost_ns: float = 20 * US  # per 4KB page on the initiating core
    other_core_cost_ns: float = 5 * US  # per page on every other core
    tlb_shootdown_batch: int = 32  # batched shootdowns (Huang patches)
    tlb_shootdown_ns: float = 4 * US  # per batch, per host
    max_pages_per_interval: int = 512
    #: Cap on each host's kernel-migrated resident set as a fraction of the
    #: workload footprint.  At paper scale the kernel's migration *rate*
    #: bounds the resident set to a few percent (Fig. 13); scaled runs are
    #: long relative to their tiny footprints, so the outcome is imposed as
    #: a capacity bound instead (capacity pressure demotes the coldest).
    resident_fraction_cap: float = 1.0


@dataclass(frozen=True)
class FaultConfig:
    """Fault-injection model (resilience extension; not in the paper).

    All fault sources are deterministic functions of ``seed`` and simulated
    time, so a faulted run is reproducible bit-for-bit.  A configured but
    all-zero instance (the ``none`` preset) is provably free: every
    fast-path check degenerates to a no-op and simulation output is
    byte-identical to a run with ``faults=None``.
    """

    seed: int = 42
    # -- transient CRC-style transfer errors -------------------------------
    transfer_error_rate: float = 0.0  # per link message, per attempt
    max_attempts: int = 4  # bounded retry before giving up
    retry_backoff_ns: float = 50.0  # base backoff; doubles per retry
    giveup_penalty_ns: float = 2000.0  # recovery charge on demand accesses
    # -- transactional migrations ------------------------------------------
    migration_timeout_ns: float = 1 * MS  # bulk transfer abort threshold
    # -- degraded-link window ----------------------------------------------
    degrade_start_ns: float = 0.0
    degrade_end_ns: float = 0.0  # end <= start disables the window
    degrade_latency_x: float = 1.0  # multiplies one-way latency
    degrade_bandwidth_x: float = 1.0  # divides per-direction bandwidth
    degrade_hosts: Tuple[int, ...] = ()  # empty = every host's link
    # -- degraded switch window (needs a non-flat fabric topology) ---------
    #: Switch index whose shared segments run degraded; -1 disables.  Every
    #: path traversing the switch (all hosts behind it) is slowed for the
    #: window — unlike ``degrade_hosts`` this composes with the fabric
    #: graph instead of naming edge links one by one.
    switch_down: int = -1
    switch_down_start_ns: float = 0.0
    switch_down_end_ns: float = 0.0  # end <= start disables the window
    switch_down_latency_x: float = 4.0  # multiplies per-hop latency
    switch_down_bandwidth_x: float = 4.0  # divides shared-segment bandwidth
    # -- host pause/stall windows ------------------------------------------
    stall_period_ns: float = 0.0  # 0 disables stalls
    stall_duration_ns: float = 0.0
    stall_hosts: Tuple[int, ...] = ()  # empty = every host
    # -- poisoned cache lines ----------------------------------------------
    poison_count: int = 0
    poison_period_ns: float = 0.0  # event k fires at (k+1) * period
    poison_penalty_ns: float = 500.0  # scrub/re-fetch charge on access
    # -- host crash / recovery ---------------------------------------------
    crash_host: int = -1  # -1 disables the crash clause
    crash_at_ns: float = 0.0  # 0 disables; crash epoch in simulated time
    crash_rejoin_ns: float = 0.0  # 0 = never rejoins; else rejoin epoch
    crash_detect_ns: float = 5000.0  # heartbeat-timeout charge in MTTR
    # -- migration governor (graceful degradation) -------------------------
    #: Hysteresis hold applied after instability (a degraded-link promotion
    #: skip or a crash recovery): PIPM promotions stay suspended until the
    #: hold expires, so migration storms cannot thrash a flapping fabric.
    #: 0 preserves the pre-governor behaviour exactly.
    governor_hold_ns: float = 0.0
    # -- invariant watchdog ------------------------------------------------
    watchdog_period_ns: float = 0.0  # 0 = post-run audit only
    watchdog_mode: str = "log"  # "log" or "fail-fast"

    #: Named starting points for ``FaultConfig.parse``.
    PRESETS = {
        "none": {},
        "flaky": {"transfer_error_rate": 1e-3},
        "degraded": {
            "transfer_error_rate": 5e-4,
            "degrade_start_ns": 0.0,
            "degrade_end_ns": 1e12,
            "degrade_latency_x": 4.0,
            "degrade_bandwidth_x": 4.0,
        },
        "storm": {
            "transfer_error_rate": 5e-3,
            "degrade_start_ns": 0.0,
            "degrade_end_ns": 1e12,
            "degrade_latency_x": 4.0,
            "degrade_bandwidth_x": 4.0,
            "stall_period_ns": 2e6,
            "stall_duration_ns": 2e5,
            "poison_count": 16,
            "poison_period_ns": 1e6,
        },
        "hostdown": {
            "crash_host": 1,
            "crash_at_ns": 2e5,
            "crash_detect_ns": 5e3,
            "governor_hold_ns": 5e4,
        },
        "switchdown": {
            "switch_down": 0,
            "switch_down_start_ns": 0.0,
            "switch_down_end_ns": 1e12,
            "switch_down_latency_x": 4.0,
            "switch_down_bandwidth_x": 4.0,
        },
        "hostdown-rejoin": {
            "crash_host": 1,
            "crash_at_ns": 2e5,
            "crash_rejoin_ns": 6e5,
            "crash_detect_ns": 5e3,
            "governor_hold_ns": 5e4,
        },
    }

    @property
    def has_degrade_window(self) -> bool:
        return self.degrade_end_ns > self.degrade_start_ns and (
            self.degrade_latency_x > 1.0 or self.degrade_bandwidth_x > 1.0
        )

    @property
    def has_stalls(self) -> bool:
        return self.stall_period_ns > 0 and self.stall_duration_ns > 0

    @property
    def has_poison(self) -> bool:
        return self.poison_count > 0 and self.poison_period_ns > 0

    @property
    def has_crash(self) -> bool:
        return self.crash_host >= 0 and self.crash_at_ns > 0

    @property
    def has_switch_down(self) -> bool:
        return (
            self.switch_down >= 0
            and self.switch_down_end_ns > self.switch_down_start_ns
            and (
                self.switch_down_latency_x > 1.0
                or self.switch_down_bandwidth_x > 1.0
            )
        )

    @property
    def idle(self) -> bool:
        """True when no fault source can ever fire (the zero plan)."""
        return (
            self.transfer_error_rate <= 0.0
            and not self.has_degrade_window
            and not self.has_stalls
            and not self.has_poison
            and not self.has_crash
            and not self.has_switch_down
        )

    def validate(self) -> None:
        if not 0.0 <= self.transfer_error_rate < 1.0:
            raise ValueError("transfer_error_rate must be in [0, 1)")
        if self.max_attempts < 1:
            raise ValueError("max_attempts must be >= 1")
        if self.degrade_latency_x < 1.0 or self.degrade_bandwidth_x < 1.0:
            raise ValueError("degrade multipliers must be >= 1")
        if self.migration_timeout_ns <= 0:
            raise ValueError("migration_timeout_ns must be positive")
        if self.watchdog_mode not in ("log", "fail-fast"):
            raise ValueError(
                f"watchdog_mode must be 'log' or 'fail-fast', "
                f"got {self.watchdog_mode!r}"
            )
        if self.switch_down < -1:
            raise ValueError("switch_down must be -1 (off) or a switch index")
        if self.switch_down_latency_x < 1.0 or (
            self.switch_down_bandwidth_x < 1.0
        ):
            raise ValueError("switch_down multipliers must be >= 1")
        if self.switch_down_start_ns < 0 or self.switch_down_end_ns < 0:
            raise ValueError("switch_down window bounds must be non-negative")
        if self.crash_host < -1:
            raise ValueError("crash_host must be -1 (off) or a host index")
        if self.crash_at_ns < 0:
            raise ValueError("crash_at_ns must be non-negative")
        if self.crash_rejoin_ns < 0:
            raise ValueError("crash_rejoin_ns must be non-negative")
        if self.has_crash and self.crash_rejoin_ns > 0 and (
            self.crash_rejoin_ns <= self.crash_at_ns
        ):
            raise ValueError("crash_rejoin_ns must be after crash_at_ns")
        for knob in ("retry_backoff_ns", "giveup_penalty_ns", "stall_period_ns",
                     "stall_duration_ns", "poison_period_ns",
                     "poison_penalty_ns", "watchdog_period_ns",
                     "crash_detect_ns", "governor_hold_ns"):
            if getattr(self, knob) < 0:
                raise ValueError(f"{knob} must be non-negative")

    @classmethod
    def from_dict(cls, data: Dict[str, Any]) -> "FaultConfig":
        """Rebuild a config from ``dataclasses.asdict`` output.

        JSON round-trips turn the host tuples into lists; normalise them
        back so rebuilt configs hash/compare identically to the original.
        """
        known = {f.name for f in dataclasses.fields(cls)}
        values = {k: v for k, v in data.items() if k in known}
        for key in ("degrade_hosts", "stall_hosts"):
            if key in values:
                values[key] = tuple(int(h) for h in values[key])
        config = cls(**values)
        config.validate()
        return config

    @classmethod
    def parse(cls, spec: str) -> "FaultConfig":
        """Build a config from a CLI spec: ``preset[:key=val,key=val,...]``.

        ``spec`` may also be a bare override list (applied to the ``none``
        preset).  Host lists use ``+``: ``degrade_hosts=0+2``.  Dashes in
        key names are accepted (``error-rate`` == ``error_rate``).
        """
        spec = spec.strip()
        preset, _, rest = spec.partition(":")
        if "=" in preset:  # bare overrides, no preset name
            preset, rest = "none", spec
        if preset not in cls.PRESETS:
            raise ValueError(
                f"unknown fault preset {preset!r}; choose from "
                f"{sorted(cls.PRESETS)}"
            )
        values: Dict[str, Any] = dict(cls.PRESETS[preset])
        fields = {f.name: f for f in dataclasses.fields(cls)}
        for token in filter(None, (t.strip() for t in rest.split(","))):
            key, sep, raw = token.partition("=")
            key = key.strip().replace("-", "_")
            if not sep or key not in fields:
                raise ValueError(f"bad fault override {token!r}")
            if key in ("degrade_hosts", "stall_hosts"):
                values[key] = tuple(
                    int(h) for h in raw.split("+") if h.strip()
                )
            elif key == "watchdog_mode":
                values[key] = raw.strip()
            elif fields[key].type == "int" or isinstance(
                fields[key].default, int
            ):
                values[key] = int(float(raw))
            else:
                values[key] = float(raw)
        config = cls(**values)
        config.validate()
        return config


@dataclass(frozen=True)
class CoreConfig:
    """Analytic OoO core model parameters."""

    freq_ghz: float = 4.0
    width: int = 6
    rob_entries: int = 224
    load_queue: int = 72
    store_queue: int = 56
    base_cpi: float = 0.4  # non-memory CPI on a 6-wide machine


@dataclass(frozen=True)
class SystemConfig:
    """Complete multi-host CXL-DSM system configuration."""

    num_hosts: int = 4
    cores_per_host: int = 4
    core: CoreConfig = field(default_factory=CoreConfig)
    l1: CacheConfig = field(
        default_factory=lambda: CacheConfig(32 * KB, 8, latency_ns=1.0)
    )
    llc: CacheConfig = field(
        default_factory=lambda: CacheConfig(8 * MB, 16, latency_ns=6.0)
    )
    local_dram: DramConfig = field(
        default_factory=lambda: DramConfig(32 * GB, 1, 38.4)
    )
    cxl_dram: DramConfig = field(
        default_factory=lambda: DramConfig(128 * GB, 2, 38.4)
    )
    cxl_link: CxlLinkConfig = field(default_factory=CxlLinkConfig)
    #: Fabric between the hosts' edge links and the memory node; the
    #: default ``flat`` preset reproduces the point-to-point model exactly.
    fabric: FabricConfig = field(default_factory=FabricConfig)
    directory: DirectoryConfig = field(default_factory=DirectoryConfig)
    pipm: PipmConfig = field(default_factory=PipmConfig)
    kernel: KernelMigrationConfig = field(default_factory=KernelMigrationConfig)
    local_dir_latency_ns: float = 2.5  # per-processor coherence directory
    # Fraction of each host's local DRAM usable for migrated pages.
    migration_capacity_fraction: float = 0.5
    #: Optional fault-injection model; ``None`` = perfect fabric.
    faults: Optional[FaultConfig] = None

    # ------------------------------------------------------------------
    def validate(self) -> None:
        if self.num_hosts < 1:
            raise ValueError("need at least one host")
        if self.num_hosts > (1 << self.pipm.host_id_bits):
            raise ValueError(
                f"{self.num_hosts} hosts do not fit in "
                f"{self.pipm.host_id_bits}-bit host IDs"
            )
        self.l1.validate()
        self.llc.validate()
        self.fabric.validate()
        if self.pipm.migration_threshold > self.pipm.global_counter_max:
            raise ValueError("migration threshold exceeds global counter range")
        if self.pipm.migration_threshold > self.pipm.local_counter_max:
            raise ValueError("migration threshold exceeds local counter range")
        if not 0.0 < self.migration_capacity_fraction <= 1.0:
            raise ValueError("migration_capacity_fraction must be in (0, 1]")
        if self.faults is not None:
            self.faults.validate()
            for host in (*self.faults.degrade_hosts, *self.faults.stall_hosts):
                if not 0 <= host < self.num_hosts:
                    raise ValueError(
                        f"fault plan names host {host}, system has "
                        f"{self.num_hosts}"
                    )
            if self.faults.crash_host >= 0:
                if not 0 <= self.faults.crash_host < self.num_hosts:
                    raise ValueError(
                        f"crash plan names host {self.faults.crash_host}, "
                        f"system has {self.num_hosts}"
                    )
                if self.num_hosts < 2:
                    raise ValueError(
                        "a host crash needs at least one surviving host"
                    )
            if self.faults.switch_down >= 0:
                switches = self.fabric.num_switches(self.num_hosts)
                if switches == 0:
                    raise ValueError(
                        "switch_down needs a non-flat fabric topology "
                        "(the flat preset has no switches)"
                    )
                if self.faults.switch_down >= switches:
                    raise ValueError(
                        f"switch_down names switch {self.faults.switch_down},"
                        f" the {self.fabric.topology} fabric has {switches}"
                    )

    def replace(self, **overrides: Any) -> "SystemConfig":
        """A copy with top-level fields replaced (``dataclasses.replace``)."""
        return dataclasses.replace(self, **overrides)

    def replace_nested(self, path: str, **overrides: Any) -> "SystemConfig":
        """A copy with fields of a nested config replaced.

        ``cfg.replace_nested("cxl_link", latency_ns=100.0)``
        """
        current = getattr(self, path)
        return dataclasses.replace(
            self, **{path: dataclasses.replace(current, **overrides)}
        )

    # ------------------------------------------------------------------
    #: Nested dataclass type for each structured field, used by
    #: :meth:`from_dict` to rebuild a config from JSON.
    _NESTED_TYPES = {
        "core": CoreConfig,
        "l1": CacheConfig,
        "llc": CacheConfig,
        "local_dram": DramConfig,
        "cxl_dram": DramConfig,
        "cxl_link": CxlLinkConfig,
        "fabric": FabricConfig,
        "directory": DirectoryConfig,
        "pipm": PipmConfig,
        "kernel": KernelMigrationConfig,
    }

    @classmethod
    def from_dict(cls, data: Dict[str, Any]) -> "SystemConfig":
        """Rebuild a config from ``dataclasses.asdict`` output.

        The inverse of the serialisation used by experiment specs and
        serve's spool files: ``SystemConfig.from_dict(asdict(cfg)) == cfg``.
        """
        known = {f.name for f in dataclasses.fields(cls)}
        values: Dict[str, Any] = {}
        for key, raw in data.items():
            if key not in known:
                continue
            if key in cls._NESTED_TYPES and isinstance(raw, dict):
                values[key] = cls._NESTED_TYPES[key](**raw)
            elif key == "faults":
                values[key] = (
                    None if raw is None else FaultConfig.from_dict(raw)
                )
            else:
                values[key] = raw
        config = cls(**values)
        config.validate()
        return config

    @classmethod
    def paper(cls) -> "SystemConfig":
        """The paper's Table 2 configuration, verbatim."""
        cfg = cls()
        cfg.validate()
        return cfg

    @classmethod
    def scaled(
        cls,
        size_scale: int = 1024,
        time_scale: int = 500,
        num_hosts: int = 4,
    ) -> "SystemConfig":
        """A tractable configuration preserving the paper's ratios.

        ``size_scale`` divides memory capacities and cache sizes so that a
        tens-of-MB synthetic footprint stresses the hierarchy the way a
        tens-of-GB footprint stresses the paper's.  ``time_scale`` divides
        kernel migration intervals and per-page costs together, so the
        overhead-to-interval ratios of Fig. 4 are preserved while a short
        trace spans many intervals.
        """
        if size_scale < 1 or time_scale < 1:
            raise ValueError("scales must be >= 1")
        base = cls()
        l1 = CacheConfig(
            max(8 * KB, base.l1.size_bytes // min(size_scale, 4)),
            base.l1.ways,
            base.l1.latency_ns,
        )
        llc = CacheConfig(
            max(64 * KB, base.llc.size_bytes // min(size_scale, 128)),
            base.llc.ways,
            base.llc.latency_ns,
        )
        # Keep the paper's sizing rule: the device directory covers the sum
        # of all hosts' LLC capacities (512K entries vs 4 x 8MB LLCs there).
        llc_lines_total = num_hosts * llc.size_bytes // units.CACHE_LINE
        slices = max(1, base.directory.slices // 4)
        dir_sets = max(64, llc_lines_total // (base.directory.ways * slices))
        directory = dataclasses.replace(
            base.directory,
            sets=1 << (dir_sets - 1).bit_length(),
            slices=slices,
        )
        # Kernel migration: interval shrinks with time_scale; per-page costs
        # shrink less (10x less) so the cost-to-interval ratio of Fig. 4 is
        # preserved; the per-interval page budget shrinks with the interval
        # (it models kernel migration *throughput*, which is what bounds the
        # migrated footprint to the few percent of Fig. 13).
        interval_scale = max(1, time_scale // 2)
        kernel = dataclasses.replace(
            base.kernel,
            interval_ns=base.kernel.interval_ns / interval_scale,
            initiator_cost_ns=base.kernel.initiator_cost_ns / time_scale * 25,
            other_core_cost_ns=base.kernel.other_core_cost_ns / time_scale * 25,
            tlb_shootdown_ns=base.kernel.tlb_shootdown_ns / time_scale * 25,
            max_pages_per_interval=max(
                8, base.kernel.max_pages_per_interval * 8 // time_scale
            ),
            resident_fraction_cap=0.06,
        )
        pipm = dataclasses.replace(
            base.pipm,
            global_remap_cache_bytes=max(
                1 * KB, base.pipm.global_remap_cache_bytes // min(size_scale, 16)
            ),
            local_remap_cache_bytes=max(
                8 * KB, base.pipm.local_remap_cache_bytes // min(size_scale, 64)
            ),
        )
        local_dram = dataclasses.replace(
            base.local_dram, capacity_bytes=base.local_dram.capacity_bytes // size_scale
        )
        cxl_dram = dataclasses.replace(
            base.cxl_dram, capacity_bytes=base.cxl_dram.capacity_bytes // size_scale
        )
        cfg = cls(
            num_hosts=num_hosts,
            l1=l1,
            llc=llc,
            directory=directory,
            kernel=kernel,
            pipm=pipm,
            local_dram=local_dram,
            cxl_dram=cxl_dram,
        )
        cfg.validate()
        return cfg

    @classmethod
    def rack(
        cls,
        num_hosts: int = 8,
        topology: str = "single-switch",
        size_scale: int = 1024,
        time_scale: int = 500,
    ) -> "SystemConfig":
        """A rack-scale configuration: ``scaled()`` plus a switched fabric.

        ``topology`` accepts anything :meth:`FabricConfig.parse` does, so
        ``rack(16, "two-tier:hosts-per-leaf=4")`` works.
        """
        cfg = cls.scaled(
            size_scale=size_scale, time_scale=time_scale, num_hosts=num_hosts
        ).replace(fabric=FabricConfig.parse(topology))
        cfg.validate()
        return cfg

    # ------------------------------------------------------------------
    def describe(self) -> Dict[str, str]:
        """Human-readable description of the configuration (Table 2 rows)."""
        rows = {
            "Architecture": (
                f"{self.num_hosts} hosts, {self.cores_per_host} cores each"
            ),
            "CPU": (
                f"{self.cores_per_host} OoO cores, {self.core.freq_ghz:g}GHz, "
                f"{self.core.width}-wide, {self.core.rob_entries}-entry ROB, "
                f"{self.core.load_queue}-entry LQ, {self.core.store_queue}-entry SQ"
            ),
            "Private L1": (
                f"{units.pretty_size(self.l1.size_bytes)}, {self.l1.ways}-way, "
                f"{self.l1.latency_ns:g}ns RT"
            ),
            "Shared LLC": (
                f"{units.pretty_size(self.llc.size_bytes)}, {self.llc.ways}-way, "
                f"{self.llc.latency_ns:g}ns RT"
            ),
            "DRAM": (
                f"{self.cxl_dram.channels}x DDR5 "
                f"{units.pretty_size(self.cxl_dram.capacity_bytes)} CXL-DSM; "
                f"{self.local_dram.channels}x DDR5 "
                f"{units.pretty_size(self.local_dram.capacity_bytes)} per host"
            ),
            "CXL link": (
                f"latency {self.cxl_link.latency_ns:g}ns, "
                f"bandwidth {self.cxl_link.bandwidth_gbs:g}GB/s per direction"
            ),
            "Fabric": self.fabric.describe(),
            "CXL Directory": (
                f"{self.directory.sets}-set, {self.directory.ways}-way per slice, "
                f"{self.directory.slices} slices, {self.directory.latency_ns:g}ns RT"
            ),
            "PIPM": (
                f"{units.pretty_size(self.pipm.global_remap_cache_bytes)} global "
                f"remap cache; "
                f"{units.pretty_size(self.pipm.local_remap_cache_bytes)} local "
                f"remap cache; threshold {self.pipm.migration_threshold}"
            ),
            "Kernel migration": (
                f"interval {units.pretty_time(self.kernel.interval_ns)}, "
                f"{units.pretty_time(self.kernel.initiator_cost_ns)}/page initiator"
            ),
        }
        if self.faults is not None:
            rows["Faults"] = (
                f"seed {self.faults.seed}, "
                f"xfer error rate {self.faults.transfer_error_rate:g}, "
                f"max attempts {self.faults.max_attempts}, "
                f"watchdog {self.faults.watchdog_mode}"
            )
        return rows


DEFAULT_CONFIG = SystemConfig.scaled()
