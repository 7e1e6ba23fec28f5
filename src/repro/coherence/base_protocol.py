"""Functional model of the baseline CXL-DSM hierarchical MSI protocol.

This is the transition system the model checker explores (Section 5.1.4's
Murphi verification).  It models one CXL-DSM cache line shared by ``n``
hosts.  Transactions are atomic — matching the paper's "locked-based scheme
similar to ZSim" — so the checker verifies protocol-level safety (SWMR,
data-value integrity, directory consistency) over every interleaving of
loads, stores, and evictions.

Data values are modelled as monotonically increasing *versions*: every store
creates ``latest + 1``; a load must observe ``latest``.  States are
canonicalized by rank-compressing versions so the reachable state space is
finite.
"""

from __future__ import annotations

from typing import Dict, FrozenSet, List, NamedTuple, Tuple

from .states import CacheState

# Per-host cached copy: (state, version). version is meaningful only when
# state has a valid copy.
HostCopy = Tuple[int, int]


class LineState(NamedTuple):
    """Complete protocol state of one CXL-DSM line."""

    caches: Tuple[HostCopy, ...]
    dir_state: int  # device directory: M/S/I
    dir_owner: int  # valid when dir_state == M
    dir_sharers: FrozenSet[int]
    mem_version: int


class Action(NamedTuple):
    """One protocol stimulus: a host loads, stores, or evicts the line."""

    name: str  # "load" | "store" | "evict"
    host: int

    def __str__(self) -> str:  # pragma: no cover - debugging aid
        return f"{self.name}(h{self.host})"


_I = int(CacheState.I)
_S = int(CacheState.S)
_M = int(CacheState.M)


class BaseCxlDsmModel:
    """Baseline multi-host CXL-DSM directory MSI over one line."""

    name = "cxl-dsm-msi"

    def __init__(self, num_hosts: int = 2) -> None:
        if num_hosts < 1:
            raise ValueError("need at least one host")
        self.num_hosts = num_hosts

    # -- construction -----------------------------------------------------
    def initial_state(self) -> LineState:
        return LineState(
            caches=tuple((_I, 0) for _ in range(self.num_hosts)),
            dir_state=_I,
            dir_owner=-1,
            dir_sharers=frozenset(),
            mem_version=0,
        )

    # -- exploration interface ---------------------------------------------
    def enabled_actions(self, state: LineState) -> List[Action]:
        actions = []
        for host in range(self.num_hosts):
            actions.append(Action("load", host))
            actions.append(Action("store", host))
            if state.caches[host][0] != _I:
                actions.append(Action("evict", host))
        return actions

    def latest_version(self, state: LineState) -> int:
        latest = state.mem_version
        for cache_state, version in state.caches:
            if cache_state != _I and version > latest:
                latest = version
        return latest

    def apply(self, state: LineState, action: Action) -> Tuple[LineState, Dict]:
        """Apply ``action``; returns ``(new_state, observation)``.

        The observation dict reports ``read_version`` (for loads) and
        ``latest`` so the checker can verify the data-value invariant.
        """
        if action.name == "load":
            return self._load(state, action.host)
        if action.name == "store":
            return self._store(state, action.host)
        if action.name == "evict":
            return self._evict(state, action.host)
        raise ValueError(f"unknown action {action.name!r}")

    # -- transitions --------------------------------------------------------
    def _load(self, state: LineState, host: int) -> Tuple[LineState, Dict]:
        caches = list(state.caches)
        cache_state, version = caches[host]
        latest = self.latest_version(state)
        if cache_state in (_M, _S):
            return state, {"read_version": version, "latest": latest}

        mem_version = state.mem_version
        sharers = set(state.dir_sharers)
        if state.dir_state == _M:
            # Fetch from the owner (workflow steps 3-6 of Fig. 2): the owner
            # downgrades to S and the dirty data is written back.
            owner = state.dir_owner
            owner_version = caches[owner][1]
            caches[owner] = (_S, owner_version)
            mem_version = owner_version
            data_version = owner_version
            sharers = {owner, host}
        else:
            data_version = mem_version
            sharers.add(host)
        caches[host] = (_S, data_version)
        new_state = LineState(
            caches=tuple(caches),
            dir_state=_S,
            dir_owner=-1,
            dir_sharers=frozenset(sharers),
            mem_version=mem_version,
        )
        return new_state, {"read_version": data_version, "latest": latest}

    def _store(self, state: LineState, host: int) -> Tuple[LineState, Dict]:
        # A store folds the whole RFO exchange into one atomic step: the
        # writer acquires M and every other valid copy (and the S/M
        # directory side) observes its invalidation here.
        latest = self.latest_version(state)
        new_version = latest + 1
        caches = []
        for idx, (cache_state, version) in enumerate(state.caches):
            if idx == host:
                caches.append((_M, new_version))
            else:
                # Invalidations to every other valid copy.
                caches.append((_I, 0))
        new_state = LineState(
            caches=tuple(caches),
            dir_state=_M,
            dir_owner=host,
            dir_sharers=frozenset(),
            mem_version=state.mem_version,
        )
        return new_state, {"written_version": new_version, "latest": latest}

    def _evict(self, state: LineState, host: int) -> Tuple[LineState, Dict]:
        cache_state, version = state.caches[host]
        if cache_state == _I:
            raise ValueError("evict of an invalid line is not enabled")
        caches = list(state.caches)
        caches[host] = (_I, 0)
        mem_version = state.mem_version
        sharers = set(state.dir_sharers)
        if cache_state == _M:
            mem_version = version  # dirty writeback
            dir_state, dir_owner = _I, -1
            sharers = set()
        else:
            sharers.discard(host)
            if sharers:
                dir_state, dir_owner = _S, -1
            else:
                dir_state, dir_owner = _I, -1
        new_state = LineState(
            caches=tuple(caches),
            dir_state=dir_state,
            dir_owner=dir_owner,
            dir_sharers=frozenset(sharers),
            mem_version=mem_version,
        )
        return new_state, {}

    # -- invariants ----------------------------------------------------------
    def invariant_violations(self, state: LineState) -> List[str]:
        violations: List[str] = []
        writers = [
            idx for idx, (s, _) in enumerate(state.caches) if s == _M
        ]
        readers = [
            idx for idx, (s, _) in enumerate(state.caches) if s == _S
        ]
        if len(writers) > 1:
            violations.append(f"SWMR: multiple writers {writers}")
        if writers and readers:
            violations.append(
                f"SWMR: writer {writers} coexists with readers {readers}"
            )
        # Directory consistency.
        if state.dir_state == _M:
            if len(writers) != 1 or state.dir_owner != writers[0]:
                violations.append(
                    f"directory M but cache writers={writers}, "
                    f"owner={state.dir_owner}"
                )
        elif state.dir_state == _S:
            if writers:
                violations.append("directory S but a cache holds M")
            if set(readers) != set(state.dir_sharers):
                violations.append(
                    f"directory sharers {sorted(state.dir_sharers)} != "
                    f"cached readers {readers}"
                )
        else:  # I
            if writers or readers:
                violations.append("directory I but cached copies exist")
        # Memory currency: with no dirty copy, memory must hold the latest.
        if not writers and state.mem_version != self.latest_version(state):
            violations.append(
                f"memory stale: mem={state.mem_version}, "
                f"latest={self.latest_version(state)}"
            )
        return violations

    # -- canonicalization -----------------------------------------------------
    def canonicalize(self, state: LineState) -> LineState:
        """Rank-compress versions so the reachable state space is finite."""
        versions = {state.mem_version}
        for cache_state, version in state.caches:
            if cache_state != _I:
                versions.add(version)
        rank = {v: i for i, v in enumerate(sorted(versions))}
        caches = tuple(
            (s, rank[v] if s != _I else 0) for s, v in state.caches
        )
        return state._replace(caches=caches, mem_version=rank[state.mem_version])
