"""Functional model of the PIPM coherence protocol (Fig. 9).

Extends the baseline CXL-DSM MSI model with:

* the per-line in-memory bit kept in both CXL memory and the migration
  host's local memory,
* the ``ME`` (Migrated-Modified/Exclusive) local state and the ``I'``
  (Migrated-Invalid) encoding,
* the six new transitions of Fig. 9:

  - case 1: incremental migration on local writeback of an ``M`` line,
  - cases 3/4: local fast-path accesses to migrated lines (``I'`` <-> ``ME``),
  - cases 2/5/6: migrate-back to CXL memory on inter-host accesses.

The model fixes the *remap host* — the host whose local remapping table has
an entry for this line's page — as a constructor parameter: the migration
policy (Section 4.2) decides that host; the protocol is only responsible for
coherent data movement given the decision.

One modelling note: for inter-host reads of migrated lines (case 2) the
paper installs the retrieved line in state ``M`` at the requester; we give
read requesters ``S`` and write requesters ``M`` so the SWMR invariant stays
directly checkable in MSI terms.  This is a strictly more conservative
sharing state and does not affect any migration behaviour.
"""

from __future__ import annotations

from typing import Dict, FrozenSet, List, NamedTuple, Tuple

from .states import CacheState
from .base_protocol import Action

_I = int(CacheState.I)
_S = int(CacheState.S)
_M = int(CacheState.M)
_ME = int(CacheState.ME)

HostCopy = Tuple[int, int]


class PipmLineState(NamedTuple):
    """Complete PIPM protocol state of one partially-migrated-page line."""

    caches: Tuple[HostCopy, ...]
    dir_state: int  # device directory: M/S/I (I + mem_bit=1 decodes to I')
    dir_owner: int
    dir_sharers: FrozenSet[int]
    mem_version: int  # CXL memory copy
    mem_bit: int  # in-memory bit (CXL side; local side mirrors it)
    local_version: int  # remap host's local DRAM copy (valid when mem_bit=1)


class PipmModel:
    """PIPM coherence over one line of a page partially migrated to ``remap_host``."""

    name = "pipm"

    def __init__(self, num_hosts: int = 2, remap_host: int = 0) -> None:
        if num_hosts < 1:
            raise ValueError("need at least one host")
        if not 0 <= remap_host < num_hosts:
            raise ValueError("remap_host out of range")
        self.num_hosts = num_hosts
        self.remap_host = remap_host

    # -- construction ------------------------------------------------------
    def initial_state(self) -> PipmLineState:
        return PipmLineState(
            caches=tuple((_I, 0) for _ in range(self.num_hosts)),
            dir_state=_I,
            dir_owner=-1,
            dir_sharers=frozenset(),
            mem_version=0,
            mem_bit=0,
            local_version=0,
        )

    # -- exploration interface ------------------------------------------------
    def enabled_actions(self, state: PipmLineState) -> List[Action]:
        actions = []
        for host in range(self.num_hosts):
            actions.append(Action("load", host))
            actions.append(Action("store", host))
            if state.caches[host][0] != _I:
                actions.append(Action("evict", host))
        return actions

    def latest_version(self, state: PipmLineState) -> int:
        latest = state.local_version if state.mem_bit else state.mem_version
        for cache_state, version in state.caches:
            if cache_state != _I and version > latest:
                latest = version
        return latest

    def apply(self, state: PipmLineState, action: Action) -> Tuple[PipmLineState, Dict]:
        if action.name == "load":
            return self._access(state, action.host, is_write=False)
        if action.name == "store":
            return self._access(state, action.host, is_write=True)
        if action.name == "evict":
            return self._evict(state, action.host)
        raise ValueError(f"unknown action {action.name!r}")

    # -- transitions -------------------------------------------------------
    def _access(
        self, state: PipmLineState, host: int, is_write: bool
    ) -> Tuple[PipmLineState, Dict]:
        latest = self.latest_version(state)
        cache_state, version = state.caches[host]

        # Cache hits (M/ME satisfy both; S satisfies reads).
        if cache_state in (_M, _ME) or (cache_state == _S and not is_write):
            if is_write:
                new_version = latest + 1
                caches = self._with_copy(state.caches, host, cache_state, new_version)
                return state._replace(caches=caches), {
                    "written_version": new_version, "latest": latest,
                }
            return state, {"read_version": version, "latest": latest}

        # Upgrade: S -> writer. Invalidate other sharers first.
        if cache_state == _S and is_write:
            return self._store_fill(state, host, latest)

        # cache_state == I from here on.
        if state.mem_bit and host == self.remap_host:
            # Case 3: local access to a migrated line (I' -> ME), served
            # entirely from local memory; the device directory is not touched.
            data_version = state.local_version
            if is_write:
                data_version = latest + 1
            caches = self._with_copy(state.caches, host, _ME, data_version)
            new_state = state._replace(caches=caches)
            obs = (
                {"written_version": data_version, "latest": latest}
                if is_write
                else {"read_version": state.local_version, "latest": latest}
            )
            return new_state, obs

        if state.mem_bit:
            # Cases 2/5/6: inter-host access to a migrated line -> the line
            # migrates back to CXL memory.
            return self._inter_host_migrate_back(state, host, is_write, latest)

        # mem_bit == 0: baseline directory MSI behaviour.
        if is_write:
            return self._store_fill(state, host, latest)
        return self._load_fill(state, host, latest)

    def _load_fill(
        self, state: PipmLineState, host: int, latest: int
    ) -> Tuple[PipmLineState, Dict]:
        caches = list(state.caches)
        mem_version = state.mem_version
        sharers = set(state.dir_sharers)
        if state.dir_state == _M:
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
        new_state = state._replace(
            caches=tuple(caches),
            dir_state=_S,
            dir_owner=-1,
            dir_sharers=frozenset(sharers),
            mem_version=mem_version,
        )
        return new_state, {"read_version": data_version, "latest": latest}

    def _store_fill(
        self, state: PipmLineState, host: int, latest: int
    ) -> Tuple[PipmLineState, Dict]:
        # The atomic store transaction folds the whole RFO flow: the
        # device grants from any home directory state and every other
        # valid copy is invalidated (sharers via INV, an owner via FWD).
        new_version = latest + 1
        caches = tuple(
            (_M, new_version) if idx == host else (_I, 0)
            for idx in range(self.num_hosts)
        )
        new_state = state._replace(
            caches=caches,
            dir_state=_M,
            dir_owner=host,
            dir_sharers=frozenset(),
        )
        return new_state, {"written_version": new_version, "latest": latest}

    def _inter_host_migrate_back(
        self, state: PipmLineState, host: int, is_write: bool, latest: int
    ) -> Tuple[PipmLineState, Dict]:
        # Fig. 9 cases 2/5/6, folded into the requester's access: the
        # device forwards to the remap host (whose copy is ME when
        # cached, I' when only in local memory) and the line migrates
        # back over the I_MIG directory entry.
        owner = self.remap_host
        owner_state, owner_version = state.caches[owner]
        caches = list(state.caches)
        if owner_state == _ME:
            # Cases 5/6: the owner's directory transitions ME -> I (write)
            # or ME -> S (read) and asynchronously writes back, clearing the
            # in-memory bits.
            data_version = owner_version
            caches[owner] = (_S, owner_version) if not is_write else (_I, 0)
        else:
            # Case 2: no cached copy anywhere; data comes from the owner's
            # local memory (I' -> I with an asynchronous writeback).
            data_version = state.local_version
        mem_version = data_version

        if is_write:
            new_version = latest + 1
            caches = [
                (_M, new_version) if idx == host else (_I, 0)
                for idx in range(self.num_hosts)
            ]
            new_state = state._replace(
                caches=tuple(caches),
                dir_state=_M,
                dir_owner=host,
                dir_sharers=frozenset(),
                mem_version=mem_version,
                mem_bit=0,
                local_version=0,
            )
            return new_state, {"written_version": new_version, "latest": latest}

        caches[host] = (_S, data_version)
        sharers = {host}
        if caches[owner][0] == _S:
            sharers.add(owner)
        new_state = state._replace(
            caches=tuple(caches),
            dir_state=_S,
            dir_owner=-1,
            dir_sharers=frozenset(sharers),
            mem_version=mem_version,
            mem_bit=0,
            local_version=0,
        )
        return new_state, {"read_version": data_version, "latest": latest}

    def _evict(self, state: PipmLineState, host: int) -> Tuple[PipmLineState, Dict]:
        cache_state, version = state.caches[host]
        if cache_state == _I:
            raise ValueError("evict of an invalid line is not enabled")
        caches = list(state.caches)
        caches[host] = (_I, 0)

        if cache_state == _ME:
            # Case 4: ME -> I'; dirty data written back to *local* memory.
            new_state = state._replace(
                caches=tuple(caches), local_version=version
            )
            return new_state, {"migrated": True}

        if cache_state == _M:
            if host == self.remap_host:
                # Case 1: incremental migration — the local writeback goes to
                # local memory and both in-memory bits flip to 1 (M -> I').
                new_state = state._replace(
                    caches=tuple(caches),
                    dir_state=_I,
                    dir_owner=-1,
                    dir_sharers=frozenset(),
                    local_version=version,
                    mem_bit=1,
                )
                return new_state, {"migrated": True}
            # Standard dirty writeback to CXL memory.
            new_state = state._replace(
                caches=tuple(caches),
                dir_state=_I,
                dir_owner=-1,
                dir_sharers=frozenset(),
                mem_version=version,
            )
            return new_state, {}

        # S eviction.
        sharers = set(state.dir_sharers)
        sharers.discard(host)
        new_state = state._replace(
            caches=tuple(caches),
            dir_state=_S if sharers else _I,
            dir_owner=-1,
            dir_sharers=frozenset(sharers),
        )
        return new_state, {}

    # -- helpers -----------------------------------------------------------
    def _with_copy(
        self, caches: Tuple[HostCopy, ...], host: int, state: int, version: int
    ) -> Tuple[HostCopy, ...]:
        return tuple(
            (state, version) if idx == host else copy
            for idx, copy in enumerate(caches)
        )

    # -- invariants -----------------------------------------------------------
    def invariant_violations(self, state: PipmLineState) -> List[str]:
        violations: List[str] = []
        writers = [
            idx for idx, (s, _) in enumerate(state.caches) if s in (_M, _ME)
        ]
        readers = [idx for idx, (s, _) in enumerate(state.caches) if s == _S]
        if len(writers) > 1:
            violations.append(f"SWMR: multiple writers {writers}")
        if writers and readers:
            violations.append(
                f"SWMR: writer {writers} coexists with readers {readers}"
            )
        # ME only ever at the remap host, and only while migrated.
        for idx, (s, _) in enumerate(state.caches):
            if s == _ME and idx != self.remap_host:
                violations.append(f"ME at non-remap host {idx}")
            if s == _ME and not state.mem_bit:
                violations.append("ME with in-memory bit clear")
        # While migrated, only the remap host may hold the line.
        if state.mem_bit:
            foreign = [
                idx
                for idx, (s, _) in enumerate(state.caches)
                if s != _I and idx != self.remap_host
            ]
            if foreign:
                violations.append(
                    f"migrated line cached at non-remap hosts {foreign}"
                )
            if state.dir_state != _I:
                violations.append(
                    "device directory holds an entry for a migrated (I') line"
                )
        # Memory currency: with no cached writer, the authoritative copy
        # (local memory when migrated, CXL memory otherwise) must be latest.
        if not writers:
            authoritative = (
                state.local_version if state.mem_bit else state.mem_version
            )
            if authoritative != self.latest_version(state):
                violations.append(
                    f"authoritative copy stale: {authoritative} != "
                    f"{self.latest_version(state)}"
                )
        return violations

    # -- canonicalization -------------------------------------------------------
    def canonicalize(self, state: PipmLineState) -> PipmLineState:
        versions = {state.mem_version, state.local_version}
        for cache_state, version in state.caches:
            if cache_state != _I:
                versions.add(version)
        rank = {v: i for i, v in enumerate(sorted(versions))}
        caches = tuple(
            (s, rank[v] if s != _I else 0) for s, v in state.caches
        )
        return state._replace(
            caches=caches,
            mem_version=rank[state.mem_version],
            local_version=rank[state.local_version] if state.mem_bit else 0,
        )
