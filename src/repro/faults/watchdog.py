"""Invariant watchdog: online consistency audits of the live system model.

The coherence model checker (:mod:`repro.coherence.checker`) proves the
*protocol* correct by exhaustive exploration; this watchdog audits the
*running system instance* — remapping tables vs. frame allocators vs. the
device directory vs. per-host caches — so a fault-injection run that
corrupts cluster state (e.g. a botched rollback) is caught at the audit
boundary rather than as silently wrong results.

Two modes, matching production practice:

* ``fail-fast`` — raise :class:`WatchdogError` on the first violation
  (CI / debugging),
* ``log`` — record violations and keep simulating (resilience studies
  measure how far a degraded system drifts).

Audits are pure reads: they charge no simulated time and mutate nothing,
so enabling the watchdog never perturbs timing results.
"""

from __future__ import annotations

from typing import List

from ..coherence.checker import Violation

#: Mirrors repro.pipm.remap_global.NO_HOST — imported by value, not by
#: module, to keep this package importable from the mem/link layer.
NO_HOST = -1


class WatchdogError(RuntimeError):
    """A fail-fast watchdog audit found an inconsistency."""

    def __init__(self, violations: List[Violation]) -> None:
        lines = "; ".join(f"[{v.kind}] {v.detail}" for v in violations[:5])
        super().__init__(
            f"invariant watchdog: {len(violations)} violation(s): {lines}"
        )
        self.violations = violations

    @property
    def kinds(self) -> List[str]:
        """Violation kinds in audit order — a stable failure signature.

        Two runs that fail the same way give the same kinds, while the
        free-text details embed addresses that differ between them.
        """
        return [v.kind for v in self.violations]


class InvariantWatchdog:
    """Periodic + post-run consistency auditor for a MultiHostSystem."""

    def __init__(self, system, mode: str = "log",
                 period_ns: float = 0.0) -> None:
        if mode not in ("log", "fail-fast"):
            raise ValueError(f"unknown watchdog mode {mode!r}")
        self.system = system
        self.mode = mode
        self.period_ns = period_ns
        self._next_audit = period_ns if period_ns > 0 else float("inf")
        self.audits = 0
        self.violations: List[Violation] = []

    # -- scheduling ------------------------------------------------------
    def maybe_audit(self, now: float) -> None:
        """Run an audit if the periodic boundary passed (cheap otherwise)."""
        if now < self._next_audit:
            return
        while self._next_audit <= now:
            self._next_audit += self.period_ns
        self.audit(now)

    def audit(self, now: float = 0.0) -> List[Violation]:
        """One full consistency sweep; returns this audit's violations."""
        self.audits += 1
        found: List[Violation] = []
        self._audit_pipm(found)
        self._audit_page_map(found)
        self._audit_directory(found)
        self._audit_crash_domain(found)
        self._audit_poison(found)
        if found:
            self.violations.extend(found)
            if self.mode == "fail-fast":
                raise WatchdogError(found)
        return found

    @property
    def ok(self) -> bool:
        return not self.violations

    def summary(self) -> str:
        status = "PASS" if self.ok else f"FAIL ({len(self.violations)})"
        return f"watchdog: {status} over {self.audits} audit(s)"

    # -- the invariants --------------------------------------------------
    def _audit_pipm(self, found: List[Violation]) -> None:
        engine = self.system.engine
        if engine is None:
            return
        num_hosts = engine.num_hosts
        line_mask_max = 1 << 64

        if not engine.static_map:
            # Global -> local: every globally migrated page has exactly one
            # local entry, on the host the global table names.
            for page, entry in engine.global_table.migrated_pages():
                host = entry.current_host
                if not 0 <= host < num_hosts:
                    found.append(Violation(
                        "remap", f"page {page:#x} migrated to bogus host "
                        f"{host}", ()))
                    continue
                if engine.local_tables[host].lookup(page) is None:
                    found.append(Violation(
                        "remap", f"page {page:#x} globally mapped to host "
                        f"{host} but missing from its local table", ()))
                for other in range(num_hosts):
                    if other != host and page in engine.local_tables[other]:
                        found.append(Violation(
                            "remap", f"page {page:#x} present in host "
                            f"{other}'s local table but globally mapped to "
                            f"{host}", ()))

        for host in range(num_hosts):
            table = engine.local_tables[host]
            seen_pfns = set()
            for entry in table.entries():
                # Local -> global back-pointer.
                if not engine.static_map:
                    current = engine.global_table.current_host(entry.page)
                    if current != host:
                        found.append(Violation(
                            "remap", f"host {host} local entry for page "
                            f"{entry.page:#x} but global table says "
                            f"{'unmapped' if current == NO_HOST else current}",
                            ()))
                if not 0 <= entry.migrated_lines < line_mask_max:
                    found.append(Violation(
                        "remap", f"host {host} page {entry.page:#x} has a "
                        f"corrupt migrated-line bitmask", ()))
                if entry.local_pfn in seen_pfns:
                    found.append(Violation(
                        "frames", f"host {host} pfn {entry.local_pfn} backs "
                        f"two partially migrated pages", ()))
                seen_pfns.add(entry.local_pfn)
            # One frame per resident entry, always.
            in_use = engine.frames[host].in_use
            if in_use != len(table):
                found.append(Violation(
                    "frames", f"host {host}: {in_use} frames in use vs "
                    f"{len(table)} local remap entries", ()))

    def _audit_page_map(self, found: List[Violation]) -> None:
        system = self.system
        if system._cost_model is None:  # not a kernel-migration scheme
            return
        num_hosts = system.config.num_hosts
        if set(system.page_map) != set(system._page_frames):
            found.append(Violation(
                "page-map", "page_map and frame bookkeeping disagree on the "
                "resident page set", ()))
        per_host = {h: 0 for h in range(num_hosts)}
        for page, host in system.page_map.items():
            if not 0 <= host < num_hosts:
                found.append(Violation(
                    "page-map", f"page {page:#x} mapped to bogus host "
                    f"{host}", ()))
                continue
            per_host[host] += 1
        for host, resident in per_host.items():
            in_use = system.frames[host].in_use
            if in_use != resident:
                found.append(Violation(
                    "frames", f"host {host}: {in_use} kernel frames in use "
                    f"vs {resident} resident pages", ()))

    def _audit_crash_domain(self, found: List[Violation]) -> None:
        """Post-recovery invariants: nothing references a crashed host.

        Only meaningful once a crash has been observed; recovery must have
        left zero directory lines, remap entries, frames, or resident pages
        naming the dead host.  A botched recovery trips these.
        """
        system = self.system
        injector = getattr(system, "injector", None)
        if injector is None or not injector.crashed:
            return
        engine = system.engine
        for dead in sorted(injector.crashed):
            for entry in system.device_dir.entries():
                if entry.owner == dead:
                    found.append(Violation(
                        "crash-domain", f"line {entry.line:#x} still owned by "
                        f"crashed host {dead}", ()))
                elif dead in entry.sharers:
                    found.append(Violation(
                        "crash-domain", f"line {entry.line:#x} still tracks "
                        f"crashed host {dead} as a sharer", ()))
            if engine is not None:
                resident = len(engine.local_tables[dead])
                if resident:
                    found.append(Violation(
                        "crash-domain", f"crashed host {dead} still holds "
                        f"{resident} local remap entries", ()))
                in_use = engine.frames[dead].in_use
                if in_use:
                    found.append(Violation(
                        "crash-domain", f"crashed host {dead} still has "
                        f"{in_use} migration frames in use", ()))
                for page, gentry in engine.global_table.items():
                    if gentry.current_host == dead:
                        found.append(Violation(
                            "crash-domain", f"page {page:#x} globally mapped "
                            f"to crashed host {dead}", ()))
                    elif gentry.candidate_host == dead:
                        found.append(Violation(
                            "crash-domain", f"page {page:#x} names crashed "
                            f"host {dead} as migration candidate", ()))
            if system._cost_model is not None:
                for page, host in system.page_map.items():
                    if host == dead:
                        found.append(Violation(
                            "crash-domain", f"page {page:#x} still resident "
                            f"on crashed host {dead}", ()))

    def _audit_poison(self, found: List[Violation]) -> None:
        """A poisoned line is scrubbed everywhere until it is consumed.

        Poison arrival removes the line from the device directory and
        from every host's caches; the line stays poisoned until an access
        scrubs and re-fetches it, so no audit may find it cached or
        tracked in between.
        """
        system = self.system
        injector = getattr(system, "injector", None)
        if injector is None or not injector.poisoned:
            return
        for line in sorted(injector.poisoned):
            if system.device_dir.peek(line) is not None:
                found.append(Violation(
                    "poison", f"poisoned line {line:#x} still tracked by "
                    f"the device directory", ()))
            for host in system.hosts:
                if host.holds_line(line):
                    found.append(Violation(
                        "poison", f"poisoned line {line:#x} still cached "
                        f"by host {host.host_id}", ()))

    def _audit_directory(self, found: List[Violation]) -> None:
        system = self.system
        num_hosts = system.config.num_hosts
        modified = 3  # sim.system._M
        for entry in system.device_dir.entries():
            bad = [s for s in entry.sharers if not 0 <= s < num_hosts]
            if bad:
                found.append(Violation(
                    "directory", f"line {entry.line:#x} tracks out-of-range "
                    f"sharers {bad}", ()))
            if entry.state == modified and not 0 <= entry.owner < num_hosts:
                found.append(Violation(
                    "directory", f"line {entry.line:#x} is Modified with no "
                    f"valid owner ({entry.owner})", ()))
