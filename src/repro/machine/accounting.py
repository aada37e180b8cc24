"""Cycle ledger: accumulates the modelled cost of a run.

Stages and executors record every data pass they make into a ledger;
benchmarks then ask the ledger for totals, per-category breakdowns and
effective throughput.  This is what lets the reproduction report, e.g.,
"97% of the stack overhead is presentation conversion" — the ledger keeps
each pass attributed to the stage and layer that performed it.
"""

from __future__ import annotations

import threading
from dataclasses import dataclass, field

from repro.errors import MachineModelError
from repro.machine.costs import CostVector
from repro.machine.profile import MachineProfile


@dataclass
class DatapathCounters:
    """Explicit copy / memory-pass counters for the *functional* datapath.

    The :class:`CycleLedger` prices modelled passes; these counters count
    the passes the Python implementation actually performs, so the
    zero-copy datapath's reduction is **measured**, not asserted.  Every
    materialization of bytes (slice, join, pack, linearize) records a
    copy; every full read-only traversal that produces only a scalar
    (a gather checksum) records a read pass; structural operations that
    *avoided* a copy (sharing a segment, splitting a chain) record a
    zero-copy op.  DMA traffic is kept separate: the NIC filling host
    memory consumes bus bandwidth but is not a CPU copy.
    """

    copies: int = 0
    bytes_copied: int = 0
    read_passes: int = 0
    bytes_read: int = 0
    zero_copy_ops: int = 0
    dma_writes: int = 0
    dma_bytes: int = 0
    copies_by_label: dict[str, int] = field(default_factory=dict)

    @property
    def memory_passes(self) -> int:
        """All full-data traversals: materializing copies + read passes."""
        return self.copies + self.read_passes

    def record_copy(self, n_bytes: int, label: str = "copy", count: int = 1) -> None:
        """One materializing pass — every byte read and written somewhere
        new — or ``count`` of them (one per row of a batch) moving
        ``n_bytes`` in all."""
        self.copies += count
        self.bytes_copied += n_bytes
        self.copies_by_label[label] = self.copies_by_label.get(label, 0) + n_bytes

    def record_read_pass(self, n_bytes: int) -> None:
        """One read-only pass over the data (e.g. a gather checksum)."""
        self.read_passes += 1
        self.bytes_read += n_bytes

    def record_zero_copy(self, count: int = 1) -> None:
        """Structural operations that would have copied in a layered stack."""
        self.zero_copy_ops += count

    def record_dma(self, n_bytes: int, count: int = 1) -> None:
        """The NIC writing into host memory (bus traffic, not a CPU
        copy): one frame, or ``count`` of them moving ``n_bytes`` in all."""
        self.dma_writes += count
        self.dma_bytes += n_bytes

    def reset(self) -> None:
        """Zero every counter (benchmarks bracket measurements with this)."""
        self.copies = 0
        self.bytes_copied = 0
        self.read_passes = 0
        self.bytes_read = 0
        self.zero_copy_ops = 0
        self.dma_writes = 0
        self.dma_bytes = 0
        self.copies_by_label.clear()

    def snapshot(self) -> dict[str, object]:
        """Plain-dict form for the CLI and benchmark JSON records."""
        return {
            "copies": self.copies,
            "bytes_copied": self.bytes_copied,
            "read_passes": self.read_passes,
            "bytes_read": self.bytes_read,
            "memory_passes": self.memory_passes,
            "zero_copy_ops": self.zero_copy_ops,
            "dma_writes": self.dma_writes,
            "dma_bytes": self.dma_bytes,
            "copies_by_label": dict(self.copies_by_label),
        }


#: The process-wide datapath counters the buffer substrate records into.
#: The datapath reads this one object directly; it is never replaced
#: (:meth:`DatapathCounters.reset` zeroes it in place).
DATAPATH = DatapathCounters()


def datapath_counters() -> DatapathCounters:
    """The process-wide datapath counters (:data:`DATAPATH`)."""
    return DATAPATH


class AtomicCacheStats:
    """Thread-safe hit/miss/eviction counters for a keyed cache.

    The simulator is single-threaded (shards run serially), but the plan
    and codec caches are public and process-wide, so a caller outside
    the simulator may look them up from several threads.  A plain
    ``int`` attribute incremented with ``+=`` is a read-modify-write
    that can lose updates between bytecodes; here every increment and
    every read goes through one lock, and :meth:`as_dict` returns a
    single consistent view (hits/misses/lookups always add up, even
    with a concurrent ``get_or_compile`` in flight).
    """

    __slots__ = ("_lock", "_hits", "_misses", "_evictions")

    def __init__(self) -> None:
        self._lock = threading.Lock()
        self._hits = 0
        self._misses = 0
        self._evictions = 0

    def record_hit(self) -> None:
        """Count one lookup served from cache."""
        with self._lock:
            self._hits += 1

    def record_miss(self) -> None:
        """Count one lookup that had to compile."""
        with self._lock:
            self._misses += 1

    def record_eviction(self) -> None:
        """Count one LRU entry pushed out by capacity pressure."""
        with self._lock:
            self._evictions += 1

    @property
    def hits(self) -> int:
        """Lookups served from cache."""
        with self._lock:
            return self._hits

    @property
    def misses(self) -> int:
        """Lookups that compiled."""
        with self._lock:
            return self._misses

    @property
    def evictions(self) -> int:
        """Entries evicted under capacity pressure."""
        with self._lock:
            return self._evictions

    @property
    def lookups(self) -> int:
        """Total lookups served."""
        with self._lock:
            return self._hits + self._misses

    @property
    def hit_rate(self) -> float:
        """Fraction of lookups served from cache (0.0 when idle)."""
        with self._lock:
            lookups = self._hits + self._misses
            return self._hits / lookups if lookups else 0.0

    def reset(self) -> None:
        """Zero every counter."""
        with self._lock:
            self._hits = 0
            self._misses = 0
            self._evictions = 0

    def as_dict(self) -> dict[str, float]:
        """One consistent snapshot for CLI and bench reports."""
        with self._lock:
            lookups = self._hits + self._misses
            return {
                "hits": self._hits,
                "misses": self._misses,
                "evictions": self._evictions,
                "lookups": lookups,
                "hit_rate": self._hits / lookups if lookups else 0.0,
            }


@dataclass
class DrainCounters:
    """Dispatch-amortization counters for the host-level drain engine.

    One ``run_batch`` dispatch per drain epoch per plan shape is the
    whole point of :class:`~repro.transport.drain.SharedDrainEngine`;
    these counters make the amortization measurable: how many dispatches
    ran, how many ADU rows they carried, how many coalesced rows from
    more than one flow, and how often the max-rows cap forced a group to
    split one epoch's backlog across several dispatches (a fairness
    stall — every flow still gets rows in each capped dispatch, but the
    epoch needed more than one).
    """

    dispatches: int = 0
    rows_dispatched: int = 0
    cross_flow_batches: int = 0
    fairness_stalls: int = 0
    epochs: int = 0
    corrupt_rows: int = 0
    notify_scans: int = 0
    scan_visits: int = 0
    _lock: threading.Lock = field(
        default_factory=threading.Lock, repr=False, compare=False
    )

    @property
    def rows_per_dispatch(self) -> float:
        """Mean ADU rows carried per plan dispatch (0.0 when idle)."""
        return self.rows_dispatched / self.dispatches if self.dispatches else 0.0

    def record_dispatch(self, rows: int, flows: int, capped: bool) -> None:
        """Account one ``run_batch`` call covering ``rows`` ADUs from
        ``flows`` distinct flows (``capped`` when max-rows split the
        epoch)."""
        with self._lock:
            self.dispatches += 1
            self.rows_dispatched += rows
            if flows > 1:
                self.cross_flow_batches += 1
            if capped:
                self.fairness_stalls += 1

    def record_epoch(self) -> None:
        """Account one drain epoch (a flush over every plan group)."""
        with self._lock:
            self.epochs += 1

    def record_corrupt_row(self) -> None:
        """Account one row whose checksum failed verification."""
        with self._lock:
            self.corrupt_rows += 1

    def record_notify_scan(self) -> None:
        """Account one ``notify_ready``: one flow visited.

        The engine sizes its backlog from a running count, so a
        completion touches only the notifying flow however many flows
        share the engine.  Together with :meth:`record_window_scan`,
        ``scan_visits`` counts every flow the bookkeeping touches — the
        number P6 and the traced end-to-end bench report per ADU.
        """
        with self._lock:
            self.notify_scans += 1
            self.scan_visits += 1

    def record_window_scan(self, flows: int) -> None:
        """Account one dispatch window examining ``flows`` backlogged
        flows (idle registered flows are never visited)."""
        with self._lock:
            self.scan_visits += flows

    def reset(self) -> None:
        """Zero every counter (benchmarks bracket measurements with this)."""
        with self._lock:
            self.dispatches = 0
            self.rows_dispatched = 0
            self.cross_flow_batches = 0
            self.fairness_stalls = 0
            self.epochs = 0
            self.corrupt_rows = 0
            self.notify_scans = 0
            self.scan_visits = 0

    def snapshot(self) -> dict[str, object]:
        """One consistent plain-dict view for bench records.

        Taken under the counters' lock, so a snapshot racing an
        in-flight dispatch never shows a torn intermediate (e.g. the
        dispatch counted but its rows not yet added).
        """
        with self._lock:
            return {
                "dispatches": self.dispatches,
                "rows_dispatched": self.rows_dispatched,
                "rows_per_dispatch": (
                    self.rows_dispatched / self.dispatches
                    if self.dispatches
                    else 0.0
                ),
                "cross_flow_batches": self.cross_flow_batches,
                "fairness_stalls": self.fairness_stalls,
                "epochs": self.epochs,
                "corrupt_rows": self.corrupt_rows,
                "notify_scans": self.notify_scans,
                "scan_visits": self.scan_visits,
            }


def _train_bucket(n_packets: int) -> int:
    """Power-of-two histogram bucket for a train of ``n_packets``."""
    return 1 << (n_packets - 1).bit_length() if n_packets > 1 else 1


@dataclass
class ShardCounters:
    """Front-end demux counters for :class:`~repro.net.shard.ShardedHost`.

    The front end's placement walk probes the steering table once per
    *run* — consecutive packets of one flow — not once per packet (§4
    burst amortization).  ``demux_runs`` counts the probes actually
    made, ``probes_saved`` the per-packet probes a packet-at-a-time
    front would have paid on top, and ``train_len_hist`` buckets train
    lengths (power-of-two buckets) so the amortization per train is
    visible, not just the aggregate.  ``worker_services`` counts shard
    hand-offs — one per shard a packet or train delivered to, so a train
    touching K shards counts K.

    Zero-hop ingress adds steering accounting: ``steered_trains`` /
    ``steered_packets`` count trains the link delivered straight onto a
    shard (no front-end demux at all), and ``fallback_trains`` the
    mixed-shard or stale-epoch trains that still took the front-end
    slow path.  ``migrations`` / ``migrated_flows`` count committed
    bucket remaps; ``shard_packets`` and ``shard_backlog_hist`` break
    arrival volume and sampled backlog depth (power-of-two buckets;
    0 = idle) down per shard so hash skew — and a rebalancer fixing
    it — is visible.
    """

    packets: int = 0
    bursts: int = 0
    train_packets: int = 0
    train_len_hist: dict[int, int] = field(default_factory=dict)
    demux_runs: int = 0
    probes_saved: int = 0
    worker_services: int = 0
    steered_trains: int = 0
    steered_packets: int = 0
    fallback_trains: int = 0
    fallback_packets: int = 0
    migrations: int = 0
    migrated_flows: int = 0
    shard_packets: dict[int, int] = field(default_factory=dict)
    shard_backlog_hist: dict[int, dict[int, int]] = field(default_factory=dict)
    _lock: threading.Lock = field(
        default_factory=threading.Lock, repr=False, compare=False
    )

    def record_runs(self, runs: int, n_packets: int) -> None:
        """Account ``runs`` same-flow runs inside a train, ``n_packets``
        packets in all.

        Each run's first packet pays the single placement probe; the
        rest ride their run for free and are counted as
        ``probes_saved``.
        """
        with self._lock:
            self.packets += n_packets
            self.demux_runs += runs
            self.probes_saved += n_packets - runs

    def record_burst(self, n_packets: int = 0) -> None:
        """Account one ``receive_burst`` train through the demux."""
        with self._lock:
            self.bursts += 1
            if n_packets > 0:
                self.train_packets += n_packets
                bucket = _train_bucket(n_packets)
                self.train_len_hist[bucket] = (
                    self.train_len_hist.get(bucket, 0) + 1
                )

    def record_service(self) -> None:
        """Account one hand-off of packets to a shard."""
        with self._lock:
            self.worker_services += 1

    def record_steered(self, n_packets: int) -> None:
        """Account one train the link delivered straight onto a shard."""
        with self._lock:
            self.steered_trains += 1
            self.steered_packets += n_packets

    def record_fallback(self, n_packets: int) -> None:
        """Account one train that took the front-end slow path while
        link steering was active (mixed shards, stale epoch, unclaimed
        protocol runs)."""
        with self._lock:
            self.fallback_trains += 1
            self.fallback_packets += n_packets

    def record_migration(self, flows: int) -> None:
        """Account one committed bucket remap carrying ``flows`` flows."""
        with self._lock:
            self.migrations += 1
            self.migrated_flows += flows

    def record_shard_load(self, index: int, n_packets: int, depth: int) -> None:
        """Account one dispatched burst against shard ``index``, sampling
        the shard's queue occupancy (``depth``) into its histogram."""
        with self._lock:
            self.shard_packets[index] = (
                self.shard_packets.get(index, 0) + n_packets
            )
            hist = self.shard_backlog_hist.setdefault(index, {})
            bucket = _train_bucket(depth) if depth > 0 else 0
            hist[bucket] = hist.get(bucket, 0) + 1

    def reset(self) -> None:
        """Zero every counter (benchmarks bracket measurements with this)."""
        with self._lock:
            self.packets = 0
            self.bursts = 0
            self.train_packets = 0
            self.train_len_hist.clear()
            self.demux_runs = 0
            self.probes_saved = 0
            self.worker_services = 0
            self.steered_trains = 0
            self.steered_packets = 0
            self.fallback_trains = 0
            self.fallback_packets = 0
            self.migrations = 0
            self.migrated_flows = 0
            self.shard_packets.clear()
            self.shard_backlog_hist.clear()

    def snapshot(self) -> dict[str, object]:
        """One consistent plain-dict view for bench records."""
        with self._lock:
            return {
                "packets": self.packets,
                "bursts": self.bursts,
                "train_packets": self.train_packets,
                "train_len_hist": dict(sorted(self.train_len_hist.items())),
                "demux_runs": self.demux_runs,
                "probes_saved": self.probes_saved,
                "worker_services": self.worker_services,
                "steered_trains": self.steered_trains,
                "steered_packets": self.steered_packets,
                "fallback_trains": self.fallback_trains,
                "fallback_packets": self.fallback_packets,
                "migrations": self.migrations,
                "migrated_flows": self.migrated_flows,
                "shard_packets": dict(sorted(self.shard_packets.items())),
                "shard_backlog_hist": {
                    index: dict(sorted(hist.items()))
                    for index, hist in sorted(self.shard_backlog_hist.items())
                },
            }


@dataclass
class PacingCounters:
    """Rate-paced train-shaping ledger (§3 rate-based flow control).

    A :class:`~repro.transport.pacing.TrainPacer` shapes sender egress
    into deliberate packet trains and adjusts its rate from the
    receiver's quantized drain-pressure signal.  These counters make
    both halves measurable: how many trains the pacer released (and how
    full they were), how often a release had to wait for token-bucket
    credit, and how the AIMD loop moved — pressure signals seen (one
    per stamped ACK that reached this pacer), additive raises,
    multiplicative backoffs.
    """

    packets_submitted: int = 0
    bytes_submitted: int = 0
    trains_released: int = 0
    train_packets: int = 0
    full_trains: int = 0
    credit_stalls: int = 0
    pressure_signals: int = 0
    rate_raises: int = 0
    rate_backoffs: int = 0
    last_quantum: int = 0
    max_quantum: int = 0
    _lock: threading.Lock = field(
        default_factory=threading.Lock, repr=False, compare=False
    )

    def record_submit(self, n_bytes: int) -> None:
        """Account one packet handed to the pacer's egress queue."""
        with self._lock:
            self.packets_submitted += 1
            self.bytes_submitted += n_bytes

    def record_release(self, n_packets: int, full: bool) -> None:
        """Account one train released back-to-back (``full`` when it
        carried the configured target length)."""
        with self._lock:
            self.trains_released += 1
            self.train_packets += n_packets
            if full:
                self.full_trains += 1

    def record_stall(self) -> None:
        """Account one release that had to wait for bucket credit."""
        with self._lock:
            self.credit_stalls += 1

    def record_pressure(self, quantum: int) -> None:
        """Account one drain-pressure quantum received on an ACK."""
        with self._lock:
            self.pressure_signals += 1
            self.last_quantum = quantum
            if quantum > self.max_quantum:
                self.max_quantum = quantum

    def record_raise(self) -> None:
        """Account one additive rate increase (pressure low)."""
        with self._lock:
            self.rate_raises += 1

    def record_backoff(self) -> None:
        """Account one multiplicative back-off (pressure high)."""
        with self._lock:
            self.rate_backoffs += 1

    def reset(self) -> None:
        """Zero every counter (benchmarks bracket measurements with this)."""
        with self._lock:
            self.packets_submitted = 0
            self.bytes_submitted = 0
            self.trains_released = 0
            self.train_packets = 0
            self.full_trains = 0
            self.credit_stalls = 0
            self.pressure_signals = 0
            self.rate_raises = 0
            self.rate_backoffs = 0
            self.last_quantum = 0
            self.max_quantum = 0

    def snapshot(self) -> dict[str, object]:
        """One consistent plain-dict view for bench records."""
        with self._lock:
            return {
                "packets_submitted": self.packets_submitted,
                "bytes_submitted": self.bytes_submitted,
                "trains_released": self.trains_released,
                "train_packets": self.train_packets,
                "packets_per_train": (
                    self.train_packets / self.trains_released
                    if self.trains_released
                    else 0.0
                ),
                "full_trains": self.full_trains,
                "credit_stalls": self.credit_stalls,
                "pressure_signals": self.pressure_signals,
                "rate_raises": self.rate_raises,
                "rate_backoffs": self.rate_backoffs,
                "last_quantum": self.last_quantum,
                "max_quantum": self.max_quantum,
            }


@dataclass
class IntegrityCounters:
    """Selective-integrity ledger (SAP coverage policies).

    A coverage-span checksum reads only the covered bytes of each ADU;
    ``covered_bytes`` / ``skipped_bytes`` split every folded ADU's
    payload along that line, making the "uncovered bytes are never
    read" claim a measurable quantity rather than a code comment.
    ``tolerant_deliveries`` counts ADUs handed to the application with
    a ``corrupt_spans`` flag — ALF's "ignore" recovery mode in action —
    and ``corrupt_flagged`` the spans those deliveries carried.
    Coverage masks compile once per (policy, word width);
    ``policy_hits`` / ``policy_misses`` track that cache.
    """

    covered_bytes: int = 0
    skipped_bytes: int = 0
    tolerant_deliveries: int = 0
    corrupt_flagged: int = 0
    policy_hits: int = 0
    policy_misses: int = 0
    _lock: threading.Lock = field(
        default_factory=threading.Lock, repr=False, compare=False
    )

    def record_fold(self, covered: int, skipped: int) -> None:
        """Account one checksummed ADU: bytes folded vs bytes skipped."""
        with self._lock:
            self.covered_bytes += covered
            self.skipped_bytes += skipped

    def record_skipped(self, n_bytes: int) -> None:
        """Account bytes a truncated gather never even packed."""
        with self._lock:
            self.skipped_bytes += n_bytes

    def record_tolerant_delivery(self, n_spans: int) -> None:
        """Account one corrupt-but-flagged delivery carrying ``n_spans``."""
        with self._lock:
            self.tolerant_deliveries += 1
            self.corrupt_flagged += n_spans

    def record_policy_lookup(self, hit: bool) -> None:
        """Account one coverage-mask cache lookup."""
        with self._lock:
            if hit:
                self.policy_hits += 1
            else:
                self.policy_misses += 1

    @property
    def skip_fraction(self) -> float:
        """Fraction of checksummed bytes the coverage let us skip."""
        with self._lock:
            total = self.covered_bytes + self.skipped_bytes
            return self.skipped_bytes / total if total else 0.0

    def reset(self) -> None:
        """Zero every counter (benchmarks bracket measurements with this)."""
        with self._lock:
            self.covered_bytes = 0
            self.skipped_bytes = 0
            self.tolerant_deliveries = 0
            self.corrupt_flagged = 0
            self.policy_hits = 0
            self.policy_misses = 0

    def snapshot(self) -> dict[str, object]:
        """One consistent plain-dict view for the CLI and bench records."""
        with self._lock:
            total = self.covered_bytes + self.skipped_bytes
            return {
                "covered_bytes": self.covered_bytes,
                "skipped_bytes": self.skipped_bytes,
                "skip_fraction": (self.skipped_bytes / total if total else 0.0),
                "tolerant_deliveries": self.tolerant_deliveries,
                "corrupt_flagged": self.corrupt_flagged,
                "policy_hits": self.policy_hits,
                "policy_misses": self.policy_misses,
            }


_INTEGRITY = IntegrityCounters()


def integrity_counters() -> IntegrityCounters:
    """The process-wide selective-integrity counters."""
    return _INTEGRITY


@dataclass(frozen=True)
class LedgerEntry:
    """One recorded data pass.

    Attributes:
        label: what ran (usually the stage name).
        category: grouping key for breakdowns (e.g. ``"presentation"``,
            ``"transport"``, ``"control"``).
        n_bytes: payload bytes the pass covered.
        cycles: modelled cycles the pass cost.
    """

    label: str
    category: str
    n_bytes: int
    cycles: float


@dataclass
class CycleLedger:
    """Accumulator of modelled cycles for one machine profile."""

    profile: MachineProfile
    entries: list[LedgerEntry] = field(default_factory=list)

    def charge(
        self,
        label: str,
        cost: CostVector,
        n_bytes: int,
        category: str = "manipulation",
        invocations: int = 1,
    ) -> float:
        """Price a pass on this ledger's profile and record it.

        Returns the cycles charged, so callers can aggregate locally too.
        """
        cycles = self.profile.cycles(cost, n_bytes, invocations=invocations)
        self.entries.append(LedgerEntry(label, category, n_bytes, cycles))
        return cycles

    @property
    def total_cycles(self) -> float:
        """Sum of all recorded cycles."""
        return sum(entry.cycles for entry in self.entries)

    def cycles_by_category(self) -> dict[str, float]:
        """Total cycles grouped by entry category."""
        totals: dict[str, float] = {}
        for entry in self.entries:
            totals[entry.category] = totals.get(entry.category, 0.0) + entry.cycles
        return totals

    def share(self, category: str) -> float:
        """Fraction of total cycles attributed to ``category`` (0..1)."""
        total = self.total_cycles
        if total == 0:
            return 0.0
        return self.cycles_by_category().get(category, 0.0) / total

    def reset(self) -> None:
        """Drop all recorded entries."""
        self.entries.clear()

    def merged(self, other: "CycleLedger") -> "CycleLedger":
        """New ledger with this ledger's entries followed by ``other``'s."""
        if other.profile is not self.profile:
            raise MachineModelError(
                "cannot merge ledgers for different machine profiles"
            )
        merged = CycleLedger(self.profile)
        merged.entries = [*self.entries, *other.entries]
        return merged
