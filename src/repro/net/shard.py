"""Sharded parallel hosts: flow-hash demux to per-shard drain workers.

Once per-flow manipulation is compiled and batched, the end system is
the bottleneck the paper predicts — and an unsharded end system is
*one* ``Host``, *one* ``EventLoop`` and *one*
:class:`~repro.transport.drain.SharedDrainEngine`: every flow on a
machine serializes through one demux loop and one drain backlog.  (The
engine's backlog bookkeeping is linear — O(1) per completion however
many flows share it — so sharding buys isolation and, with real
parallelism, throughput; it does not divide a scan.)

:class:`ShardedHost` splits the machine into N worker shards, each a
self-contained receive stack:

* its own :class:`~repro.sim.eventloop.EventLoop` (drain epochs and
  timers are shard-private — no cross-shard event contention);
* its own :class:`~repro.transport.drain.SharedDrainEngine` with
  private :class:`~repro.machine.accounting.DrainCounters`, so a
  shard's drain epochs batch only its own flows;
* its own rx :class:`~repro.buffers.pool.BufferPool`, so DMA segment
  recycling never crosses a shard boundary;
* its own deterministic RNG family, derived from the root seed and the
  shard index (:meth:`~repro.sim.rng.RngStreams.derive`), so
  multi-shard experiments replay exactly.

The front end routes each packet by a stable flow hash, split through
a bucket indirection — ``crc32(protocol/flow_id) % n_buckets`` names a
bucket, a flat :class:`SteeringTable` names the bucket's shard (the
identity mapping reproduces the historical ``crc32 % N`` placement
exactly) — and memoizes the last flow's shard (§4 header prediction
applied to shard placement), so a packet train dispatches without
re-hashing.  Placement is a pure function of the flow key *and the
table epoch*: between migrations a flow can never change shards — not
across bursts, not across rebinds, not across close-and-reopen — and a
migration is only committed at a train boundary with the flow
quiescent, by a :class:`RebalancePolicy` chasing flow-hash skew.

**Zero-hop ingress** (§4 demultiplex-once, pushed to the wire): a
link attached with ``attach_link(link, steer=True)`` consults the
exported steering table *while coalescing trains*, so a train whose
packets all place on one shard is delivered straight onto that shard
via :meth:`ShardedHost.steer_burst` — no front-end demux walk, no
placement-memo probes.  The front end survives as the slow path for
mixed-shard trains, stale-epoch trains (a migration committed while
the train was open) and unclaimed protocols.

**Train demux** (§4 burst amortization): :meth:`ShardedHost.receive_burst`
walks a whole train in one pass, charging one placement-memo probe per
*flow-run* (consecutive packets of one flow) instead of one per packet,
and accumulates one :class:`Burst` descriptor per shard per train.  In
threaded mode that burst is appended to the shard's :class:`BurstRing`
— replacing the old per-packet ingress deque — and the worker pops
bursts whole, delivering each through the shard host's own
``receive_burst``.  Control cost per train: one ring append and one
service submission per touched shard, however long the train.

Plan and codec caches are intentionally **not** sharded: compiled plans
are immutable and shared *by key* across every worker (their counters
are atomic — see :class:`~repro.machine.accounting.AtomicCacheStats`),
so all shards serving the same wire-plan shape hit one cache entry.

Two execution modes share the same demux and shard state:

* **serial** (default): deterministic simulation.  Packets are
  delivered inline; a :class:`SerialShardScheduler` merges the shard
  loops into one global time order, so existing tests and experiments
  stay exactly reproducible.
* **threaded**: one single-thread ``ThreadPoolExecutor`` per shard.
  The front appends burst descriptors to the shard's ring and submits a
  service pass; each worker drains its own loop independently.  Egress
  in threaded mode should ride shard-local links (the front's links
  belong to the front's loop); the serial mode may instead fall back to
  the front host via ``uplink``.
"""

from __future__ import annotations

import threading
import zlib
from collections import deque
from concurrent.futures import Future, ThreadPoolExecutor
from dataclasses import dataclass, field
from typing import TYPE_CHECKING

from repro.buffers.pool import BufferPool
from repro.errors import NetworkError
from repro.machine.accounting import (
    DrainCounters,
    ShardCounters,
    shard_counters,
)
from repro.net.host import Host
from repro.net.packet import Packet
from repro.sim.eventloop import EventLoop
from repro.sim.rng import RngStreams
from repro.sim.trace import Tracer

if TYPE_CHECKING:  # pragma: no cover - import cycle guard (typing only)
    from repro.transport.drain import SharedDrainEngine


def shard_index(protocol: str, flow_id: int, n_shards: int) -> int:
    """The home shard of a flow: stable hash of the flow key, mod N.

    CRC32 rather than ``hash()`` so the placement is identical across
    processes and immune to ``PYTHONHASHSEED`` — replayable experiments
    need the demux itself to be deterministic.
    """
    if n_shards <= 0:
        raise NetworkError(f"n_shards must be positive, got {n_shards}")
    return zlib.crc32(f"{protocol}/{flow_id}".encode()) % n_shards


class SteeringTable:
    """Compact flow-key → bucket → shard placement, consultable below
    the front end (RSS-style flow steering).

    The placement function is the same stable CRC32 the front end has
    always used, split through a bucket indirection: ``crc32(key) %
    n_buckets`` names a *bucket*, and a flat ``bucket → shard`` array
    names the shard.  With the default identity mapping (bucket mod N)
    the composition collapses to ``crc32(key) % n_shards`` exactly —
    byte-for-byte the historical :func:`shard_index` placement, because
    ``n_buckets`` is constrained to a multiple of N.  The indirection
    exists so a :class:`RebalancePolicy` can *remap* hot buckets to
    cold shards without touching the hash.

    The table is exported by a :class:`ShardedHost` and consulted by a
    :class:`~repro.net.link.Link` while coalescing trains — §4's
    "demultiplex once, as low as possible" pushed to the wire.  Every
    mutation bumps ``epoch`` and clears the single-entry lookup memo,
    so a consulting link can tell a stale decision from a fresh one.

    Counters are plain ints on purpose: lookups happen on the link's
    per-packet hot path, always from the front loop's thread, and the
    sharded host flushes deltas into the locked
    :class:`~repro.machine.accounting.ShardCounters` once per train.
    """

    def __init__(
        self,
        n_shards: int,
        protocols: tuple[str, ...] = ("alf",),
        buckets_per_shard: int = 64,
    ):
        if n_shards <= 0:
            raise NetworkError(f"n_shards must be positive, got {n_shards}")
        if buckets_per_shard <= 0:
            raise NetworkError(
                f"buckets_per_shard must be positive, got {buckets_per_shard}"
            )
        self.n_shards = n_shards
        self.n_buckets = n_shards * buckets_per_shard
        # Identity mapping: bucket b lives on shard b % N, which makes
        # the two-step placement equal the historical one-step hash.
        self.map = [bucket % n_shards for bucket in range(self.n_buckets)]
        self.protocols = frozenset(protocols) or None
        self.epoch = 0
        self.remaps = 0
        self.lookups = 0
        self.memo_hits = 0
        # Per-bucket / per-shard arrival ledgers (cumulative packets).
        # The rebalance policy plans from these: a bucket's share of the
        # traffic predicts its share after a remap.
        self.bucket_packets = [0] * self.n_buckets
        self.shard_packets = [0] * n_shards
        self._memo_key: tuple[str, int] | None = None
        self._memo_place: tuple[int, int] = (0, 0)

    def bucket_of(self, protocol: str, flow_id: int) -> int:
        """The (stable, remap-independent) bucket of a flow key."""
        return zlib.crc32(f"{protocol}/{flow_id}".encode()) % self.n_buckets

    def place(self, protocol: str, flow_id: int) -> tuple[int, int]:
        """Resolve ``(shard, bucket)`` for a flow key (any protocol)."""
        key = (protocol, flow_id)
        if key == self._memo_key:
            self.memo_hits += 1
            return self._memo_place
        bucket = zlib.crc32(f"{protocol}/{flow_id}".encode()) % self.n_buckets
        placed = (self.map[bucket], bucket)
        self._memo_key = key
        self._memo_place = placed
        self.lookups += 1
        return placed

    def steer(self, protocol: str, flow_id: int) -> tuple[int, int] | None:
        """Link-side lookup: ``(shard, bucket)``, or None for protocols
        this table's owner never claimed (those packets belong to the
        front host's ordinary demux, not to any shard)."""
        if self.protocols is not None and protocol not in self.protocols:
            return None
        return self.place(protocol, flow_id)

    def charge(self, bucket: int, shard: int, n_packets: int) -> None:
        """Account ``n_packets`` arrivals against a bucket and shard."""
        self.bucket_packets[bucket] += n_packets
        self.shard_packets[shard] += n_packets

    def apply_charges(self, charges: list[list[int]]) -> None:
        """Apply a train's accumulated ``[bucket, shard, n]`` charges
        (a steered link batches them per run and settles at delivery)."""
        buckets = self.bucket_packets
        shards = self.shard_packets
        for bucket, shard, n_packets in charges:
            buckets[bucket] += n_packets
            shards[shard] += n_packets

    def remap(self, bucket: int, shard: int) -> None:
        """Point ``bucket`` at ``shard``; bumps the epoch and drops the
        memo so every cached placement revalidates."""
        if not 0 <= bucket < self.n_buckets:
            raise NetworkError(f"no bucket {bucket}")
        if not 0 <= shard < self.n_shards:
            raise NetworkError(f"no shard {shard}")
        self.map[bucket] = shard
        self.epoch += 1
        self.remaps += 1
        self._memo_key = None

    def predicted_loads(self, mapping: list[int] | None = None) -> list[float]:
        """Per-shard traffic share implied by the cumulative bucket
        ledger under ``mapping`` (default: the live map)."""
        mapping = self.map if mapping is None else mapping
        loads = [0.0] * self.n_shards
        for bucket, count in enumerate(self.bucket_packets):
            if count:
                loads[mapping[bucket]] += count
        return loads

    def snapshot(self) -> dict[str, object]:
        probes = self.lookups + self.memo_hits
        return {
            "n_buckets": self.n_buckets,
            "epoch": self.epoch,
            "remaps": self.remaps,
            "lookups": self.lookups,
            "memo_hits": self.memo_hits,
            "memo_hit_rate": self.memo_hits / probes if probes else 0.0,
            "shard_packets": list(self.shard_packets),
        }


class RebalancePolicy:
    """Skew detector + bucket remapping planner for a sharded host.

    Detection reuses the adaptive-drain leaky integrator shape: each
    shard's arrivals fold into a backlog EWMA whose old weight halves
    every ``half_life`` seconds of simulated time, so a burst of skew
    registers quickly and is forgotten once traffic moves on.  When the
    hottest shard's EWMA exceeds ``threshold`` × the mean, the policy
    plans bucket remaps on the *cumulative* per-bucket ledger — a
    bucket's historical share predicts its future share — moving the
    hottest buckets of the hottest shard to the coldest shard until the
    predicted max/mean ratio is at most ``goal``.

    The policy only *proposes*; the :class:`ShardedHost` commits each
    remap at a train boundary, and only when every registered flow in
    the bucket is quiescent (no in-flight reassembly rows, no undrained
    ready rows) — a deferred commit is simply re-proposed at the next
    boundary, because the predicted loads that triggered it have not
    changed.
    """

    def __init__(
        self,
        threshold: float = 1.5,
        goal: float = 1.15,
        half_life: float = 0.01,
        min_packets: int = 256,
        cooldown: float = 0.0,
        max_moves: int = 8,
    ):
        if threshold <= 1.0:
            raise NetworkError(f"threshold must be > 1, got {threshold}")
        if not 1.0 <= goal <= threshold:
            raise NetworkError(
                f"goal must be in [1, threshold], got {goal}"
            )
        if half_life <= 0.0:
            raise NetworkError(f"half_life must be positive, got {half_life}")
        if max_moves < 1:
            raise NetworkError(f"max_moves must be >= 1, got {max_moves}")
        self.threshold = threshold
        self.goal = goal
        self.half_life = half_life
        self.min_packets = min_packets
        self.cooldown = cooldown
        self.max_moves = max_moves
        self.proposals = 0
        self.triggers = 0
        self._ewma: list[float] | None = None
        self._last_counts: list[int] | None = None
        self._stamp = 0.0
        self._last_commit = float("-inf")

    def observe(self, now: float, table: SteeringTable) -> None:
        """Fold the arrivals since the last boundary into the EWMAs."""
        counts = table.shard_packets
        if self._ewma is None:
            self._ewma = [0.0] * len(counts)
            self._last_counts = [0] * len(counts)
        elapsed = now - self._stamp
        decay = 0.5 ** (elapsed / self.half_life) if elapsed > 0.0 else 1.0
        ewma = self._ewma
        last = self._last_counts
        for shard, count in enumerate(counts):
            ewma[shard] = ewma[shard] * decay + (count - last[shard])
            last[shard] = count
        self._stamp = now

    @property
    def shard_ewma(self) -> list[float]:
        """The per-shard backlog integrators as of the last observation."""
        return list(self._ewma) if self._ewma is not None else []

    def skew_ratio(self) -> float:
        """Max/mean of the live shard EWMAs (1.0 when idle/balanced)."""
        if not self._ewma:
            return 1.0
        mean = sum(self._ewma) / len(self._ewma)
        if mean <= 0.0:
            return 1.0
        return max(self._ewma) / mean

    def tick(self, now: float, table: SteeringTable) -> list[tuple[int, int]]:
        """One train-boundary pass: observe, and propose ``(bucket,
        target_shard)`` remaps when the live skew warrants them."""
        self.observe(now, table)
        if sum(table.shard_packets) < self.min_packets:
            return []
        if now - self._last_commit < self.cooldown:
            return []
        if self.skew_ratio() <= self.threshold:
            return []
        self.triggers += 1
        return self._plan(table)

    def _plan(self, table: SteeringTable) -> list[tuple[int, int]]:
        """Greedy bucket moves on predicted loads until max/mean ≤ goal."""
        mapping = list(table.map)
        loads = table.predicted_loads(mapping)
        n = len(loads)
        mean = sum(loads) / n
        if mean <= 0.0:
            return []
        moves: list[tuple[int, int]] = []
        while len(moves) < self.max_moves:
            hot = max(range(n), key=loads.__getitem__)
            cold = min(range(n), key=loads.__getitem__)
            if loads[hot] <= self.goal * mean:
                break
            gap = loads[hot] - loads[cold]
            # The largest bucket that still strictly improves the split:
            # moving more than the gap would just swap who is hottest.
            best_bucket = -1
            best_count = 0
            for bucket, count in enumerate(table.bucket_packets):
                if mapping[bucket] != hot or count <= 0:
                    continue
                if count < gap and count > best_count:
                    best_bucket, best_count = bucket, count
            if best_bucket < 0:
                break
            mapping[best_bucket] = cold
            loads[hot] -= best_count
            loads[cold] += best_count
            moves.append((best_bucket, cold))
            self.proposals += 1
        return moves

    def committed(self, now: float) -> None:
        """The host committed a proposed remap (starts the cooldown)."""
        self._last_commit = now

    def snapshot(self) -> dict[str, object]:
        return {
            "threshold": self.threshold,
            "goal": self.goal,
            "half_life": self.half_life,
            "shard_ewma": self.shard_ewma,
            "skew_ratio": self.skew_ratio(),
            "proposals": self.proposals,
            "triggers": self.triggers,
        }


@dataclass
class Burst:
    """One shard's slice of a delivered train: a run of packets handed
    across the front→worker boundary as a single descriptor."""

    packets: list[Packet] = field(default_factory=list)


class BurstRing:
    """A lock-guarded ring of :class:`Burst` descriptors.

    The front→worker handoff queue: the front end appends one
    descriptor per shard per train (however many packets the train
    carried), and the shard worker pops bursts whole — so the queue
    traffic, and the lock traffic with it, is per *train*, not per
    packet.  The ring is bounded but never drops: a full ring doubles
    in place (counted in :attr:`expansions`), because the shard owns
    the only consumer and backpressure belongs to the rx pool, not the
    handoff.
    """

    def __init__(self, capacity: int = 64):
        if capacity <= 0:
            raise NetworkError(f"capacity must be positive, got {capacity}")
        self._slots: list[Burst | None] = [None] * capacity
        self._head = 0
        self._tail = 0
        self._count = 0
        self._lock = threading.Lock()
        self.pushes = 0
        self.pops = 0
        self.packets = 0
        self.expansions = 0
        self.max_depth = 0

    def push(self, burst: Burst) -> None:
        """Append one burst descriptor (grows when full, never drops)."""
        with self._lock:
            if self._count == len(self._slots):
                self._grow()
            self._slots[self._tail] = burst
            self._tail = (self._tail + 1) % len(self._slots)
            self._count += 1
            self.pushes += 1
            self.packets += len(burst.packets)
            if self._count > self.max_depth:
                self.max_depth = self._count

    def _grow(self) -> None:
        old = self._slots
        size = len(old)
        fresh: list[Burst | None] = [None] * (size * 2)
        for offset in range(self._count):
            fresh[offset] = old[(self._head + offset) % size]
        self._slots = fresh
        self._head = 0
        self._tail = self._count
        self.expansions += 1

    def pop(self) -> Burst | None:
        """Take the oldest burst, or None when the ring is empty."""
        with self._lock:
            if self._count == 0:
                return None
            burst = self._slots[self._head]
            self._slots[self._head] = None
            self._head = (self._head + 1) % len(self._slots)
            self._count -= 1
            self.pops += 1
            return burst

    def __len__(self) -> int:
        with self._lock:
            return self._count

    def snapshot(self) -> dict[str, int]:
        """Ring counters, for the sharded host's snapshot."""
        with self._lock:
            return {
                "depth": self._count,
                "capacity": len(self._slots),
                "pushes": self.pushes,
                "pops": self.pops,
                "packets": self.packets,
                "expansions": self.expansions,
                "max_depth": self.max_depth,
            }


class HostShard:
    """One worker shard: a private loop, host, engine and rx pool.

    Built by :class:`ShardedHost`; not normally constructed directly.
    The shard's host shares the front's *name* (transport replies must
    carry the machine's address) and uses the front as its ``uplink``,
    so flows bound on the shard send ACKs without the shard owning a
    link table.
    """

    def __init__(
        self,
        index: int,
        front: Host,
        root_rng: RngStreams,
        pool_buffers: int,
        buffer_size: int,
        max_rows: int,
        max_delay: float,
        adaptive: bool,
        ring_capacity: int,
        tracer: Tracer,
    ):
        self.index = index
        self.loop = EventLoop()
        self.rng = root_rng.derive(f"shard-{index}")
        self.rx_pool = (
            BufferPool(
                pool_buffers,
                buffer_size,
                label=f"{front.name}/shard{index}-rx",
            )
            if pool_buffers > 0
            else None
        )
        self.host = Host(
            self.loop,
            front.name,
            tracer=tracer,
            rx_pool=self.rx_pool,
            uplink=front,
        )
        # Imported here, not at module top: repro.net must stay
        # importable below repro.transport (which imports it).
        from repro.transport.drain import SharedDrainEngine

        self.counters = DrainCounters()
        self.engine: "SharedDrainEngine" = SharedDrainEngine(
            self.loop,
            max_rows=max_rows,
            max_delay=max_delay,
            adaptive=adaptive,
            counters=self.counters,
            tracer=tracer,
        )
        self.ring = BurstRing(ring_capacity)
        self.executor: ThreadPoolExecutor | None = None
        self.futures: deque[Future] = deque()

    def advance_to(self, time: float) -> None:
        """Run this shard's loop up to ``time`` (clock catches up too)."""
        if self.loop.now < time:
            self.loop.run(until=time)

    def leak_report(self) -> list[str]:
        """Outstanding rx-pool buffers (empty when the shard is clean)."""
        return self.rx_pool.leak_report() if self.rx_pool is not None else []


class SerialShardScheduler:
    """Deterministic merge of several event loops into one time order.

    The serial fallback that keeps sharded simulations reproducible: at
    each step the loop with the earliest live event runs exactly one
    event (ties broken by registration order), so N shard loops behave
    as one global discrete-event simulation — same semantics whether
    the host runs 1 shard or 8.
    """

    def __init__(self, loops: list[EventLoop]):
        if not loops:
            raise NetworkError("scheduler needs at least one loop")
        self.loops = list(loops)
        self.steps = 0

    def run(self, until: float | None = None) -> int:
        """Run merged events; returns how many ran.

        Args:
            until: stop once every loop's next event is later than this
                (each loop's clock advances to ``until``).  None runs
                all loops to quiescence — beware self-rescheduling
                events (periodic ACK timers) never quiesce.
        """
        ran = 0
        while True:
            best: EventLoop | None = None
            best_time: float | None = None
            for loop in self.loops:
                next_time = loop.next_event_time()
                if next_time is None:
                    continue
                if best_time is None or next_time < best_time:
                    best, best_time = loop, next_time
            if best is None or (until is not None and best_time > until):
                break
            best.step()
            ran += 1
        if until is not None:
            # The merge stopped because every loop's next live event is
            # later than `until` (or it has none): nothing is left to
            # run, so each clock moves forward directly.
            for loop in self.loops:
                if loop.now < until:
                    loop.now = until
        self.steps += ran
        return ran


class ShardedHost:
    """A host front end that demuxes flows to N worker shards.

    Args:
        front: the machine's outward-facing host (owns the links;
            arriving packets reach the demux through protocol fallback
            bindings on it, or by calling :meth:`receive` directly).
        shards: worker count (N ≥ 1).
        rng: root RNG family; each shard derives its own from the root
            seed and its index.  Defaults to a seed-0 family.
        threaded: run each shard on its own single-thread executor.
            False (default) keeps the deterministic serial scheduler.
        pool_buffers / buffer_size: size of each shard's private rx
            pool (0 buffers disables pooling — payloads stay bytes).
        max_rows / max_delay: forwarded to each shard's drain engine.
        adaptive: forwarded to each shard's drain engine — epochs deepen
            under backlog and collapse to immediate flush when idle.
        ring_capacity: initial burst-ring slots per shard (the ring
            grows on overflow rather than dropping).
        protocols: protocol names the front end claims
            (``front.bind_protocol``) and demuxes; pass ``()`` when the
            caller routes packets to :meth:`receive` itself.
        buckets_per_shard: steering-table resolution — the flow hash
            lands in ``shards × buckets_per_shard`` buckets, and a
            bucket is the unit a rebalance remaps.
        rebalance: optional :class:`RebalancePolicy`; when set, every
            train boundary may commit bucket migrations for registered
            flows (see :meth:`register_flow`).
        counters: demux ledger (defaults to the process-wide
            :func:`~repro.machine.accounting.shard_counters`).
        tracer: optional event tracer shared by every shard.
    """

    def __init__(
        self,
        front: Host,
        shards: int,
        rng: RngStreams | None = None,
        threaded: bool = False,
        pool_buffers: int = 0,
        buffer_size: int = 2048,
        max_rows: int = 256,
        max_delay: float = 0.0,
        adaptive: bool = False,
        ring_capacity: int = 64,
        protocols: tuple[str, ...] = ("alf",),
        buckets_per_shard: int = 64,
        rebalance: "RebalancePolicy | None" = None,
        counters: ShardCounters | None = None,
        tracer: Tracer | None = None,
    ):
        if shards <= 0:
            raise NetworkError(f"shards must be positive, got {shards}")
        self.front = front
        self.threaded = bool(threaded)
        self.tracer = tracer or Tracer(enabled=False)
        self.counters = counters if counters is not None else shard_counters()
        root = rng if rng is not None else RngStreams(0)
        self.shards = [
            HostShard(
                index,
                front,
                root,
                pool_buffers,
                buffer_size,
                max_rows,
                max_delay,
                adaptive,
                ring_capacity,
                self.tracer,
            )
            for index in range(shards)
        ]
        self.scheduler = SerialShardScheduler([shard.loop for shard in self.shards])
        # §4 header prediction applied to placement: the last flow's
        # shard is memoized, so a packet train skips the hash.  The
        # placement is a pure function of the flow key *and the
        # steering epoch*: only a committed bucket migration can change
        # the answer, and every commit clears this memo.
        self._memo_key: tuple[str, int] | None = None
        self._memo_shard: HostShard | None = None
        self._memo_bucket = -1
        self._pump_scheduled = False
        self._protocols = tuple(protocols)
        self._claimed = frozenset(self._protocols) or None
        self.steering = SteeringTable(
            shards,
            protocols=self._protocols,
            buckets_per_shard=buckets_per_shard,
        )
        self.rebalance = rebalance
        self._steered = False
        self._flows: dict[tuple[str, int], object] = {}
        self._bucket_flows: dict[int, set[tuple[str, int]]] = {}
        self._steer_hits_seen = 0
        self._steer_misses_seen = 0
        self._started = False
        self._closed = False
        for protocol in self._protocols:
            front.bind_protocol(protocol, self.receive)
        if self.threaded:
            # Threaded mode shares loops across threads at defined
            # points (a worker ACKing through the uplink schedules on
            # the front loop; a migration commit advances the target
            # loop from the front thread), so an event can land timed
            # before the receiving loop's clock — run it late rather
            # than treating it as heap corruption.
            front.loop.tolerate_late = True
            for shard in self.shards:
                shard.loop.tolerate_late = True
            self.start()

    # ------------------------------------------------------------------
    # Demux

    def shard_for(self, protocol: str, flow_id: int) -> HostShard:
        """The home shard of (protocol, flow) under the live steering
        table — the historical pure hash until a migration commits."""
        return self.shards[self.steering.place(protocol, flow_id)[0]]

    def attach_link(self, link, steer: bool = False) -> None:
        """Point a link's delivery at this front end, trains included.

        Per-packet delivery goes through the front host's normal demux
        (so unclaimed protocols still reach their own handlers); a
        train-mode link hands whole trains to :meth:`receive_burst`, so
        the one-pass shard demux sees the same aggregation the link
        built.

        ``steer=True`` additionally exports the steering table to the
        link: a coalescing train whose packets all place on one shard
        is delivered straight onto that shard via :meth:`steer_burst` —
        zero front-end hops, zero placement-memo probes — while
        mixed-shard, stale-epoch and unclaimed-protocol trains keep the
        :meth:`receive_burst` slow path.
        """
        link.connect(self.front.receive, burst_receiver=self.receive_burst)
        if steer:
            link.set_steering(self.steering, self.steer_burst)
            self._steered = True

    def _route(self, packet: Packet) -> HostShard:
        key = (packet.protocol, packet.flow_id)
        if key == self._memo_key:
            self.counters.record_packet(memo_hit=True)
            self.steering.charge(self._memo_bucket, self._memo_shard.index, 1)
            return self._memo_shard
        index, bucket = self.steering.place(packet.protocol, packet.flow_id)
        shard = self.shards[index]
        self._memo_key = key
        self._memo_shard = shard
        self._memo_bucket = bucket
        self.counters.record_packet(memo_hit=False)
        self.steering.charge(bucket, index, 1)
        return shard

    def receive(self, packet: Packet) -> None:
        """Demux one packet to its home shard."""
        self._dispatch(self._route(packet), [packet])

    def receive_burst(self, packets: list[Packet]) -> None:
        """Demux a packet train in one pass: one burst per shard.

        The train is walked once, charging one placement-memo probe per
        flow-run (consecutive packets of one flow) rather than one per
        packet — the saved probes are counted in the demux ledger.  All
        of a shard's packets across the train, consecutive or not, land
        in a single :class:`Burst` descriptor, so a train touching K
        shards costs K handoffs however many packets it carried.

        With link steering active this is the *slow path* — only
        mixed-shard, stale-epoch or unclaimed-protocol trains land
        here, counted as fallbacks.
        """
        if not packets:
            return
        self.counters.record_burst(len(packets))
        if self._steered:
            self.counters.record_fallback(len(packets))
        per_shard: dict[int, list[Packet]] = {}
        touched: list[HostShard] = []
        run_key: tuple[str, int] | None = None
        run_shard: HostShard | None = None
        run_bucket = -1
        run_len = 0
        run_memo_hit = False
        claimed = self._claimed
        steering = self.steering
        for packet in packets:
            key = (packet.protocol, packet.flow_id)
            if key == run_key:
                run_len += 1
                per_shard[run_shard.index].append(packet)
                continue
            if run_len:
                self.counters.record_run(run_len, run_memo_hit)
                steering.charge(run_bucket, run_shard.index, run_len)
            if claimed is not None and packet.protocol not in claimed:
                # A train arriving off a link may interleave protocols
                # this front never claimed; those packets take the front
                # host's ordinary per-packet demux instead.
                run_key = None
                run_len = 0
                self.front.receive(packet)
                continue
            run_key = key
            run_len = 1
            run_memo_hit = key == self._memo_key
            if run_memo_hit:
                run_shard = self._memo_shard
                run_bucket = self._memo_bucket
            else:
                index, run_bucket = steering.place(
                    packet.protocol, packet.flow_id
                )
                run_shard = self.shards[index]
                self._memo_key = key
                self._memo_shard = run_shard
                self._memo_bucket = run_bucket
            bucket = per_shard.get(run_shard.index)
            if bucket is None:
                bucket = per_shard[run_shard.index] = []
                touched.append(run_shard)
            bucket.append(packet)
        if run_len:
            self.counters.record_run(run_len, run_memo_hit)
            steering.charge(run_bucket, run_shard.index, run_len)
        for shard in touched:
            self._dispatch(shard, per_shard[shard.index])
        self._train_boundary()

    def steer_burst(self, index: int, packets: list[Packet]) -> None:
        """Zero-hop ingress: a steered link delivers a single-shard
        train here, straight onto the shard — no front-end demux walk,
        no placement-memo probes (the link already consulted the
        steering table while coalescing)."""
        shard = self.shards[index]
        self.counters.record_steered(len(packets))
        self._flush_steering_counters()
        self._dispatch(shard, packets)
        self._train_boundary()

    def _flush_steering_counters(self) -> None:
        """Fold the table's lock-free lookup counts into the ledger."""
        table = self.steering
        hits, misses = table.memo_hits, table.lookups
        self.counters.record_steering(
            hits - self._steer_hits_seen, misses - self._steer_misses_seen
        )
        self._steer_hits_seen = hits
        self._steer_misses_seen = misses

    def _dispatch(self, shard: HostShard, packets: list[Packet]) -> None:
        if self.threaded:
            # One ring append and one service submission per burst —
            # the per-train (not per-packet) front→worker handoff.
            if len(packets) > 1:
                self.counters.record_shard_load(
                    shard.index, len(packets), len(shard.ring)
                )
            shard.ring.push(Burst(packets))
            # The single worker completes FIFO, so settled futures form
            # a prefix: prune it on every append to keep the outstanding
            # set (and the migration-commit scan over it) bounded by
            # in-flight work instead of growing for the whole run.
            futures = shard.futures
            while futures and futures[0].done():
                futures.popleft()
            futures.append(shard.executor.submit(self._service, shard))
            return
        if len(packets) > 1:
            self.counters.record_shard_load(
                shard.index, len(packets), shard.engine.pending_rows
            )
        # Serial mode: deliver inline at the front's current time.  The
        # shard's clock catches up first so flush epochs scheduled by
        # this delivery land at the same global timestep.
        shard.advance_to(self.front.loop.now)
        if len(packets) == 1:
            shard.host.receive(packets[0])
        else:
            shard.host.receive_burst(packets)
        self.counters.record_service()
        if not self._pump_scheduled:
            self._pump_scheduled = True
            self.front.loop.schedule(0.0, self._pump)

    def _pump(self) -> None:
        """Front-loop event: run shard events due at the current time."""
        self._pump_scheduled = False
        self.scheduler.run(until=self.front.loop.now)

    def _service(self, shard: HostShard) -> None:
        """Worker-thread pass: pop whole bursts off the ring, run the loop."""
        serviced = False
        while True:
            burst = shard.ring.pop()
            if burst is None:
                break
            serviced = True
            if len(burst.packets) == 1:
                shard.host.receive(burst.packets[0])
            else:
                shard.host.receive_burst(burst.packets)
        # Zero-delay flush epochs are due now; a delayed-flush engine
        # needs its window run out too.  The settle horizon comes from
        # the engine itself: an adaptive engine's effective delay can
        # exceed the configured max_delay, so running to max_delay
        # would return with armed epochs stranded in the future.
        shard.loop.run(until=shard.loop.now + shard.engine.flush_horizon)
        if serviced:
            self.counters.record_service()

    # ------------------------------------------------------------------
    # Skew-aware rebalancing

    def register_flow(self, protocol: str, flow_id: int, receiver) -> None:
        """Enrol a flow's receiver for bucket migration.

        Rebalancing moves *buckets*; the receivers of the flows inside
        a bucket must move with it (rebound onto the target shard's
        host, loop and engine), so the host needs to know them.  Only
        registered flows migrate: a bucket containing unregistered
        traffic keeps its placement — the commit path defers any remap
        while an unregistered flow is still bound on the source shard
        (see :meth:`_commit_migration`).  ``receiver`` must expose
        ``quiescent`` and ``rehome`` (:class:`AlfReceiver` does).
        """
        key = (protocol, flow_id)
        self._flows[key] = receiver
        bucket = self.steering.bucket_of(protocol, flow_id)
        self._bucket_flows.setdefault(bucket, set()).add(key)

    def unregister_flow(self, protocol: str, flow_id: int) -> None:
        """Drop a flow from the migration registry (e.g. on close)."""
        key = (protocol, flow_id)
        if self._flows.pop(key, None) is None:
            return
        bucket = self.steering.bucket_of(protocol, flow_id)
        flows = self._bucket_flows.get(bucket)
        if flows is not None:
            flows.discard(key)
            if not flows:
                del self._bucket_flows[bucket]

    def _train_boundary(self) -> None:
        """End-of-train hook: let the rebalance policy commit remaps.

        Migrations happen *only* here — between trains, never inside
        one — so a flow's packets can't split across shards mid-train.
        """
        policy = self.rebalance
        if policy is None or self._closed:
            return
        now = self.front.loop.now
        remaps = policy.tick(now, self.steering)
        if not remaps:
            return
        committed = False
        for bucket, target in remaps:
            if self._commit_migration(bucket, target):
                committed = True
        if committed:
            policy.committed(now)

    def migrate_bucket(self, bucket: int, target: int) -> bool:
        """Force one bucket remap through the safe commit path (the
        rebalancer's mechanism without its policy) — True on commit,
        False when a flow in the bucket is not quiescent."""
        return self._commit_migration(bucket, target)

    def _commit_migration(self, bucket: int, target: int) -> bool:
        """Remap one bucket and rehome its registered flows.

        The stability contract: a commit happens at a train boundary,
        with both the source and the target shard's ingress settled
        (the source defers when busy; the target's in-flight service
        passes are waited out — they are short and only the front
        thread submits new ones), every registered flow in the bucket
        quiescent (no in-flight
        reassembly rows, no undrained ready rows), and no *unregistered*
        flow bound on the source shard inside the bucket (remapping one
        would route its future packets to a shard where nothing is
        bound).  Anything else defers — the policy will simply
        re-propose at the next boundary.  Exactly-once delivery
        survives because no fragment of any ADU is in flight across the
        rebind, and the placement memos (front, table, link) are all
        epoch-invalidated before the next packet routes.
        """
        if not 0 <= bucket < self.steering.n_buckets:
            return False
        source = self.steering.map[bucket]
        if source == target or not 0 <= target < len(self.shards):
            return False
        flows = self._bucket_flows.get(bucket, ())
        source_shard = self.shards[source]
        target_shard = self.shards[target]
        if self.threaded:
            # The source worker must have nothing queued or in flight:
            # a burst being serviced could still hold this bucket's
            # packets, and the quiescence check below is only
            # meaningful once the source has settled.  Defer — the
            # policy re-proposes at the next boundary.
            if len(source_shard.ring) or any(
                not future.done() for future in source_shard.futures
            ):
                return False
            # The commit runs the target's loop (advance_to) and
            # rebinds receivers onto its host and engine from this
            # thread — none of which is safe under a concurrent
            # service pass on the target's worker.  Its passes are
            # short (pop the queued bursts, run the flush horizon) and
            # only this thread submits new ones, so wait them out
            # rather than deferring forever on a busy shard.
            for future in list(target_shard.futures):
                future.result()
            if len(target_shard.ring):
                # Every push pairs with a submission, so a settled
                # worker leaves an empty ring; anything else means the
                # target is not safely idle — defer.
                return False
        else:
            # Settle zero-delay flush epochs first (the pump that would
            # run them is scheduled behind this event at the same
            # timestamp) so "quiescent" reflects this train's drains.
            self.scheduler.run(until=self.front.loop.now)
        # The register_flow contract: a bucket carrying traffic the
        # migration registry doesn't know about keeps its placement.  A
        # per-flow handler bound on the source shard (e.g. a receiver
        # bound directly, without register_flow) cannot be rehomed, so
        # remapping its bucket would strand it — packets would route to
        # the target shard and drop as undeliverable.
        for key in source_shard.host.bound_flows():
            protocol, flow_id = key
            if self._claimed is not None and protocol not in self._claimed:
                continue
            if key in flows:
                continue
            if self.steering.bucket_of(protocol, flow_id) == bucket:
                return False
        receivers = []
        for key in flows:
            receiver = self._flows[key]
            if not receiver.quiescent:
                return False
            receivers.append(receiver)
        target_shard.advance_to(self.front.loop.now)
        for receiver in receivers:
            engine = (
                target_shard.engine
                if getattr(receiver, "drain_engine", None) is not None
                else None
            )
            receiver.rehome(target_shard.loop, target_shard.host, engine)
        self.steering.remap(bucket, target)
        self._memo_key = None
        self._memo_shard = None
        self._memo_bucket = -1
        self.counters.record_migration(len(receivers))
        self.tracer.emit(
            self.front.loop.now, "shard", "migrate", bucket=bucket,
            source=source, target=target, flows=len(receivers),
        )
        return True

    # ------------------------------------------------------------------
    # Worker lifecycle

    def start(self) -> None:
        """Spin up one single-thread executor per shard (threaded mode)."""
        if not self.threaded or self._started:
            return
        for shard in self.shards:
            shard.executor = ThreadPoolExecutor(
                max_workers=1,
                thread_name_prefix=f"{self.front.name}-shard{shard.index}",
            )
        self._started = True

    def stop(self) -> None:
        """Wait for in-flight service passes and stop the executors."""
        if not self._started:
            return
        for shard in self.shards:
            if shard.executor is not None:
                shard.executor.shutdown(wait=True)
                shard.executor = None
            shard.futures.clear()
        self._started = False

    def drain(self, until: float | None = None) -> None:
        """Settle every shard.

        Serial mode runs the merged scheduler up to ``until`` (default:
        the front's current time).  Threaded mode waits for every
        submitted service pass — workers self-drain, so once the
        futures resolve the burst rings and flush epochs are done.
        """
        if self.threaded:
            while True:
                futures, pending = [], False
                for shard in self.shards:
                    futures.extend(shard.futures)
                    shard.futures = deque()
                for future in futures:
                    future.result()
                for shard in self.shards:
                    if len(shard.ring) or shard.futures:
                        pending = True
                if not pending:
                    return
        else:
            self.scheduler.run(
                until=self.front.loop.now if until is None else until
            )

    def shutdown(self) -> dict[int, list[str]]:
        """Tear every shard down; returns per-shard leak reports.

        Drains outstanding work, shuts each shard's engine down (ready
        rows release their pooled segments), unbinds the claimed
        protocols from the front and stops the workers.  A clean
        teardown reports an empty list for every shard.
        """
        if self._closed:
            return {shard.index: shard.leak_report() for shard in self.shards}
        self._closed = True
        self.drain()
        reports: dict[int, list[str]] = {}
        for shard in self.shards:
            shard.engine.shutdown()
            reports[shard.index] = shard.leak_report()
        for protocol in self._protocols:
            self.front.unbind_protocol(protocol)
        self.stop()
        return reports

    # ------------------------------------------------------------------
    # Introspection

    @property
    def delivered_total(self) -> int:
        """ADUs delivered by every shard's engine, summed."""
        return sum(shard.engine.delivered_total for shard in self.shards)

    def snapshot(self) -> dict[str, object]:
        """Demux counters plus per-shard engine state, for the CLI."""
        self._flush_steering_counters()
        return {
            "shards": len(self.shards),
            "threaded": self.threaded,
            "demux": self.counters.snapshot(),
            "steering": self.steering.snapshot(),
            "rebalance": (
                self.rebalance.snapshot() if self.rebalance is not None else None
            ),
            "per_shard": [
                {
                    "index": shard.index,
                    "received": shard.host.received,
                    "ring": shard.ring.snapshot(),
                    "pressure_quantum": shard.engine.pressure_quantum,
                    "backlog": shard.engine.backlog_export(),
                    "engine": shard.engine.snapshot(),
                    "pool": (
                        shard.rx_pool.snapshot()
                        if shard.rx_pool is not None
                        else None
                    ),
                }
                for shard in self.shards
            ],
        }
