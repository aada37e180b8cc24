"""Sharded hosts: flow-hash demux to per-shard receive stacks.

Once per-flow manipulation is compiled and batched, the end system is
the bottleneck the paper predicts — and an unsharded end system is
*one* ``Host``, *one* ``EventLoop`` and *one*
:class:`~repro.transport.drain.SharedDrainEngine`: every flow on a
machine serializes through one demux loop and one drain backlog.  (The
engine's backlog bookkeeping is linear — O(1) per completion however
many flows share it — so sharding buys isolation and, with real
parallelism, throughput; it does not divide a scan.)

:class:`ShardedHost` splits the machine into N shards, each a
self-contained receive stack:

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
exactly).  The table keeps no memo: a lookup is one hash and one list
index, and the callers already amortize it — the link and the
placement walk each probe once per *flow-run*, not once per packet.
Placement is a pure function of the flow key *and the table epoch*:
between migrations a flow can never change shards — not across bursts,
not across rebinds, not across close-and-reopen — and a migration is
only committed at a train boundary with the flow quiescent, by a
:class:`RebalancePolicy` chasing flow-hash skew.

**Zero-hop ingress** (§4 demultiplex-once, pushed to the wire): a
link attached with ``attach_link(link, steer=True)`` consults the
exported steering table *while coalescing trains*, so a train whose
packets all place on one shard is delivered straight onto that shard
via :meth:`ShardedHost.steer_burst` — no front-end placement walk, no
further probes.  The walk survives as the slow path for mixed-shard
trains, stale-epoch trains (a migration committed while the train was
open) and unclaimed protocols.  A mixed-shard train whose placements
are still current brings them along, so the walk probes nothing again:
each flow-run is hashed once, at the link.

**One placement walk** (§4 burst amortization): every arrival the link
did not place — a single packet through :meth:`ShardedHost.receive` or
a train through :meth:`ShardedHost.receive_burst` — takes the same
walk.  It probes the table once per *flow-run* (consecutive packets of
one flow) instead of once per packet and collects all of a shard's
packets, consecutive or not, into one list.  Control cost per train:
one hand-off per touched shard, however long the train.

Plan and codec caches are intentionally **not** sharded: compiled plans
are immutable and shared *by key* across every shard, so all shards
serving the same wire-plan shape hit one cache entry.  Shards run on one
thread; the caches' locks (see
:class:`~repro.machine.accounting.AtomicCacheStats`) are for callers
outside the simulator, since the caches are public.

Shards run serially on the front host's
:class:`~repro.sim.eventloop.EventLoop`: packets are delivered inline,
and a shard's drain epochs and timers go on the one heap every other
event of the simulation uses, so they run at their due time and tests
and experiments stay exactly reproducible.  Sharding schedules nothing
of its own.  The word loops are GIL-bound, so running shards on threads
cannot beat the serial schedule.  Flows bound on a shard may send
through shard-local links or fall back to the front host via
``uplink``.
"""

from __future__ import annotations

import zlib
from typing import TYPE_CHECKING

from repro.buffers.pool import BufferPool
from repro.errors import NetworkError
from repro.machine.accounting import DrainCounters, ShardCounters
from repro.net.host import Host
from repro.net.packet import Packet
from repro.sim.rng import RngStreams
from repro.sim.trace import DISABLED_TRACER, Tracer

if TYPE_CHECKING:  # pragma: no cover - import cycle guard (typing only)
    from repro.transport.drain import SharedDrainEngine


def flow_hash(protocol: str, flow_id: int) -> int:
    """The stable placement hash of a flow key: CRC32 of
    ``protocol/flow_id``.

    CRC32 rather than ``hash()`` so the placement is identical across
    processes and immune to ``PYTHONHASHSEED`` — replayable experiments
    need the demux itself to be deterministic.
    """
    return zlib.crc32(f"{protocol}/{flow_id}".encode())


def shard_index(protocol: str, flow_id: int, n_shards: int) -> int:
    """The home shard of a flow: its placement hash mod N."""
    if n_shards <= 0:
        raise NetworkError(f"n_shards must be positive, got {n_shards}")
    return flow_hash(protocol, flow_id) % n_shards


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
    mutation bumps ``epoch``, so a consulting link can tell a stale
    decision from a fresh one.  :meth:`place` is a pure function of the
    flow key and the live map; ``lookups`` counts every hash it makes.
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
        # Per-bucket / per-shard arrival ledgers (cumulative packets).
        # The rebalance policy plans from these: a bucket's share of the
        # traffic predicts its share after a remap.
        self.bucket_packets = [0] * self.n_buckets
        self.shard_packets = [0] * n_shards

    def bucket_of(self, protocol: str, flow_id: int) -> int:
        """The (stable, remap-independent) bucket of a flow key."""
        return flow_hash(protocol, flow_id) % self.n_buckets

    def place(self, protocol: str, flow_id: int) -> tuple[int, int]:
        """Resolve ``(shard, bucket)`` for a flow key (any protocol)."""
        bucket = flow_hash(protocol, flow_id) % self.n_buckets
        self.lookups += 1
        return self.map[bucket], bucket

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
        """Point ``bucket`` at ``shard``; bumps the epoch so a link's
        open-train placements revalidate."""
        if not 0 <= bucket < self.n_buckets:
            raise NetworkError(f"no bucket {bucket}")
        if not 0 <= shard < self.n_shards:
            raise NetworkError(f"no shard {shard}")
        self.map[bucket] = shard
        self.epoch += 1
        self.remaps += 1

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
        return {
            "n_buckets": self.n_buckets,
            "epoch": self.epoch,
            "remaps": self.remaps,
            "lookups": self.lookups,
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


class HostShard:
    """One shard: a private host, engine and rx pool on the front's loop.

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
        tracer: Tracer,
    ):
        self.index = index
        self.loop = front.loop
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

    def leak_report(self) -> list[str]:
        """Outstanding rx-pool buffers (empty when the shard is clean)."""
        return self.rx_pool.leak_report() if self.rx_pool is not None else []


class SerialShardScheduler:
    """Retired: shards schedule on their front host's loop, so there is
    no merge left to run.  The name is kept only because the end-to-end
    benchmark's span table (``benchmarks/e2e/spans.py``) imports it;
    :meth:`run` raises."""

    def run(self, until: float | None = None) -> int:
        raise NetworkError(
            "SerialShardScheduler is retired: shards run on the front "
            "host's EventLoop"
        )


class ShardedHost:
    """A host front end that demuxes flows to N shards.

    Args:
        front: the machine's outward-facing host (owns the links;
            arriving packets reach the demux through protocol fallback
            bindings on it, or by calling :meth:`receive` directly).
        shards: shard count (N ≥ 1).
        rng: root RNG family; each shard derives its own from the root
            seed and its index.  Defaults to a seed-0 family.
        pool_buffers / buffer_size: size of each shard's private rx
            pool (0 buffers disables pooling — payloads stay bytes).
        max_rows / max_delay: forwarded to each shard's drain engine.
        adaptive: forwarded to each shard's drain engine — epochs deepen
            under backlog and collapse to immediate flush when idle.
        protocols: protocol names the front end claims
            (``front.bind_protocol``) and demuxes; pass ``()`` when the
            caller routes packets to :meth:`receive` itself.
        buckets_per_shard: steering-table resolution — the flow hash
            lands in ``shards × buckets_per_shard`` buckets, and a
            bucket is the unit a rebalance remaps.
        rebalance: optional :class:`RebalancePolicy`; when set, every
            train boundary may commit bucket migrations for registered
            flows (see :meth:`register_flow`).
        counters: demux ledger (defaults to a fresh
            :class:`~repro.machine.accounting.ShardCounters`).
        tracer: optional event tracer shared by every shard.
    """

    def __init__(
        self,
        front: Host,
        shards: int,
        rng: RngStreams | None = None,
        pool_buffers: int = 0,
        buffer_size: int = 2048,
        max_rows: int = 256,
        max_delay: float = 0.0,
        adaptive: bool = False,
        protocols: tuple[str, ...] = ("alf",),
        buckets_per_shard: int = 64,
        rebalance: "RebalancePolicy | None" = None,
        counters: ShardCounters | None = None,
        tracer: Tracer | None = None,
    ):
        if shards <= 0:
            raise NetworkError(f"shards must be positive, got {shards}")
        self.front = front
        self.tracer = tracer or DISABLED_TRACER
        self.counters = counters if counters is not None else ShardCounters()
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
                self.tracer,
            )
            for index in range(shards)
        ]
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
        self._closed = False
        for protocol in self._protocols:
            front.bind_protocol(protocol, self.receive)

    # ------------------------------------------------------------------
    # Demux

    def shard_for(self, protocol: str, flow_id: int) -> HostShard:
        """The home shard of (protocol, flow) under the live steering
        table — the historical pure hash until a migration commits.

        A control-path query (binding a receiver, say): it hashes
        through :meth:`SteeringTable.bucket_of`, so it does not count as
        a data-path probe in ``lookups``.
        """
        table = self.steering
        return self.shards[table.map[table.bucket_of(protocol, flow_id)]]

    def attach_link(self, link, steer: bool = False) -> None:
        """Point a link's delivery at this front end, trains included.

        Per-packet delivery goes through the front host's normal demux
        (so unclaimed protocols still reach their own handlers); a
        train-mode link hands whole trains to :meth:`receive_burst`, so
        the one-pass placement walk sees the same aggregation the link
        built.

        ``steer=True`` additionally exports the steering table to the
        link: a coalescing train whose packets all place on one shard
        is delivered straight onto that shard via :meth:`steer_burst` —
        zero front-end hops, zero placement walks — while mixed-shard,
        stale-epoch and unclaimed-protocol trains keep the
        :meth:`receive_burst` slow path.
        """
        link.connect(self.front.receive, burst_receiver=self.receive_burst)
        if steer:
            link.set_steering(self.steering, self.steer_burst, self.receive_burst)
            self._steered = True

    def receive(self, packet: Packet) -> None:
        """Demux one packet to its home shard."""
        self._ingress([packet])

    def receive_burst(
        self, packets: list[Packet], placements: list[list[int]] | None = None
    ) -> None:
        """Demux a packet train in one pass: one hand-off per shard.

        With link steering active this is the *slow path* — only
        mixed-shard, stale-epoch or unclaimed-protocol trains land
        here, counted as fallbacks.  A steering link passes a mixed
        train's still-current ``placements`` (its per-run ``[bucket,
        shard, n]``), which the walk uses instead of hashing each run.
        """
        if packets:
            self._ingress(packets, train=True, placements=placements)

    def steer_burst(self, index: int, packets: list[Packet]) -> None:
        """Zero-hop ingress: a steered link delivers a single-shard
        train here, straight onto the shard — no placement walk (the
        link already consulted the steering table while coalescing)."""
        self._ingress(packets, train=True, steered=self.shards[index])

    def _ingress(
        self,
        packets: list[Packet],
        train: bool = False,
        steered: HostShard | None = None,
        placements: list[list[int]] | None = None,
    ) -> None:
        """The one ingress path behind the three entry points.

        A ``steered`` train goes straight to its shard.  Anything else
        takes the placement walk: one :meth:`SteeringTable.place` probe
        per flow-run (consecutive packets of one flow), counted in
        ``demux_runs``; the run's other packets are counted as saved
        probes.  With ``placements`` (a steering link's current per-run
        placements of this train) the walk takes each run's shard and
        bucket from them in order instead of probing.  Packets of
        protocols this front never claimed take the front host's
        ordinary demux.  Each touched shard then gets all of its packets
        in one :meth:`_deliver`.  A train (not a single
        packet) ends at a rebalance boundary.
        """
        if self._closed:
            # shutdown() unbound the claimed protocols from the front,
            # so the front counts these as undeliverable.
            for packet in packets:
                self.front.receive(packet)
            return
        counters = self.counters
        if steered is not None:
            counters.record_steered(len(packets))
            self._deliver(steered, packets)
            self._train_boundary()
            return
        if train:
            counters.record_burst(len(packets))
            if self._steered:
                counters.record_fallback(len(packets))
        table = self.steering
        claimed = self._claimed
        placed = None if placements is None else iter(placements)
        per_shard: dict[HostShard, list[Packet]] = {}
        charges: list[list[int]] = []  # [bucket, shard, n] per flow-run
        charge: list[int] = []  # the run's
        unclaimed = 0
        run_key: tuple[str, int] | None = None
        run_into: list[Packet] = []  # the run's shard's packet list
        for packet in packets:
            key = (packet.protocol, packet.flow_id)
            if key == run_key:
                charge[2] += 1
                run_into.append(packet)
                continue
            if claimed is not None and packet.protocol not in claimed:
                run_key = None
                unclaimed += 1
                self.front.receive(packet)
                continue
            if placed is None:
                index, bucket = table.place(packet.protocol, packet.flow_id)
            else:
                bucket, index, _ = next(placed)
            charge = [bucket, index, 1]
            charges.append(charge)
            run_key = key
            shard = self.shards[index]
            run_into = per_shard.get(shard)
            if run_into is None:
                run_into = per_shard[shard] = []
            run_into.append(packet)
        if charges:
            # The walk's accounting, settled once per train.
            counters.record_runs(len(charges), len(packets) - unclaimed)
            table.apply_charges(charges)
        for shard, shard_packets in per_shard.items():
            self._deliver(shard, shard_packets)
        if train:
            self._train_boundary()

    def _deliver(self, shard: HostShard, packets: list[Packet]) -> None:
        """Hand one shard its packets, inline at the current time."""
        if len(packets) > 1:
            self.counters.record_shard_load(
                shard.index, len(packets), shard.engine.pending_rows
            )
        if len(packets) == 1:
            shard.host.receive(packets[0])
        else:
            shard.host.receive_burst(packets)
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
        with the source shard's ready rows drained, every registered flow
        in the bucket quiescent (no in-flight reassembly rows, no
        undrained ready rows), and no *unregistered* flow bound on the
        source shard inside the bucket (remapping one would route its
        future packets to a shard where nothing is bound).  Anything
        else defers — the policy will simply re-propose at the next
        boundary.  Exactly-once delivery survives because no fragment
        of any ADU is in flight across the rebind, and the remap bumps
        the table epoch, so a link's open-train placements are stale
        before the next packet routes.
        """
        if not 0 <= bucket < self.steering.n_buckets:
            return False
        source = self.steering.map[bucket]
        if source == target or not 0 <= target < len(self.shards):
            return False
        flows = self._bucket_flows.get(bucket, ())
        source_shard = self.shards[source]
        target_shard = self.shards[target]
        # Drain the source shard's ready rows now (their epoch is queued
        # behind this event) so "quiescent" reflects this train.
        if source_shard.engine.pending_rows:
            source_shard.engine.flush()
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
        for receiver in receivers:
            engine = (
                target_shard.engine
                if getattr(receiver, "drain_engine", None) is not None
                else None
            )
            receiver.rehome(target_shard.loop, target_shard.host, engine)
        self.steering.remap(bucket, target)
        self.counters.record_migration(len(receivers))
        self.tracer.emit(
            self.front.loop.now, "shard", "migrate", bucket=bucket,
            source=source, target=target, flows=len(receivers),
        )
        return True

    # ------------------------------------------------------------------
    # Lifecycle

    def drain(self, until: float | None = None) -> None:
        """Settle every shard: run the loop up to ``until`` (default:
        the current time)."""
        loop = self.front.loop
        loop.run(until=loop.now if until is None else until)

    def shutdown(self) -> dict[int, list[str]]:
        """Tear every shard down; returns per-shard leak reports.

        Drains outstanding work, shuts each shard's engine down (ready
        rows release their pooled segments) and unbinds the claimed
        protocols from the front, so later arrivals count as
        undeliverable there.  A clean teardown reports an empty list
        for every shard.
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
        return reports

    # ------------------------------------------------------------------
    # Introspection

    @property
    def delivered_total(self) -> int:
        """ADUs delivered by every shard's engine, summed."""
        return sum(shard.engine.delivered_total for shard in self.shards)

    def snapshot(self) -> dict[str, object]:
        """Demux counters plus per-shard engine state, for the CLI."""
        return {
            "shards": len(self.shards),
            "demux": self.counters.snapshot(),
            "steering": self.steering.snapshot(),
            "rebalance": (
                self.rebalance.snapshot() if self.rebalance is not None else None
            ),
            "per_shard": [
                {
                    "index": shard.index,
                    "received": shard.host.received,
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
