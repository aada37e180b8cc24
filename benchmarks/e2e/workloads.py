"""The four end-to-end workloads and the delivery oracle every pass checks.

A workload is a recipe: ``make_inputs(scale, seed)`` generates the seeded
offered load (payload bytes, due times, flow keys) once per process, and
``build(inputs, oracle, seed)`` wires a fresh topology around it — hosts,
links, a 4-shard :class:`~repro.net.shard.ShardedHost`, transport
endpoints and flow registrations — returning a :class:`Net`.
:func:`run_pass` records when the build (``setup_span``) and the
simulation (``timed_span``) started and ended, drives the front loop in
1 ms steps until every offered ADU is delivered or the sim budget runs
out, then tears the topology down and lets the oracle judge delivery and
leaks.  :func:`setup_time` times one more build, torn down without
running, so a run can take ``setup_s`` as a median of several builds.

Why these four: each layer an optimisation is likely to touch is heavy in
one workload and light in another, and each of the three ``ShardedHost``
ingress paths gets its own workload (front-end ``receive_burst`` on
``manyflow``, link-steered ``steer_burst`` on ``bulk_secure`` and
``incast``, per-packet ``receive`` on ``session_churn``).  See README.md
for the predicted layer → metric map.

Only seeded inputs reach the program: ``--seed`` picks payload bytes,
due-time jitter and every ``RngStreams`` root, so one seed replays
bit-identically in sim time while different seeds move the sim-time
metrics by a fraction of a percent.
"""

from __future__ import annotations

import contextlib
import gc
import itertools
import math
import time
import zlib
from dataclasses import dataclass, field
from typing import Callable

import repro.transport.session as session_module
from repro.core.adu import Adu
from repro.machine.accounting import (
    PacingCounters,
    ShardCounters,
    datapath_counters,
)
from repro.net.host import Host
from repro.net.link import Link
from repro.net.shard import ShardedHost, shard_index
from repro.net.switch import StoreAndForwardSwitch
from repro.net.topology import sharded_ingress
from repro.presentation.abstract import ArrayOf, Int32, OctetString
from repro.presentation.lwts import LwtsCodec
from repro.sim.eventloop import EventLoop
from repro.sim.rng import RngStreams
from repro.stages.presentation import PresentationBinding
from repro.transport.alf import AlfReceiver, AlfSender
from repro.transport.pacing import TrainPacer
from repro.transport.session import SessionConfig, SessionInitiator, SessionListener

#: Front-loop step between shard settles (and queue-depth samples when
#: tracing).  Part of the workload definition: shard loops only catch
#: up to the front clock at these boundaries or on a dispatch.
STEP_S = 1e-3

SHARDS = 4


class OracleFailure(Exception):
    """Delivery was not byte-identical and exactly-once, or a pool leaked."""


# ----------------------------------------------------------------------
# Offered load and the delivery oracle


@dataclass(frozen=True)
class Offered:
    """One offered ADU: its flow key, sequence, bytes and due time."""

    key: int
    sequence: int
    payload: bytes
    due: float
    crc: int


@dataclass
class Inputs:
    """A workload's seeded offered load (reused by every pass)."""

    adus: list[Offered]
    mtu: int
    params: dict[str, object] = field(default_factory=dict)

    def __post_init__(self) -> None:
        self.expected = {(adu.key, adu.sequence): adu for adu in self.adus}
        self.fragments = sum(-(-len(adu.payload) // self.mtu) for adu in self.adus)


class Oracle:
    """Per-flow delivery ledger: CRC-checked, exactly-once, timestamped.

    ``tamper`` rewrites each delivered payload before the check; the
    benchmark's own tests use it to prove a flipped byte fails the run.
    """

    def __init__(self, inputs: Inputs, tamper: Callable[[bytes], bytes] | None = None):
        self.expected = inputs.expected
        self.arrivals: dict[tuple[int, int], float] = {}
        self.errors: list[str] = []
        self.tamper = tamper
        self.payload_bytes = 0

    @property
    def outstanding(self) -> int:
        return len(self.expected) - len(self.arrivals)

    def deliver(self, key: int, sequence: int, payload: bytes, now: float) -> None:
        if self.tamper is not None:
            payload = self.tamper(payload)
        ident = (key, sequence)
        offered = self.expected.get(ident)
        if offered is None:
            self.errors.append(f"unexpected ADU {ident}")
            return
        if ident in self.arrivals:
            self.errors.append(f"duplicate delivery of ADU {ident}")
            return
        if len(payload) != len(offered.payload) or zlib.crc32(payload) != offered.crc:
            self.errors.append(f"payload mismatch on ADU {ident}")
        self.arrivals[ident] = now
        self.payload_bytes += len(payload)

    def latencies(self) -> list[float]:
        """Sim seconds from due time to delivery, per delivered ADU."""
        expected = self.expected
        return [when - expected[ident].due for ident, when in self.arrivals.items()]


def _offered(key: int, sequence: int, payload: bytes, due: float) -> Offered:
    return Offered(key, sequence, payload, due, zlib.crc32(payload))


def _random_bytes(rng, count: int, size: int) -> list[bytes]:
    blob = rng.randbytes(count * size)
    return [blob[i * size : (i + 1) * size] for i in range(count)]


# ----------------------------------------------------------------------
# A built topology


@dataclass
class Net:
    """Everything a pass needs to drive, count and tear down."""

    loop: EventLoop
    sharded: ShardedHost
    budget_s: float
    demux: ShardCounters
    hosts: list[Host]
    links: list[Link]
    senders: list[AlfSender]
    pacers: list[TrainPacer] = field(default_factory=list)
    pacing: PacingCounters | None = None
    switch: StoreAndForwardSwitch | None = None
    switch_port: str | None = None
    closers: list[Callable[[], None]] = field(default_factory=list)

    @property
    def loops(self) -> list[EventLoop]:
        return [self.loop] + [shard.loop for shard in self.sharded.shards]

    def engines(self):
        return [shard.engine for shard in self.sharded.shards]

    def all_hosts(self) -> list[Host]:
        return self.hosts + [shard.host for shard in self.sharded.shards]


def _receiver(sharded: ShardedHost, peer: str, flow_id: int, oracle: Oracle,
              **kwargs) -> AlfReceiver:
    """A receiver on the flow's home shard, enrolled for migration."""
    shard = sharded.shard_for("alf", flow_id)
    receiver = AlfReceiver(
        shard.loop,
        shard.host,
        peer,
        flow_id,
        deliver=lambda adu: oracle.deliver(
            flow_id, adu.sequence, adu.payload, adu.arrival_time
        ),
        drain_engine=shard.engine,
        **kwargs,
    )
    sharded.register_flow("alf", flow_id, receiver)
    return receiver


# ----------------------------------------------------------------------
# manyflow: control-dominated, smallest ADUs, front-end demux fallback

MANYFLOW_FLOWS = 4096
MANYFLOW_ADUS = 2
MANYFLOW_PAYLOAD = 64
MANYFLOW_SPREAD_S = 1e-3


def manyflow_inputs(scale: float, seed: int) -> Inputs:
    flows = max(16, int(MANYFLOW_FLOWS * scale))
    rng = RngStreams(seed).stream("manyflow")
    payloads = _random_bytes(rng, flows * MANYFLOW_ADUS, MANYFLOW_PAYLOAD)
    adus = [
        _offered(flow_id, seq, payloads[(flow_id - 1) * MANYFLOW_ADUS + seq],
                 rng.random() * MANYFLOW_SPREAD_S)
        for flow_id in range(1, flows + 1)
        for seq in range(MANYFLOW_ADUS)
    ]
    return Inputs(adus, mtu=1024, params={"flows": flows})


def manyflow_build(inputs: Inputs, oracle: Oracle, seed: int) -> Net:
    demux = ShardCounters()
    ing = sharded_ingress(
        seed=seed, shards=SHARDS, steer=True, bandwidth_bps=1e9,
        max_train=16, pool_buffers=256, counters=demux,
    )
    senders = {}
    for flow_id in range(1, int(inputs.params["flows"]) + 1):
        _receiver(ing.sharded, "a", flow_id, oracle)
        senders[flow_id] = AlfSender(ing.loop, ing.a, "b", flow_id, mtu=inputs.mtu)
    for adu in inputs.adus:
        ing.loop.schedule_at(
            adu.due, senders[adu.key].send_adu,
            Adu(adu.sequence, adu.payload, {"seq": adu.sequence}),
        )
    return Net(
        loop=ing.loop, sharded=ing.sharded, budget_s=1.0, demux=demux,
        hosts=[ing.a, ing.b], links=[ing.a_to_b, ing.b_to_a],
        senders=list(senders.values()),
    )


# ----------------------------------------------------------------------
# bulk_secure: manipulation-dominated, every train steered

BULK_FLOWS_PER_SHARD = 2
BULK_ADUS = 512
BULK_INTS = 4096  # 16 KiB int32 arrays: 16 fragments at MTU 1024
BULK_WINDOW = 32
BULK_KEY = 0x5A5AC3D2
BULK_SCHEMA = ArrayOf(Int32(), fixed_count=BULK_INTS)
BULK_START_SPREAD_S = 1e-3


def _balanced_flows(per_shard: int) -> list[int]:
    """The smallest flow ids giving every shard exactly ``per_shard``."""
    chosen: dict[int, list[int]] = {index: [] for index in range(SHARDS)}
    for flow_id in itertools.count(1):
        home = chosen[shard_index("alf", flow_id, SHARDS)]
        if len(home) < per_shard:
            home.append(flow_id)
        if all(len(flows) == per_shard for flows in chosen.values()):
            return sorted(flow for flows in chosen.values() for flow in flows)


def bulk_inputs(scale: float, seed: int) -> Inputs:
    adus_per_flow = max(4, int(BULK_ADUS * scale))
    flows = _balanced_flows(BULK_FLOWS_PER_SHARD)
    rng = RngStreams(seed).stream("bulk_secure")
    adus = []
    for flow_id in flows:
        start = rng.random() * BULK_START_SPREAD_S
        # Raw little-endian int32 words: any bytes are a valid LWTS
        # encoding of the fixed-count array.
        payloads = _random_bytes(rng, adus_per_flow, 4 * BULK_INTS)
        adus.extend(
            _offered(flow_id, seq, payload, start)
            for seq, payload in enumerate(payloads)
        )
    return Inputs(adus, mtu=1024, params={"flows": flows})


def bulk_build(inputs: Inputs, oracle: Oracle, seed: int) -> Net:
    demux = ShardCounters()
    ing = sharded_ingress(
        seed=seed, shards=SHARDS, steer=True, bandwidth_bps=1e9,
        max_train=16, pool_buffers=1536, counters=demux,
    )
    little, big = LwtsCodec(byte_order="little"), LwtsCodec(byte_order="big")
    senders = {}
    for flow_id in inputs.params["flows"]:
        _receiver(
            ing.sharded, "a", flow_id, oracle,
            presentation=PresentationBinding(BULK_SCHEMA, little, big),
            encryption=BULK_KEY,
        )
        senders[flow_id] = AlfSender(
            ing.loop, ing.a, "b", flow_id, mtu=inputs.mtu,
            max_outstanding=BULK_WINDOW,
            presentation=PresentationBinding(BULK_SCHEMA, little, big),
            encryption=BULK_KEY,
        )
    by_flow: dict[int, list[Offered]] = {}
    for adu in inputs.adus:
        by_flow.setdefault(adu.key, []).append(adu)
    for flow_id, adus in by_flow.items():
        ing.loop.schedule_at(
            adus[0].due, _send_all, senders[flow_id],
            [Adu(adu.sequence, adu.payload, {"seq": adu.sequence}) for adu in adus],
        )
    return Net(
        loop=ing.loop, sharded=ing.sharded, budget_s=10.0, demux=demux,
        hosts=[ing.a, ing.b], links=[ing.a_to_b, ing.b_to_a],
        senders=list(senders.values()),
    )


def _send_all(sender: AlfSender, adus: list[Adu]) -> None:
    for adu in adus:
        sender.send_adu(adu)


# ----------------------------------------------------------------------
# incast: open-loop overload of one drop-tail port by synchronized bursts
#
# The load comes in 8 overload episodes of about 1 s.  In each, the 32
# senders answer together (classic partition/aggregate incast) with a
# 4-ADU burst every 93 ms, which is 110% of the 10 Mb/s port, whatever
# the program does with them.  Each burst (128 packets) overflows the
# 64-packet port, and the backlog and the timer-driven repairs (200 ms
# RTO, no periodic ACKs) build up across the episode.  A 1.5 s quiet gap
# then lets it drain, so each episode is an independent trial.  One
# continuous 8 s overload instead turns into a retransmit storm that
# never settles: wire amplification grows with its length, and its
# latency percentiles move 1-10% from seed to seed.

INCAST_SENDERS = 32
INCAST_PAYLOAD = 960  # + 40 header = 1000 wire bytes, one fragment
INCAST_BOTTLENECK_BPS = 10e6
INCAST_UPLINK_BPS = 100e6
INCAST_QUEUE = 64
INCAST_LOAD = 1.1
INCAST_BURST = 4
INCAST_BURSTS_PER_EPISODE = 11
INCAST_EPISODES = 8
INCAST_GAP_S = 1.5
INCAST_JITTER_S = 1e-4
INCAST_TRAIN = 4


def incast_inputs(scale: float, seed: int) -> Inputs:
    episodes = max(1, round(INCAST_EPISODES * scale))
    port_adus_per_s = INCAST_BOTTLENECK_BPS / 8 / (INCAST_PAYLOAD + 40)
    period = INCAST_SENDERS * INCAST_BURST / (INCAST_LOAD * port_adus_per_s)
    episode_s = INCAST_BURSTS_PER_EPISODE * period + INCAST_GAP_S
    bursts = [
        episode * episode_s + index * period
        for episode in range(episodes)
        for index in range(INCAST_BURSTS_PER_EPISODE)
    ]
    rng = RngStreams(seed).stream("incast")
    adus = []
    for flow_id in range(1, INCAST_SENDERS + 1):
        payloads = _random_bytes(rng, len(bursts) * INCAST_BURST, INCAST_PAYLOAD)
        for index, start in enumerate(bursts):
            due = start + rng.random() * INCAST_JITTER_S
            adus.extend(
                _offered(flow_id, seq, payloads[seq], due)
                for seq in range(index * INCAST_BURST, (index + 1) * INCAST_BURST)
            )
    return Inputs(adus, mtu=1024, params={"budget_s": episodes * episode_s + 60})


def _star(seed: int, senders: list[str], hub: str):
    """Senders on fast links to one switch; ``hub`` on the slow port.

    Returns ``(loop, switch, hosts, links, hub_downlink)``; every
    switch→host link runs in train mode.
    """
    loop = EventLoop()
    rng = RngStreams(seed)
    switch = StoreAndForwardSwitch(
        loop, queue_capacity=INCAST_QUEUE, preserve_trains=True,
        train_fairness_cap=8,
    )
    names = senders + [hub]
    hosts, links = {}, []
    for name in names:
        bandwidth = INCAST_BOTTLENECK_BPS if name == hub else INCAST_UPLINK_BPS
        host = Host(loop, name)
        up = Link(loop, rng.stream(f"up-{name}"), bandwidth_bps=bandwidth,
                  propagation_delay=1e-3, name=f"{name}->sw")
        down = Link(loop, rng.stream(f"down-{name}"), bandwidth_bps=bandwidth,
                    propagation_delay=1e-3, max_train=8, train_window=1e-3,
                    name=f"sw->{name}")
        up.connect(switch.receive)
        down.connect(host.receive)
        switch.attach(name, down)
        switch.add_route(name, name)
        for other in names:
            if other != name:
                host.add_link(other, up)
        hosts[name] = host
        links += [up, down]
    return loop, switch, hosts, links, down


def incast_build(inputs: Inputs, oracle: Oracle, seed: int) -> Net:
    names = [f"s{index:02d}" for index in range(INCAST_SENDERS)]
    loop, switch, hosts, links, downlink = _star(seed, names, "b")
    demux = ShardCounters()
    sharded = ShardedHost(
        hosts["b"], SHARDS, rng=RngStreams(seed), pool_buffers=256,
        adaptive=True, max_delay=1e-3, counters=demux,
    )
    sharded.attach_link(downlink, steer=True)
    pacing = PacingCounters()
    senders, pacers = {}, []
    for flow_id, name in enumerate(names, start=1):
        _receiver(sharded, name, flow_id, oracle, ack_interval=0)
        pacer = TrainPacer(
            loop, rate_bytes_per_s=125_000.0, target_train=INCAST_TRAIN,
            bucket_trains=1.0, mtu=inputs.mtu, counters=pacing,
            name=f"pacer-{name}",
        )
        pacers.append(pacer)
        senders[flow_id] = AlfSender(
            loop, hosts[name], "b", flow_id, mtu=inputs.mtu, rto=0.2,
            max_attempts=10_000, pacing=pacer,
        )
    for adu in inputs.adus:
        loop.schedule_at(
            adu.due, senders[adu.key].send_adu,
            Adu(adu.sequence, adu.payload, {"seq": adu.sequence}),
        )
    return Net(
        loop=loop, sharded=sharded, budget_s=inputs.params["budget_s"],
        demux=demux, hosts=list(hosts.values()), links=links,
        senders=list(senders.values()), pacers=pacers, pacing=pacing,
        switch=switch, switch_port="b",
    )


# ----------------------------------------------------------------------
# session_churn: handshakes and registrations beside data

CHURN_SESSIONS = 4096
CHURN_WAVE = 64
CHURN_WAVE_S = 5e-3
CHURN_JITTER_S = 1e-4
CHURN_ADUS = 2
CHURN_PAYLOAD = 256
CHURN_SCHEMA = {"blob": OctetString()}


def churn_inputs(scale: float, seed: int) -> Inputs:
    sessions = max(CHURN_WAVE, int(CHURN_SESSIONS * scale))
    rng = RngStreams(seed).stream("session_churn")
    payloads = _random_bytes(rng, sessions * CHURN_ADUS, CHURN_PAYLOAD)
    adus = []
    for index in range(sessions):
        init_at = (index // CHURN_WAVE) * CHURN_WAVE_S + rng.random() * CHURN_JITTER_S
        adus.extend(
            _offered(index, seq, payloads[index * CHURN_ADUS + seq], init_at)
            for seq in range(CHURN_ADUS)
        )
    return Inputs(adus, mtu=1024, params={"sessions": sessions})


def churn_build(inputs: Inputs, oracle: Oracle, seed: int) -> Net:
    rng = RngStreams(seed)
    loop = EventLoop()
    a, b = Host(loop, "a"), Host(loop, "b")
    a_to_b = Link(loop, rng.stream("link-a-b"), bandwidth_bps=1e9,
                  propagation_delay=1e-3, name="a->b")
    b_to_a = Link(loop, rng.stream("link-b-a"), bandwidth_bps=1e9,
                  propagation_delay=1e-3, name="b->a")
    a_to_b.connect(b.receive)
    b_to_a.connect(a.receive)
    a.add_link("b", a_to_b)
    b.add_link("a", b_to_a)
    demux = ShardCounters()
    sharded = ShardedHost(b, SHARDS, rng=rng, pool_buffers=256, counters=demux)
    index_of: dict[int, int] = {}
    listener = SessionListener(
        loop, b, CHURN_SCHEMA, sharded=sharded,
        deliver=lambda flow_id, adu: oracle.deliver(
            index_of[flow_id], adu.sequence, adu.payload, adu.arrival_time
        ),
    )
    config = SessionConfig(schema_name="blob")
    senders: list[AlfSender] = []
    by_session: dict[int, list[Offered]] = {}
    for adu in inputs.adus:
        by_session.setdefault(adu.key, []).append(adu)

    def established(session, adus) -> None:
        senders.append(session.sender)
        for adu in adus:
            session.sender.send_adu(Adu(adu.sequence, adu.payload, {"seq": adu.sequence}))
        session.sender.close()

    def arrive(index: int, adus: list[Offered]) -> None:
        initiator = SessionInitiator(
            loop, a, "b", config, CHURN_SCHEMA,
            on_established=lambda session: established(session, adus),
        )
        index_of[initiator.flow_id] = index

    for index, adus in by_session.items():
        loop.schedule_at(adus[0].due, arrive, index, adus)
    return Net(
        loop=loop, sharded=sharded, budget_s=10.0, demux=demux,
        hosts=[a, b], links=[a_to_b, b_to_a], senders=senders,
        closers=[listener.close],
    )


# ----------------------------------------------------------------------
# Registry


@dataclass(frozen=True)
class Workload:
    name: str
    make_inputs: Callable[[float, int], Inputs]
    build: Callable[[Inputs, Oracle, int], Net]


WORKLOADS = {
    workload.name: workload
    for workload in (
        Workload("manyflow", manyflow_inputs, manyflow_build),
        Workload("bulk_secure", bulk_inputs, bulk_build),
        Workload("incast", incast_inputs, incast_build),
        Workload("session_churn", churn_inputs, churn_build),
    )
}


# ----------------------------------------------------------------------
# One pass


@dataclass
class PassResult:
    """What one pass measured (sim metrics are pure functions of the seed)."""

    #: ``time.perf_counter()`` at the start and end of the build and of
    #: the timed simulation.
    setup_span: tuple[float, float]
    timed_span: tuple[float, float]
    offered: int
    delivered: int
    sim: dict[str, float]
    counters: dict[str, float]
    depth_p99: dict[str, float]

    @property
    def setup_s(self) -> float:
        return self.setup_span[1] - self.setup_span[0]

    @property
    def wall_s(self) -> float:
        return self.timed_span[1] - self.timed_span[0]


def percentile(values: list[float], q: float) -> float:
    """Nearest-rank percentile (0.0 for no values)."""
    if not values:
        return 0.0
    ordered = sorted(values)
    return ordered[max(1, math.ceil(q / 100.0 * len(ordered))) - 1]


def sample_depths(net: Net, samples: dict[str, list[int]]) -> None:
    """One queue-depth sample (called every STEP_S of sim time)."""
    samples["net.switch.queue_depth"].append(
        net.switch.queue_depth(net.switch_port) if net.switch is not None else 0
    )
    samples["transport.drain.pending_rows"].append(
        sum(engine.pending_rows for engine in net.engines())
    )
    samples["transport.pacing.queued_packets"].append(
        sum(pacer.queued_packets for pacer in net.pacers)
    )


def _counters(net: Net) -> dict[str, float]:
    """Per-pass layer counters, read from the topology's own objects."""
    hosts = net.all_hosts()
    link_trains = sum(link.stats.trains for link in net.links)
    drain = [engine.counters for engine in net.engines()]
    return {
        "events": sum(loop.events_run for loop in net.loops),
        "link_trains": link_trains,
        "link_train_packets": sum(link.stats.train_packets for link in net.links),
        "scan_visits": sum(c.scan_visits for c in drain),
        "dispatches": sum(c.dispatches for c in drain),
        "rows_dispatched": sum(c.rows_dispatched for c in drain),
        "steered_packets": net.demux.steered_packets,
        "front_packets": net.demux.packets,
        "host_received": sum(host.received for host in hosts),
        "host_memo_hits": sum(host.demux_memo_hits for host in hosts),
        "queue_drops": net.switch.stats.drops if net.switch is not None else 0,
        "retransmissions": sum(s.stats.retransmissions for s in net.senders),
        "data_packets": sum(s.stats.segments_sent for s in net.senders),
        "credit_stalls": net.pacing.credit_stalls if net.pacing is not None else 0,
        "backoffs": sum(pacer.backoffs for pacer in net.pacers),
    }


def reset_process_state() -> None:
    """Restart the session flow-id counter so every pass places its
    sessions on the same shards (placement hashes the flow id)."""
    session_module._flow_ids = itertools.count(1000)


def _build(
    workload: Workload, inputs: Inputs, oracle: Oracle, seed: int
) -> tuple[Net, tuple[float, float]]:
    """A fresh topology and the ``perf_counter`` span of its build."""
    reset_process_state()
    gc.collect()
    start = time.perf_counter()
    net = workload.build(inputs, oracle, seed)
    return net, (start, time.perf_counter())


def _teardown(net: Net) -> dict[int, object]:
    """Close the endpoints and shut the shards down; returns the leaks."""
    for close in net.closers:
        close()
    return {index: report for index, report in net.sharded.shutdown().items() if report}


def setup_time(workload: Workload, inputs: Inputs, seed: int) -> tuple[float, float]:
    """Build a topology, tear it down unrun, and return the build's span."""
    net, span = _build(workload, inputs, Oracle(inputs), seed)
    leaks = _teardown(net)
    if leaks:
        raise OracleFailure(f"{workload.name}: rx-pool leaks after an unrun build: {leaks}")
    return span


def run_pass(
    workload: Workload,
    inputs: Inputs,
    seed: int,
    traced=None,
    tamper: Callable[[bytes], bytes] | None = None,
) -> PassResult:
    """Build, run and verify one pass; raises :class:`OracleFailure`.

    ``traced`` is an optional context manager (the span recorder) entered
    around the timed region; the 1 ms queue-depth sampler runs with it and
    fills ``depth_p99`` (zeros when untraced).
    """
    oracle = Oracle(inputs, tamper)
    net, setup_span = _build(workload, inputs, oracle, seed)

    samples: dict[str, list[int]] = {
        "net.switch.queue_depth": [],
        "transport.drain.pending_rows": [],
        "transport.pacing.queued_packets": [],
    }
    datapath = datapath_counters()
    copies0, bytes0 = datapath.copies, datapath.bytes_copied + datapath.bytes_read
    gc.collect()
    loop, sharded = net.loop, net.sharded
    start = time.perf_counter()
    with traced if traced is not None else contextlib.nullcontext():
        while oracle.outstanding and loop.now < net.budget_s:
            loop.run(until=loop.now + STEP_S)
            sharded.drain()
            if traced is not None:
                sample_depths(net, samples)
    timed_span = (start, time.perf_counter())

    counters = _counters(net)
    counters["copies"] = datapath.copies - copies0
    counters["bytes_touched"] = datapath.bytes_copied + datapath.bytes_read - bytes0
    leaks = _teardown(net)
    if leaks:
        oracle.errors.append(f"rx-pool leaks after shutdown: {leaks}")
    if oracle.errors:
        shown = "; ".join(oracle.errors[:5])
        raise OracleFailure(
            f"{workload.name}: {len(oracle.errors)} oracle failure(s): {shown}"
        )

    latencies = oracle.latencies()
    delivered = len(latencies)
    first_due = min(adu.due for adu in inputs.adus)
    last_delivery = max(oracle.arrivals.values()) if delivered else first_due
    span = last_delivery - first_due
    sim = {
        "sim_goodput_mbps": (
            oracle.payload_bytes * 8 / span / 1e6 if span > 0 else 0.0
        ),
        "adu_latency_p50_ms": percentile(latencies, 50) * 1e3,
        "adu_latency_p99_ms": percentile(latencies, 99) * 1e3,
        "wire_amplification": counters["data_packets"] / inputs.fragments,
        "delivered_fraction": delivered / len(inputs.adus),
        "sim_end_s": loop.now,
    }
    return PassResult(
        setup_span=setup_span,
        timed_span=timed_span,
        offered=len(inputs.adus),
        delivered=delivered,
        sim=sim,
        counters=counters,
        depth_p99={
            f"{name}_p99": float(percentile(values, 99))
            for name, values in samples.items()
        },
    )
