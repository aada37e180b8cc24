"""Topology builders for the common experiment setups."""

from __future__ import annotations

from dataclasses import dataclass
from typing import TYPE_CHECKING, Sequence

from repro.net.host import Host
from repro.net.link import Link
from repro.net.packet import Packet
from repro.net.switch import StoreAndForwardSwitch
from repro.sim.eventloop import EventLoop
from repro.sim.rng import RngStreams
from repro.sim.trace import Tracer

if TYPE_CHECKING:  # pragma: no cover - typing only
    from repro.net.shard import RebalancePolicy, ShardedHost
    from repro.transport.pacing import TrainPacer


@dataclass
class DuplexPath:
    """Two hosts and the pair of links joining them."""

    loop: EventLoop
    a: Host
    b: Host
    a_to_b: Link
    b_to_a: Link
    tracer: Tracer
    pacer: "TrainPacer | None" = None


def two_hosts(
    seed: int = 0,
    bandwidth_bps: float = 10e6,
    propagation_delay: float = 0.01,
    loss_rate: float = 0.0,
    reorder_rate: float = 0.0,
    duplicate_rate: float = 0.0,
    corrupt_rate: float = 0.0,
    corrupt_span: tuple[int, int] | None = None,
    reverse_loss_rate: float | None = None,
    max_train: int = 1,
    train_window: float = 0.0,
    pacing: bool = False,
    rate: float = 125_000.0,
    target_train: int = 8,
    trace: bool = False,
) -> DuplexPath:
    """A duplex path: hosts ``a`` and ``b`` joined by symmetric links.

    The reverse (b→a) direction, which usually carries only ACKs, gets
    ``reverse_loss_rate`` when given, else the forward loss rate.
    ``max_train`` / ``train_window`` put the *forward* link in packet-
    train mode (the reverse direction carries sparse ACKs, which gain
    nothing from aggregation).  ``corrupt_span`` pins the forward
    link's bit flips to a payload byte range — the deterministic
    placement selective-integrity experiments use to land damage
    inside (or outside) a policy's covered spans.

    ``pacing=True`` builds a :class:`~repro.transport.pacing.TrainPacer`
    at ``rate`` bytes/s shaping trains of ``target_train`` packets,
    returned as ``path.pacer`` (pass it to an ``AlfSender(pacing=...)``
    on host ``a``) — pacing scenarios become one-liners in tests.
    """
    loop = EventLoop()
    rng = RngStreams(seed)
    tracer = Tracer(enabled=trace)
    a = Host(loop, "a", tracer=tracer)
    b = Host(loop, "b", tracer=tracer)
    a_to_b = Link(
        loop,
        rng.stream("link-a-b"),
        bandwidth_bps=bandwidth_bps,
        propagation_delay=propagation_delay,
        loss_rate=loss_rate,
        reorder_rate=reorder_rate,
        duplicate_rate=duplicate_rate,
        corrupt_rate=corrupt_rate,
        corrupt_span=corrupt_span,
        max_train=max_train,
        train_window=train_window,
        name="a->b",
        tracer=tracer,
    )
    b_to_a = Link(
        loop,
        rng.stream("link-b-a"),
        bandwidth_bps=bandwidth_bps,
        propagation_delay=propagation_delay,
        loss_rate=loss_rate if reverse_loss_rate is None else reverse_loss_rate,
        name="b->a",
        tracer=tracer,
    )
    a_to_b.connect(b.receive)
    b_to_a.connect(a.receive)
    a.add_link("b", a_to_b)
    b.add_link("a", b_to_a)
    pacer = None
    if pacing:
        from repro.transport.pacing import TrainPacer

        pacer = TrainPacer(
            loop,
            rate_bytes_per_s=rate,
            target_train=target_train,
            tracer=tracer,
            name="pacer-a",
        )
    return DuplexPath(loop, a, b, a_to_b, b_to_a, tracer, pacer=pacer)


@dataclass
class ShardedIngress:
    """A sender feeding a sharded receiver over a train-mode link."""

    loop: EventLoop
    a: Host
    b: Host
    a_to_b: Link
    b_to_a: Link
    sharded: "ShardedHost"
    tracer: Tracer


def sharded_ingress(
    seed: int = 0,
    shards: int = 4,
    steer: bool = True,
    bandwidth_bps: float = 1e9,
    propagation_delay: float = 0.001,
    loss_rate: float = 0.0,
    reorder_rate: float = 0.0,
    duplicate_rate: float = 0.0,
    corrupt_rate: float = 0.0,
    max_train: int = 16,
    train_window: float = 200e-6,
    buckets_per_shard: int = 64,
    rebalance: "RebalancePolicy | None" = None,
    pool_buffers: int = 0,
    max_rows: int = 256,
    max_delay: float = 0.0,
    adaptive: bool = False,
    counters=None,
    trace: bool = False,
) -> ShardedIngress:
    """Host ``a`` sending into a :class:`ShardedHost` front end ``b``.

    The forward link runs in packet-train mode and — with ``steer=True``
    (the default) — consults the sharded host's exported steering table
    while coalescing, so single-shard trains take the zero-hop path
    straight onto their shard's ring.  ``steer=False`` wires the same
    topology through the front-end demux hop, which is the baseline the
    zero-hop bench compares against.  The reverse link carries ACKs.
    """
    from repro.net.shard import ShardedHost

    loop = EventLoop()
    rng = RngStreams(seed)
    tracer = Tracer(enabled=trace)
    a = Host(loop, "a", tracer=tracer)
    b = Host(loop, "b", tracer=tracer)
    a_to_b = Link(
        loop,
        rng.stream("link-a-b"),
        bandwidth_bps=bandwidth_bps,
        propagation_delay=propagation_delay,
        loss_rate=loss_rate,
        reorder_rate=reorder_rate,
        duplicate_rate=duplicate_rate,
        corrupt_rate=corrupt_rate,
        max_train=max_train,
        train_window=train_window,
        name="a->b",
        tracer=tracer,
    )
    b_to_a = Link(
        loop,
        rng.stream("link-b-a"),
        bandwidth_bps=bandwidth_bps,
        propagation_delay=propagation_delay,
        name="b->a",
        tracer=tracer,
    )
    sharded = ShardedHost(
        b,
        shards,
        rng=rng,
        pool_buffers=pool_buffers,
        max_rows=max_rows,
        max_delay=max_delay,
        adaptive=adaptive,
        buckets_per_shard=buckets_per_shard,
        rebalance=rebalance,
        counters=counters,
        tracer=tracer,
    )
    sharded.attach_link(a_to_b, steer=steer)
    b_to_a.connect(a.receive)
    a.add_link("b", a_to_b)
    b.add_link("a", b_to_a)
    return ShardedIngress(loop, a, b, a_to_b, b_to_a, sharded, tracer)


@dataclass
class SwitchedPath:
    """Hosts joined through a store-and-forward switch."""

    loop: EventLoop
    hosts: dict[str, Host]
    switch: StoreAndForwardSwitch
    tracer: Tracer
    uplinks: dict[str, Link]
    downlinks: dict[str, Link]


def hosts_via_switch(
    names: list[str],
    seed: int = 0,
    bandwidth_bps: float = 10e6,
    propagation_delay: float = 0.005,
    queue_capacity: int = 64,
    preserve_trains: bool = False,
    train_fairness_cap: int = 32,
    max_train: int = 1,
    train_window: float = 0.0,
    trace: bool = False,
) -> SwitchedPath:
    """Star topology: every host connects to one switch.

    Each host's traffic to any other host goes through the switch, whose
    finite queues provide congestion loss.  ``preserve_trains`` makes
    the switch queue shaped trains as forwarding units (bounded by
    ``train_fairness_cap``); ``max_train``/``train_window`` put the
    *downlinks* in packet-train mode so preserved trains reach each
    host as burst upcalls.
    """
    loop = EventLoop()
    rng = RngStreams(seed)
    tracer = Tracer(enabled=trace)
    switch = StoreAndForwardSwitch(
        loop,
        queue_capacity=queue_capacity,
        preserve_trains=preserve_trains,
        train_fairness_cap=train_fairness_cap,
        tracer=tracer,
    )
    hosts: dict[str, Host] = {}
    uplinks: dict[str, Link] = {}
    downlinks: dict[str, Link] = {}
    for name in names:
        host = Host(loop, name, tracer=tracer)
        uplink = Link(
            loop,
            rng.stream(f"up-{name}"),
            bandwidth_bps=bandwidth_bps,
            propagation_delay=propagation_delay,
            name=f"{name}->sw",
            tracer=tracer,
        )
        downlink = Link(
            loop,
            rng.stream(f"down-{name}"),
            bandwidth_bps=bandwidth_bps,
            propagation_delay=propagation_delay,
            max_train=max_train,
            train_window=train_window,
            name=f"sw->{name}",
            tracer=tracer,
        )
        uplink.connect(switch.receive)
        downlink.connect(host.receive)
        switch.attach(name, downlink)
        switch.add_route(name, name)
        for other in names:
            if other != name:
                host.add_link(other, uplink)
        hosts[name] = host
        uplinks[name] = uplink
        downlinks[name] = downlink
    return SwitchedPath(loop, hosts, switch, tracer, uplinks, downlinks)


@dataclass
class DualPath:
    """Two hosts joined by two disjoint forward paths of unequal delay.

    Forward packets alternate between the paths (per-packet spraying),
    so *real* reordering arises from path diversity rather than a
    *modelled* jitter coin — packets sent close together down the slow
    and fast path swap order in flight.
    """

    loop: EventLoop
    a: Host
    b: Host
    fast: Link
    slow: Link
    reverse: Link
    tracer: Tracer


class _Sprayer:
    """Round-robin packet spraying over two links (a tiny host shim)."""

    def __init__(self, fast: Link, slow: Link):
        self.fast = fast
        self.slow = slow
        self._toggle = False
        self.bandwidth_bps = fast.bandwidth_bps  # for switch pacing APIs

    def send(self, packets: Packet | Sequence[Packet]) -> None:
        """Spray a packet, or each packet of a run in turn."""
        for packet in (packets,) if isinstance(packets, Packet) else packets:
            link = self.slow if self._toggle else self.fast
            self._toggle = not self._toggle
            link.send(packet)


def two_hosts_dual_path(
    seed: int = 0,
    bandwidth_bps: float = 10e6,
    fast_delay: float = 0.005,
    slow_delay: float = 0.02,
    loss_rate: float = 0.0,
    trace: bool = False,
) -> DualPath:
    """Hosts ``a`` and ``b`` with per-packet spraying over unequal paths.

    The delay gap (default 15 ms) guarantees genuine reordering whenever
    consecutive packets go down different paths closer together than the
    gap — the "mildly out of order" case of §5, produced mechanically.
    """
    loop = EventLoop()
    rng = RngStreams(seed)
    tracer = Tracer(enabled=trace)
    a = Host(loop, "a", tracer=tracer)
    b = Host(loop, "b", tracer=tracer)
    fast = Link(
        loop, rng.stream("fast"), bandwidth_bps=bandwidth_bps,
        propagation_delay=fast_delay, loss_rate=loss_rate,
        name="a->b fast", tracer=tracer,
    )
    slow = Link(
        loop, rng.stream("slow"), bandwidth_bps=bandwidth_bps,
        propagation_delay=slow_delay, loss_rate=loss_rate,
        name="a->b slow", tracer=tracer,
    )
    reverse = Link(
        loop, rng.stream("reverse"), bandwidth_bps=bandwidth_bps,
        propagation_delay=fast_delay, name="b->a", tracer=tracer,
    )
    fast.connect(b.receive)
    slow.connect(b.receive)
    reverse.connect(a.receive)
    sprayer = _Sprayer(fast, slow)
    a.add_link("b", sprayer)  # type: ignore[arg-type]  # duck-typed .send
    b.add_link("a", reverse)
    return DualPath(loop, a, b, fast, slow, reverse, tracer)
