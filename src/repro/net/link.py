"""Point-to-point links with the classic packet-network failure modes.

"Networks, especially packet switched networks, have specific failure
modes.  Data may be lost due to congestion overflow, and it may be
reordered or duplicated as a part of processing" (§3).  A :class:`Link`
models all three, plus bandwidth serialization and propagation delay.

A link is unidirectional; build two for a full-duplex path (the topology
helpers do).  Delivery is a callback, so links compose with hosts,
switches and the ATM layer alike.

**Packet trains** (§4 burst amortization): with ``max_train > 1`` the
link aggregates packets whose arrivals fall inside ``train_window``
seconds of the train's first arrival into one *train*, delivered as a
single ``receive_burst`` upcall instead of one event per packet.  The
failure processes stay strictly per-packet — loss, corruption, reorder
and duplication are drawn in the exact same RNG order as
packet-at-a-time delivery, so a seeded run delivers byte-identical data
in either mode.  Reordered packets and duplicates leave the train and
ride their own delayed delivery, preserving the packet-mode timing of
both failure modes.
"""

from __future__ import annotations

import random
from dataclasses import dataclass, field
from operator import itemgetter
from typing import Callable, Sequence

from repro.buffers.chain import BufferChain
from repro.errors import NetworkError
from repro.net.packet import Packet
from repro.sim.eventloop import Event, EventLoop
from repro.sim.trace import DISABLED_TRACER, Tracer


@dataclass
class LinkStats:
    """Counters a link maintains."""

    sent: int = 0
    delivered: int = 0
    lost: int = 0
    duplicated: int = 0
    reordered: int = 0
    corrupted: int = 0
    bytes_sent: int = 0
    bytes_delivered: int = 0
    trains: int = 0
    train_packets: int = 0
    steered_trains: int = 0
    steered_packets: int = 0
    stale_steer_trains: int = 0


@dataclass
class _OpenTrain:
    """A train still accepting packets (closes on window or max_train).

    The ``steer_*`` fields are the link-level shard steering state: the
    open run's flow key and its resolved target, the train's single
    destination shard (−1 once runs disagree or a run is unclaimed),
    the table epoch the first placement was made under (staleness
    check at delivery), and the per-run ``[bucket, shard, n]`` arrival
    charges settled into the table only if the train is steered (a
    fallback train is re-walked — and re-charged — by the front end).
    ``wire_bytes`` sums the members' wire sizes as they board.
    """

    packets: list[Packet] = field(default_factory=list)
    wire_bytes: int = 0
    close_event: Event | None = None
    close_time: float = 0.0
    last_arrival: float = 0.0
    tag: object | None = None
    steer_proto: str | None = None
    steer_flow: int | None = None
    steer_epoch: int = -1
    steer_first_epoch: int = -1
    steer_shard: int | None = None
    steer_charges: list[list[int]] = field(default_factory=list)


class Link:
    """A unidirectional link with bandwidth, delay and failure processes.

    Args:
        loop: the event loop driving the simulation.
        rng: random stream for the failure processes, drawn from only
            while one of their rates is non-zero.
        bandwidth_bps: serialization rate in bits per second.
        propagation_delay: seconds of flight time.
        loss_rate: per-packet independent loss probability.
        reorder_rate: probability a packet is held back long enough to
            arrive after its successors (extra jitter delay).
        duplicate_rate: probability a packet is delivered twice.
        corrupt_rate: probability one payload byte is bit-flipped in
            flight — delivered, not dropped, so end-to-end error
            detection (not the network) must catch it.  A corrupted
            packet carries a ``"phy_corrupt"`` header hint naming the
            damaged ``(lo, hi)`` byte range — the PHY-layer damage
            report selective-integrity receivers use to flag tolerant
            deliveries.
        corrupt_span: optional ``(lo, hi)`` payload byte range the flip
            is placed in (deterministic placement for experiments that
            must hit — or miss — a checksum policy's covered spans).
            Clamped per packet to the payload length; ``None`` (default)
            draws the position over the whole payload.  The draw
            count and order are identical either way, so a seeded run's
            other failure processes are unperturbed.
        reorder_extra_delay: how long a reordered packet is held, as a
            multiple of the propagation delay.
        mtu: maximum payload a packet may carry on this link.
        max_train: packets per delivered train.  1 (default) keeps
            packet-at-a-time delivery; > 1 enables train mode — packets
            aggregate until the train is full or the window closes.
        train_window: seconds after a train's first arrival during
            which later arrivals may join it.  A full train (or one
            whose window closed) is delivered as one ``receive_burst``.
        name: label for traces.
    """

    def __init__(
        self,
        loop: EventLoop,
        rng: random.Random,
        bandwidth_bps: float = 10e6,
        propagation_delay: float = 0.01,
        loss_rate: float = 0.0,
        reorder_rate: float = 0.0,
        duplicate_rate: float = 0.0,
        corrupt_rate: float = 0.0,
        corrupt_span: tuple[int, int] | None = None,
        reorder_extra_delay: float = 2.0,
        mtu: int | None = None,
        max_train: int = 1,
        train_window: float = 0.0,
        name: str = "link",
        tracer: Tracer | None = None,
    ):
        if bandwidth_bps <= 0:
            raise NetworkError("bandwidth_bps must be positive")
        if propagation_delay < 0:
            raise NetworkError("propagation_delay must be >= 0")
        if max_train < 1:
            raise NetworkError(f"max_train must be >= 1, got {max_train}")
        if train_window < 0:
            raise NetworkError(f"train_window must be >= 0, got {train_window}")
        for rate_name, rate in (
            ("loss_rate", loss_rate),
            ("reorder_rate", reorder_rate),
            ("duplicate_rate", duplicate_rate),
            ("corrupt_rate", corrupt_rate),
        ):
            if not 0.0 <= rate <= 1.0:
                raise NetworkError(f"{rate_name} must be in [0, 1], got {rate}")
        if corrupt_span is not None:
            lo, hi = corrupt_span
            if not 0 <= lo < hi:
                raise NetworkError(
                    f"corrupt_span must satisfy 0 <= lo < hi, got {corrupt_span}"
                )
            corrupt_span = (int(lo), int(hi))
        self.loop = loop
        self.rng = rng
        self.bandwidth_bps = bandwidth_bps
        self.propagation_delay = propagation_delay
        self.loss_rate = loss_rate
        self.reorder_rate = reorder_rate
        self.duplicate_rate = duplicate_rate
        self.corrupt_rate = corrupt_rate
        self.corrupt_span = corrupt_span
        self.reorder_extra_delay = reorder_extra_delay
        self.mtu = mtu
        self.max_train = max_train
        self.train_window = train_window
        self.name = name
        self.tracer = tracer or DISABLED_TRACER
        self.stats = LinkStats()
        self._receiver: Callable[[Packet], None] | None = None
        self._burst_receiver: Callable[[list[Packet]], None] | None = None
        self._steering = None
        self._steered_receiver: Callable[[int, list[Packet]], None] | None = None
        self._placed_receiver: Callable[[list[Packet], list[list[int]]], None] | None = None
        self._busy_until = 0.0
        self._open_train: _OpenTrain | None = None

    def connect(
        self,
        receiver: Callable[[Packet], None],
        burst_receiver: Callable[[list[Packet]], None] | None = None,
    ) -> None:
        """Attach the delivery callback (a host, switch or AAL).

        ``burst_receiver`` is the train entry point (one call per
        delivered train).  When not given and ``receiver`` is a bound
        ``receive`` method whose owner exposes ``receive_burst`` — a
        host, a sharded front end, a switch — that burst entry is used
        automatically, so the topology helpers need no changes.  With
        neither, trains fall back to per-packet upcalls (aggregation
        still amortizes the delivery events).
        """
        self._receiver = receiver
        if burst_receiver is None:
            owner = getattr(receiver, "__self__", None)
            if (
                owner is not None
                and getattr(receiver, "__name__", "") == "receive"
            ):
                burst_receiver = getattr(owner, "receive_burst", None)
        self._burst_receiver = burst_receiver

    def set_steering(
        self,
        table,
        steered_receiver: Callable[[int, list[Packet]], None],
        placed_receiver: Callable[[list[Packet], list[list[int]]], None],
    ) -> None:
        """Learn a shard steering table (zero-hop ingress, §4).

        ``table`` is a :class:`~repro.net.shard.SteeringTable` the
        receiving sharded host exports; the link consults it while
        coalescing trains, one lookup per flow-run.  A train whose runs
        all place on one shard — and whose placements are still current
        at delivery (no steering epoch bump since the first board) — is
        handed to ``steered_receiver(shard_index, packets)`` instead of
        the burst receiver: the front-end demux hop disappears for the
        single-shard common case.  Mixed, stale or unclaimed trains
        keep the ordinary burst path, except that a mixed train whose
        placements are still current and cover every packet goes to
        ``placed_receiver(packets, placements)`` (one ``[bucket, shard,
        n]`` per flow-run), so the front end need not hash the train
        again.
        """
        self._steering = table
        self._steered_receiver = steered_receiver
        self._placed_receiver = placed_receiver

    def send(self, packets: Packet | Sequence[Packet]) -> None:
        """Transmit a packet, or a run of packets, applying serialization,
        delay and failures.

        A run is its packets: each one in turn is MTU-checked, sized
        once (the size feeds both the byte counter and the serialization
        time), serialized behind its predecessor, put through the loss,
        corruption, reorder and duplication draws in that order, and
        boards the open train — so a seeded run draws, times and
        delivers exactly as the same packets sent one call at a time.
        Senders hand a whole ADU over in one call (§4: pay per burst,
        not per packet); a single packet is a run of one.  An oversize
        packet mid-run raises after its prefix went out, leaving the
        link as sending that prefix alone would.
        """
        if self._receiver is None:
            raise NetworkError(f"{self.name}: no receiver connected")
        if isinstance(packets, Packet):
            packets = (packets,)
        # Hot loop: a whole ADU's packets pass here, so everything read
        # per packet is a local, the counters and the busy clock are
        # written back once (also when a packet raises), and a packet
        # joining the open train — the common case — boards inline.
        loop = self.loop
        now = loop.now
        mtu = self.mtu
        bandwidth = self.bandwidth_bps
        propagation = self.propagation_delay
        random = self.rng.random
        loss_rate = self.loss_rate
        corrupt = self.corrupt_rate > 0.0
        reorder_rate = self.reorder_rate
        duplicate_rate = self.duplicate_rate
        # A lossless link draws nothing: no failure process can fire,
        # and nothing else reads its stream.
        draws = bool(loss_rate or corrupt or reorder_rate or duplicate_rate)
        max_train = self.max_train
        trains = max_train > 1
        table = self._steering
        busy = self._busy_until
        sent = sent_bytes = 0
        try:
            for packet in packets:
                payload = packet.payload
                length = len(payload)
                if mtu is not None and length > mtu:
                    raise NetworkError(
                        f"{self.name}: payload {length} exceeds MTU {mtu}"
                    )
                size = packet.header_overhead + length
                sent += 1
                sent_bytes += size

                # Serialization: the link is busy until the last bit is out.
                serialization = size * 8 / bandwidth
                start = now if now >= busy else busy
                busy = start + serialization
                arrival_delay = (start - now) + serialization + propagation

                if draws and random() < loss_rate:
                    self.stats.lost += 1
                    # A lost frame's receive buffers go back to the pool
                    # now — nothing downstream will ever release them.
                    if isinstance(payload, BufferChain):
                        payload.release()
                    self.tracer.emit(now, "link", "lost", link=self.name,
                                     packet_id=packet.packet_id)
                    continue

                # The corruption draw happens only when the process is
                # enabled, so enabling other failure modes never perturbs
                # the seeded sequences of existing experiments.
                if corrupt and length and random() < self.corrupt_rate:
                    self._corrupt(packet)

                reordered = draws and random() < reorder_rate
                if reordered:
                    self.stats.reordered += 1
                    arrival_delay += propagation * self.reorder_extra_delay
                    self.tracer.emit(now, "link", "reordered", link=self.name,
                                     packet_id=packet.packet_id)

                if trains and not reordered:
                    # A reordered packet left its train by definition;
                    # everyone else boards the open train or opens the
                    # next one.
                    arrival = now + arrival_delay
                    tag = packet.header.get("train")
                    train = self._open_train
                    if (
                        train is not None
                        and arrival <= train.close_time
                        and tag == train.tag
                    ):
                        train.packets.append(packet)
                        train.wire_bytes += size
                        if table is not None:
                            # Steering: a packet continuing the open run
                            # costs three comparisons and an increment —
                            # no hashing, no call.
                            if (
                                packet.flow_id == train.steer_flow
                                and packet.protocol == train.steer_proto
                                and table.epoch == train.steer_epoch
                            ):
                                charges = train.steer_charges
                                if charges:
                                    charges[-1][2] += 1
                            else:
                                self._place_run(train, packet)
                        if arrival > train.last_arrival:
                            train.last_arrival = arrival
                        if len(train.packets) >= max_train:
                            # Full: leave no later than the last member's
                            # arrival.
                            train.close_event.cancel()
                            self._open_train = None
                            loop.schedule_at(
                                train.last_arrival, self._deliver_train, train
                            )
                    else:
                        self._open_next_train(packet, arrival, size, tag)
                else:
                    loop.schedule(arrival_delay, self._deliver, packet, size)

                if draws and random() < duplicate_rate:
                    self.stats.duplicated += 1
                    duplicate = packet.copy()
                    self.tracer.emit(now, "link", "duplicated", link=self.name,
                                     packet_id=packet.packet_id)
                    # Duplicates ride alone even in train mode: they arrive
                    # a propagation delay late, past the train they came
                    # from.
                    loop.schedule(
                        arrival_delay + propagation, self._deliver, duplicate, size
                    )
        finally:
            self._busy_until = busy
            self.stats.sent += sent
            self.stats.bytes_sent += sent_bytes

    def _corrupt(self, packet: Packet) -> None:
        """Flip one payload bit in flight (the corruption draw hit)."""
        self.stats.corrupted += 1
        # Corruption is the one event that must materialize a chain:
        # the flipped bit lives in a private copy, never in shared
        # (possibly pooled) buffers other references still read.
        if isinstance(packet.payload, BufferChain):
            mutated = bytearray(packet.payload.linearize())
            packet.payload.release()
        else:
            mutated = bytearray(packet.payload)
        if self.corrupt_span is not None:
            lo = min(self.corrupt_span[0], len(mutated) - 1)
            hi = min(self.corrupt_span[1], len(mutated))
            position = self.rng.randrange(lo, max(hi, lo + 1))
        else:
            position = self.rng.randrange(len(mutated))
        mutated[position] ^= 1 << self.rng.randrange(8)
        packet.payload = bytes(mutated)
        # The PHY's damage report: receivers running a tolerant
        # integrity policy use it to flag (rather than discard)
        # ADUs whose damage fell outside the covered spans.  The
        # header is copied so duplicates/retransmissions sharing
        # the original dict are unaffected.
        packet.header = dict(packet.header)
        packet.header["phy_corrupt"] = (position, position + 1)
        self.tracer.emit(self.loop.now, "link", "corrupted",
                         link=self.name, packet_id=packet.packet_id,
                         position=position)

    # ------------------------------------------------------------------
    # Train aggregation

    def _open_next_train(
        self, packet: Packet, arrival: float, size: int, tag: object
    ) -> None:
        """Open a new train with one surviving packet of ``size`` wire
        bytes, arriving at ``arrival``, that cannot join the open train.

        If the open train is still inside its window, the packet carries
        a different ``tag``: a shaped-train boundary, so the open train
        closes early — pacer-drawn boundaries survive the link's
        aggregation window instead of being glued to the next train's
        head.  A train whose window has passed keeps its scheduled close
        (its event owns the packet list).
        """
        train = self._open_train
        if train is not None and arrival <= train.close_time:
            train.close_event.cancel()
            self._open_train = None
            self.loop.schedule_at(
                train.last_arrival, self._deliver_train, train
            )
        train = _OpenTrain(
            packets=[packet],
            wire_bytes=size,
            close_time=arrival + self.train_window,
            last_arrival=arrival,
            tag=tag,
        )
        if self._steering is not None:
            self._place_run(train, packet)
        train.close_event = self.loop.schedule_at(
            train.close_time, self._close_train, train
        )
        self._open_train = train

    def _place_run(self, train: _OpenTrain, packet: Packet) -> None:
        """Resolve the shard of a boarding packet that opens a new run:
        one steering-table lookup per run.  (A packet continuing the
        open run is counted inline in :meth:`send`.)"""
        table = self._steering
        train.steer_proto = packet.protocol
        train.steer_flow = packet.flow_id
        train.steer_epoch = epoch = table.epoch
        if train.steer_first_epoch < 0:
            train.steer_first_epoch = epoch
        placed = table.steer(packet.protocol, packet.flow_id)
        if placed is None:
            # Unclaimed protocol: the whole train takes the slow path.
            train.steer_shard = -1
            return
        shard, bucket = placed
        train.steer_charges.append([bucket, shard, 1])
        if train.steer_shard is None:
            train.steer_shard = shard
        elif train.steer_shard != shard:
            train.steer_shard = -1

    def _close_train(self, train: _OpenTrain) -> None:
        """Window expiry: the train leaves with whatever it aggregated."""
        if self._open_train is train:
            self._open_train = None
        self._deliver_train(train)

    def _deliver_train(self, train: _OpenTrain) -> None:
        """Hand one train to the receiver as a single burst upcall."""
        # The close event's args hold the train: drop the reference so
        # the train and its packets are freed with the burst, not by
        # the cyclic collector.
        train.close_event = None
        packets = train.packets
        self.stats.trains += 1
        self.stats.train_packets += len(packets)
        self.stats.delivered += len(packets)
        self.stats.bytes_delivered += train.wire_bytes
        if self.tracer.enabled:
            self.tracer.emit(self.loop.now, "link", "train", link=self.name,
                             packets=len(packets))
        table = self._steering
        if table is not None and self._steered_receiver is not None:
            current = train.steer_first_epoch == table.epoch
            if train.steer_shard is not None and train.steer_shard >= 0:
                if current:
                    # Zero-hop delivery: every run placed on one shard
                    # and no migration committed since the first
                    # placement.
                    table.apply_charges(train.steer_charges)
                    self.stats.steered_trains += 1
                    self.stats.steered_packets += len(packets)
                    self._steered_receiver(train.steer_shard, packets)
                    return
                # A bucket migrated while this train was open: the
                # boards' placements can't be trusted, so the front end
                # re-demuxes (and re-charges) the train under the fresh
                # table.
                self.stats.stale_steer_trains += 1
            elif (
                current
                and sum(map(itemgetter(2), train.steer_charges)) == len(packets)
            ):
                # A mixed-shard train whose placements are all current
                # and cover every packet (no unclaimed protocol): the
                # front end walks it with these, hashing nothing again.
                self._placed_receiver(packets, train.steer_charges)
                return
        if self._burst_receiver is not None:
            self._burst_receiver(packets)
            return
        assert self._receiver is not None  # checked in send()
        for packet in packets:
            self._receiver(packet)

    def _deliver(self, packet: Packet, size: int) -> None:
        """Hand one packet of ``size`` wire bytes to the receiver."""
        self.stats.delivered += 1
        self.stats.bytes_delivered += size
        assert self._receiver is not None  # checked in send()
        self._receiver(packet)
