"""Rate-paced trains vs. the blast: goodput, boundaries, backpressure.

Three measurements, one argument: §3's rate-based flow control ("the
rate at which the flow control window opens is the fundamental control")
carried through the egress path as deliberate packet trains.

**Goodput under cross-traffic.**  A 3-host star through one
store-and-forward switch (train-preserving queues), all links 10 Mb/s.
Host ``a`` offers 400 primary ADUs to a 4-shard host ``b`` while host
``c`` offers 2:1 cross-traffic into the same contended downlink.  Two
engineerings of the identical offered load:

* **unpaced** — the PR-era sender hands every fragment to the link at
  once; the blast overflows the switch queue, the loss is repaired by
  RTO-driven retransmission storms that re-overflow it.
* **paced** — a :class:`~repro.transport.pacing.TrainPacer` releases
  8-packet trains at a configured rate below the residual capacity;
  trains traverse the switch as units and almost nothing drops.

Delivery is asserted byte-identical and exactly-once in both runs.
Headline gates: paced goodput ≥ 1.5× unpaced at equal offered load,
with *fewer* switch queue drops.

**Train boundaries.**  The same paced run, with and without the
cross-traffic.  The switch's train-unit queues plus the downlink's
tag-boundary close keep each shaped train contiguous, so the sharded
receiver's one-pass demux still probes the steering table about once
per train.  Gate: contended placement probes per delivered ADU within 1.25×
the uncontended level.

**Backpressure convergence.**  A direct path to a slow receiver (an
adaptive :class:`~repro.transport.drain.SharedDrainEngine` whose
epochs read sustained backlog as pressure).  The receiver piggybacks
its quantized pressure on ACKs (``header["dp"]``); the pacer's AIMD
loop must back the rate off within a bounded number of RTTs, and the
transfer must finish with **zero** retransmissions — rate adaptation,
not loss recovery.  Emits a machine-readable JSON record
(``PACING_JSON`` line and ``benchmarks/out/bench_pacing.json``) for
the CI gate and artifact.
"""

from __future__ import annotations

import json
from pathlib import Path

import pytest

from repro.core.adu import Adu
from repro.machine.accounting import ShardCounters
from repro.net.packet import Packet
from repro.net.shard import ShardedHost, shard_index
from repro.net.topology import hosts_via_switch, two_hosts
from repro.sim.rng import RngStreams
from repro.transport.alf import AlfReceiver, AlfSender, RecoveryMode
from repro.transport.drain import SharedDrainEngine
from repro.transport.pacing import TrainPacer

# Contended-star scenario.  10 Mb/s links move 1.25e6 wire bytes/s;
# cross-traffic offers 800 KB/s and the paced primary 400 KB/s (2:1),
# filling ~96% of the contended downlink — the unpaced primary offers
# the same ADUs as one uplink-speed blast instead, and its RTO sits
# below the congested queueing delay, so the blast's losses amplify
# into the §5 retransmission storm the pacer is built to avoid.
LINK_BW = 10e6
PROP = 0.005
PAYLOAD = 960           # + 40 header = 1000 wire bytes
MTU = 1024              # single-fragment ADUs
N_ADUS = 400
TARGET_TRAIN = 8
PACED_RATE = 400_000.0
CROSS_RATE = 800_000.0
CROSS_BURST = 4
QUEUE_CAP = 32
N_SHARDS = 4
RTO = 0.10
MAX_ATTEMPTS = 200
STEP = 0.01             # drain cadence of the settle loop (sim s)
LIMIT = 30.0            # sim-time budget per run

GOODPUT_GATE = 1.5
PROBE_GATE = 1.25

# Backpressure scenario.  The start rate well exceeds what the slow
# receiver absorbs; ramp_rows sits above target_train so a lone shaped
# train reads as nominal, only genuine epoch-overlap as pressure.
CONV_RATE0 = 2_000_000.0
CONV_ADUS = 200
CONV_EPOCH = 0.01
CONV_RAMP_ROWS = 32
CONV_RTT = 2 * PROP + 2 * (PAYLOAD + 40) * 8 / LINK_BW + CONV_EPOCH
CONV_RTT_GATE = 20      # first backoff within this many RTTs
CONV_RATE_GATE = 0.5    # final rate at or below this fraction of start

OUT_DIR = Path(__file__).resolve().parent / "out"


def payload_for(seq: int) -> bytes:
    return bytes((seq * 37 + offset) & 0xFF for offset in range(PAYLOAD))


def run_contended(paced: bool, cross: bool) -> dict[str, object]:
    """One full primary transfer through the contended switch."""
    net = hosts_via_switch(
        ["a", "b", "c"],
        seed=11,
        bandwidth_bps=LINK_BW,
        propagation_delay=PROP,
        queue_capacity=QUEUE_CAP,
        preserve_trains=True,
        train_fairness_cap=TARGET_TRAIN,
        max_train=TARGET_TRAIN,
        train_window=1e-3,
    )
    loop = net.loop
    demux = ShardCounters()
    sharded = ShardedHost(
        net.hosts["b"], N_SHARDS, rng=RngStreams(5), counters=demux
    )
    sharded.attach_link(net.downlinks["b"])

    delivered: list[bytes] = []
    flow_id = 1
    shard = sharded.shards[shard_index("alf", flow_id, N_SHARDS)]
    AlfReceiver(
        shard.loop,
        shard.host,
        "a",
        flow_id,
        deliver=lambda adu: delivered.append(bytes(adu.payload)),
        ack_interval=0,
        drain_engine=shard.engine,
    )

    pacer = (
        TrainPacer(
            loop,
            rate_bytes_per_s=PACED_RATE,
            target_train=TARGET_TRAIN,
            mtu=MTU,
            # The configured rate IS the ceiling (§3: computed out-of-
            # band); ACK feedback may only lower it.  Without the cap
            # the idle-pressure raises would creep past the residual
            # capacity mid-run.
            max_rate_bytes_per_s=PACED_RATE,
            name="pacer-a",
        )
        if paced
        else None
    )
    done_at: list[float] = []
    sender = AlfSender(
        loop,
        net.hosts["a"],
        "b",
        flow_id,
        mtu=MTU,
        recovery=RecoveryMode.TRANSPORT_BUFFER,
        rto=RTO,
        max_attempts=MAX_ATTEMPTS,
        pacing=pacer,
        on_complete=lambda: done_at.append(loop.now),
    )

    if cross:
        # Constant-rate competing load: CROSS_BURST wire-size packets
        # per tick, scheduled across the whole sim budget (the settle
        # loop exits as soon as the primary transfer completes).
        tick = CROSS_BURST * (PAYLOAD + 40) / CROSS_RATE
        host_c = net.hosts["c"]

        def cross_burst() -> None:
            for _ in range(CROSS_BURST):
                host_c.send(
                    Packet(
                        src="c",
                        dst="b",
                        protocol="cross",
                        flow_id=9,
                        header={},
                        payload=bytes(PAYLOAD),
                    )
                )

        n_ticks = int(LIMIT / tick)
        for k in range(n_ticks):
            loop.schedule_at(k * tick, cross_burst)

    for seq in range(N_ADUS):
        sender.send_adu(Adu(seq, payload_for(seq), {"seq": seq}))
    sender.close()

    try:
        while loop.now < LIMIT and not done_at:
            loop.run(until=loop.now + STEP)
            sharded.drain()
        loop.run(until=loop.now + STEP)
        sharded.drain()
    finally:
        leaks = sharded.shutdown()

    assert done_at, "primary transfer did not complete within the budget"
    assert not sender.adus_abandoned, sender.adus_abandoned
    assert sorted(delivered) == sorted(
        payload_for(seq) for seq in range(N_ADUS)
    ), "delivery diverged from the offered ADUs"
    for index, report in leaks.items():
        assert report == [], f"shard {index} leaked: {report}"

    elapsed = done_at[0]
    switch = net.switch.stats
    return {
        "paced": paced,
        "cross": cross,
        "time_s": elapsed,
        "goodput_bytes_per_s": N_ADUS * PAYLOAD / elapsed,
        "retransmissions": sender.stats.retransmissions,
        "segments_sent": sender.stats.segments_sent,
        "queue_drops": dict(switch.queue_drops),
        "queue_drops_total": sum(switch.queue_drops.values()),
        "trains_joined": switch.trains_joined,
        "train_units": switch.train_units,
        "demux_runs": demux.demux_runs,
        "probes_per_adu": demux.demux_runs / N_ADUS,
        "pacer": pacer.snapshot() if pacer is not None else None,
    }


def run_convergence() -> dict[str, object]:
    """High-rate pacer against a slow (adaptive-epoch) receiver."""
    path = two_hosts(
        seed=7,
        bandwidth_bps=LINK_BW,
        propagation_delay=PROP,
        max_train=TARGET_TRAIN,
        train_window=1e-3,
        pacing=True,
        rate=CONV_RATE0,
        target_train=TARGET_TRAIN,
    )
    loop = path.loop
    engine = SharedDrainEngine(
        loop,
        max_rows=256,
        max_delay=CONV_EPOCH,
        adaptive=True,
        ramp_rows=CONV_RAMP_ROWS,
    )
    delivered: list[bytes] = []
    AlfReceiver(
        loop,
        path.b,
        "a",
        1,
        deliver=lambda adu: delivered.append(bytes(adu.payload)),
        ack_interval=0,
        drain_engine=engine,
    )
    done_at: list[float] = []
    sender = AlfSender(
        loop,
        path.a,
        "b",
        1,
        mtu=MTU,
        recovery=RecoveryMode.TRANSPORT_BUFFER,
        rto=0.5,
        max_attempts=20,
        pacing=path.pacer,
        on_complete=lambda: done_at.append(loop.now),
    )
    for seq in range(CONV_ADUS):
        sender.send_adu(Adu(seq, payload_for(seq), {"seq": seq}))
    sender.close()
    while loop.now < LIMIT and not done_at:
        loop.run(until=loop.now + STEP)
    assert done_at, "paced transfer did not complete"
    assert sorted(delivered) == sorted(
        payload_for(seq) for seq in range(CONV_ADUS)
    )
    pacer = path.pacer
    first = pacer.first_backoff_time
    return {
        "rate0_bytes_per_s": CONV_RATE0,
        "rtt_s": CONV_RTT,
        "time_s": done_at[0],
        "backoffs": pacer.backoffs,
        "raises": pacer.raises,
        "first_backoff_s": first,
        "rtts_to_first_backoff": (
            first / CONV_RTT if first is not None else None
        ),
        "final_rate_bytes_per_s": pacer.rate_bytes_per_s,
        "rate_fraction": pacer.rate_bytes_per_s / CONV_RATE0,
        "retransmissions": sender.stats.retransmissions,
    }


@pytest.fixture(scope="module")
def record():
    unpaced = run_contended(paced=False, cross=True)
    paced = run_contended(paced=True, cross=True)
    uncontended = run_contended(paced=True, cross=False)
    convergence = run_convergence()
    return {
        "n_adus": N_ADUS,
        "payload_bytes": PAYLOAD,
        "target_train": TARGET_TRAIN,
        "paced_rate_bytes_per_s": PACED_RATE,
        "cross_rate_bytes_per_s": CROSS_RATE,
        "queue_capacity": QUEUE_CAP,
        "unpaced": unpaced,
        "paced": paced,
        "uncontended": uncontended,
        "goodput_ratio": paced["goodput_bytes_per_s"]
        / unpaced["goodput_bytes_per_s"],
        "probe_ratio": paced["probes_per_adu"]
        / max(uncontended["probes_per_adu"], 1e-9),
        "convergence": convergence,
    }


def test_bench_pacing(benchmark, record):
    benchmark(run_convergence)

    OUT_DIR.mkdir(parents=True, exist_ok=True)
    out = OUT_DIR / "bench_pacing.json"
    out.write_text(json.dumps(record, indent=2, sort_keys=True) + "\n")
    print("PACING_JSON " + json.dumps(record, sort_keys=True))


def test_acceptance_pacing(record):
    # Headline gate: shaped trains beat the blast where it counts —
    # delivered goodput at equal offered load under 2:1 cross-traffic.
    assert record["goodput_ratio"] >= GOODPUT_GATE, record
    # The mechanism: the blast overflows the switch queue, the paced
    # run barely touches it.
    assert (
        record["paced"]["queue_drops_total"]
        < record["unpaced"]["queue_drops_total"]
    ), record
    # Shaping, not loss recovery: the paced run repairs (almost)
    # nothing while the unpaced run lives off retransmission.
    assert (
        record["paced"]["retransmissions"]
        < record["unpaced"]["retransmissions"]
    ), record

    # Train boundaries survive the contended switch: the sharded
    # receiver's placement probes per delivered ADU stay at the uncontended
    # train level.
    assert record["probe_ratio"] <= PROBE_GATE, record
    assert record["paced"]["train_units"] > 0, record

    # Backpressure: the drain-pressure loop backs the rate off within
    # a bounded number of RTTs and the transfer needs zero repairs.
    conv = record["convergence"]
    assert conv["backoffs"] >= 1, conv
    assert conv["rtts_to_first_backoff"] is not None, conv
    assert conv["rtts_to_first_backoff"] <= CONV_RTT_GATE, conv
    assert conv["rate_fraction"] <= CONV_RATE_GATE, conv
    assert conv["retransmissions"] == 0, conv
