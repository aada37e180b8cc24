"""Zero-copy datapath — copies, memory passes, and wall-clock.

Two engineerings of the same steady-state ALF receive path, measured
end-to-end (sender -> link -> host -> receiver -> delivered bytes) at
1 KB, 64 KB and 1 MB ADUs:

* **layered** — fragments are byte windows over the ADU and reassembly
  joins them into one ``bytes``; the wire checksum reads in place.
* **chain** — fragments are the same byte windows, reassembly is a
  structural scatter-gather chain, the checksum is one in-place read pass, and
  the only copy is the single linearize at the application hand-off.

Each path copies each ADU exactly once (the join, or the linearize) and
reads it once per end; the acceptance test pins those counts.

A third gate takes the pooled, drained receive path alone: a whole
16-fragment run of a converted, enciphered ADU lands in one rx-pool
extent and the shared drain's fused checksum→decrypt→convert plan runs
on it in place, so the receive side records no ``batch-gather`` copy and
exactly one copy, the hand-off of the plaintext.

Delivered payloads are asserted byte-identical between the two.  The
copy and memory-pass figures come from the substrate's own
:func:`repro.machine.accounting.datapath_counters` — measured, not
asserted.  Emits a machine-readable JSON record (``ZERO_COPY_JSON`` line
and ``benchmarks/out/bench_zero_copy.json``) for the CI artifact.
"""

from __future__ import annotations

import json
import random
import time
from pathlib import Path

import pytest

from repro.buffers.pool import BufferPool
from repro.core.adu import Adu
from repro.machine.accounting import datapath_counters
from repro.net.host import Host
from repro.net.link import Link
from repro.net.packet import Packet
from repro.presentation.abstract import ArrayOf, Int32
from repro.presentation.lwts import LwtsCodec
from repro.sim.eventloop import EventLoop
from repro.stages.presentation import PresentationBinding
from repro.transport.alf import AlfReceiver, AlfSender
from repro.transport.alf.receiver import PROTOCOL
from repro.transport.drain import SharedDrainEngine

MTU = 8192
#: (label, adu_bytes, n_adus) — 64 KB / MTU 8 KB is the acceptance
#: configuration: a steady-state receive of 8-fragment ADUs.
SIZES = [("1KB", 1024, 8), ("64KB", 64 * 1024, 4), ("1MB", 1024 * 1024, 1)]


def make_payloads(adu_bytes: int, n_adus: int) -> list[bytes]:
    rng = random.Random(adu_bytes)
    return [rng.randbytes(adu_bytes) for _ in range(n_adus)]


def run_transfer(payloads: list[bytes], zero_copy: bool) -> list[bytes]:
    """One complete transfer; returns the delivered payloads in order."""
    loop = EventLoop()
    a = Host(loop, "a")
    b = Host(loop, "b")
    link_ab = Link(loop, random.Random(1), bandwidth_bps=1e9)
    link_ba = Link(loop, random.Random(2), bandwidth_bps=1e9)
    a.add_link("b", link_ab)
    b.add_link("a", link_ba)
    link_ab.connect(b.receive)
    link_ba.connect(a.receive)
    delivered: dict[int, bytes] = {}
    AlfReceiver(
        loop, b, "a", 1,
        deliver=lambda d: delivered.__setitem__(d.sequence, d.payload),
        zero_copy=zero_copy,
    )
    sender = AlfSender(loop, a, "b", 1, mtu=MTU)
    for i, payload in enumerate(payloads):
        sender.send_adu(Adu(sequence=i, payload=payload, name={"i": i}))
    loop.run(until=60.0)
    assert len(delivered) == len(payloads), "transfer did not complete"
    return [delivered[i] for i in range(len(payloads))]


def measure(payloads: list[bytes], zero_copy: bool) -> dict:
    counters = datapath_counters()
    counters.reset()
    start = time.perf_counter()
    outputs = run_transfer(payloads, zero_copy)
    elapsed = time.perf_counter() - start
    snap = counters.snapshot()
    counters.reset()
    return {
        "outputs": outputs,
        "copies": snap["copies"],
        "bytes_copied": snap["bytes_copied"],
        "read_passes": snap["read_passes"],
        "memory_passes": snap["memory_passes"],
        "zero_copy_ops": snap["zero_copy_ops"],
        "copies_by_label": snap["copies_by_label"],
        "wall_s": elapsed,
    }


@pytest.fixture(scope="module")
def record():
    rows = []
    for label, adu_bytes, n_adus in SIZES:
        payloads = make_payloads(adu_bytes, n_adus)
        layered = measure(payloads, zero_copy=False)
        chain = measure(payloads, zero_copy=True)
        # Alternative schedules of one transfer: the application must
        # receive identical bytes either way.
        assert chain["outputs"] == payloads
        assert layered["outputs"] == payloads
        rows.append(
            {
                "size": label,
                "adu_bytes": adu_bytes,
                "n_adus": n_adus,
                "fragments_per_adu": -(-adu_bytes // MTU),
                "layered": {k: v for k, v in layered.items() if k != "outputs"},
                "chain": {k: v for k, v in chain.items() if k != "outputs"},
                "copy_reduction": layered["copies"] / max(chain["copies"], 1),
                "bytes_copied_reduction": (
                    layered["bytes_copied"] / max(chain["bytes_copied"], 1)
                ),
            }
        )
    return {"mtu": MTU, "rows": rows}


def test_bench_zero_copy_chain(benchmark, record):
    payloads = make_payloads(64 * 1024, 4)
    benchmark(lambda: run_transfer(payloads, zero_copy=True))

    out_dir = Path(__file__).resolve().parent / "out"
    out_dir.mkdir(parents=True, exist_ok=True)
    out = out_dir / "bench_zero_copy.json"
    out.write_text(json.dumps(record, indent=2, sort_keys=True) + "\n")
    print("ZERO_COPY_JSON " + json.dumps(record, sort_keys=True))


def test_acceptance_copy_reduction(record):
    for row in record["rows"]:
        n, total = row["n_adus"], row["n_adus"] * row["adu_bytes"]
        chain, layered = row["chain"], row["layered"]
        # At every size the chain path copies each ADU exactly once, at
        # the delivery linearize, and each end's checksum reads it once
        # in place.
        assert chain["copies_by_label"] == {"linearize": total}, row["size"]
        assert chain["copies"] == n
        assert chain["read_passes"] == 2 * n
        # The layered path copies each ADU exactly once too: its
        # reassembly join.  Fragments are views and its checksums read
        # in place.
        assert layered["copies_by_label"] == {"reassemble-join": total}, row["size"]
        assert layered["copies"] == n
        assert layered["read_passes"] == 2 * n
    row_64k = next(r for r in record["rows"] if r["size"] == "64KB")
    assert row_64k["fragments_per_adu"] == 8


#: The drained-run gate's ADU: 4096 little-endian int32 words, converted
#: to a big-endian wire syntax and enciphered, cut at MTU 1024 into 16
#: fragments that land in a pool of 2 KiB buffers.
RUN_INTS = 4096
RUN_MTU = 1024
RUN_KEY = 0x5A5AC3D2


def secure_binding() -> PresentationBinding:
    return PresentationBinding(
        ArrayOf(Int32(), fixed_count=RUN_INTS),
        LwtsCodec(byte_order="little"),
        LwtsCodec(byte_order="big"),
    )


def test_acceptance_drained_run_is_not_gathered():
    payload = random.Random(16).randbytes(4 * RUN_INTS)
    loop = EventLoop()
    sender = AlfSender(
        loop, Host(loop, "a"), "b", 1, mtu=RUN_MTU,
        presentation=secure_binding(), encryption=RUN_KEY,
    )
    packets = [
        Packet(src="a", dst="b", protocol=PROTOCOL, flow_id=1,
               header=header, payload=bytes(data))
        for header, data in sender._wire_units(Adu(0, payload, {"i": 0}))
    ]
    assert len(packets) == 16

    pool = BufferPool(32, 2048, label="rx")
    host = Host(loop, "b", rx_pool=pool)
    ack_link = Link(loop, random.Random(0), bandwidth_bps=1e9)
    ack_link.connect(lambda packet: None)
    host.add_link("a", ack_link)
    delivered = []
    AlfReceiver(
        loop, host, "a", 1, deliver=delivered.append,
        drain_engine=SharedDrainEngine(loop),
        presentation=secure_binding(), encryption=RUN_KEY,
    )
    counters = datapath_counters()
    counters.reset()
    host.receive_burst(packets)
    loop.run(until=1.0)
    snap = counters.snapshot()
    counters.reset()

    (adu,) = delivered
    assert bytes(adu.payload) == payload
    # One extent, one DMA write per fragment, no gather: the only copy
    # is the hand-off of the converted plaintext.
    assert snap["dma_writes"] == 16 and snap["dma_bytes"] == len(payload)
    assert snap["copies_by_label"] == {"batch-unpack": len(payload)}, snap
    assert snap["copies"] == 1
    assert pool.hits == 16 and pool.scattered_runs == 0
    assert pool.leak_report() == []
