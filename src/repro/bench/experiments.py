"""The experiments: one function per table/figure in DESIGN.md's index.

Every function is pure given its arguments (all randomness is seeded) and
returns an :class:`ExperimentResult` whose rows pair the paper's reported
value with the reproduction's measurement.  ``all_experiments()`` runs
the whole battery; ``scripts in benchmarks/`` wrap the individual
functions for pytest-benchmark and assert the paper's shape.
"""

from __future__ import annotations

from typing import Callable

from repro.bench.harness import ExperimentResult, Row
from repro.bench.workloads import (
    PACKET_BYTES,
    file_payload,
    integer_array,
    octet_payload,
)
from repro.apps.parallel import striped_delivery
from repro.control.instructions import InstructionCounter
from repro.core.adu import Adu
from repro.core.app import ApplicationProcess
from repro.core.stack import ProtocolStack, StackConfig
from repro.ilp.executor import IntegratedExecutor, LayeredExecutor
from repro.ilp.pipeline import Pipeline
from repro.machine.costs import CHECKSUM_COST, COPY_COST
from repro.machine.profile import MICROVAX_III, MIPS_R2000, SUPERSCALAR, MachineProfile
from repro.machine.throughput import combined_serial_mbps
from repro.net.atm import cells_for, segment
from repro.net.topology import two_hosts
from repro.presentation.abstract import ArrayOf, Int32, OctetString
from repro.presentation.ber import BerCodec
from repro.presentation.costs import TOOLKIT_BER, TUNED_BER, TUNED_LWTS
from repro.presentation.negotiate import NATIVE_BIG, NATIVE_LITTLE, negotiate
from repro.sim.rng import RngStreams
from repro.stages.base import Facts, PassthroughStage
from repro.stages.checksum import (
    ChecksumComputeStage,
    ChecksumVerifyStage,
    internet_checksum,
)
from repro.stages.copy import CopyStage
from repro.stages.encrypt import DecryptStage, EncryptStage, XorStreamCipher
from repro.stages.netio import NetworkExtractStage
from repro.stages.presentation import PresentationEncodeStage
from repro.transport.alf import AlfReceiver, AlfSender, RecoveryMode
from repro.transport.tcpstyle import TcpStyleReceiver, TcpStyleSender


# ----------------------------------------------------------------------
# T1 — Table 1: copy and checksum speeds


def table1() -> ExperimentResult:
    """Table 1: Mb/s for the two fundamental manipulations, two machines."""
    paper = {
        ("uVax III", "copy"): 42.0,
        ("uVax III", "checksum"): 60.0,
        ("MIPS R2000", "copy"): 130.0,
        ("MIPS R2000", "checksum"): 115.0,
    }
    rows = []
    for profile in (MICROVAX_III, MIPS_R2000):
        rows.append(
            Row(
                label=f"{profile.name} copy",
                paper=paper[(profile.name, "copy")],
                measured=profile.mbps_for_cost(COPY_COST),
            )
        )
        rows.append(
            Row(
                label=f"{profile.name} checksum",
                paper=paper[(profile.name, "checksum")],
                measured=profile.mbps_for_cost(CHECKSUM_COST),
            )
        )
    return ExperimentResult(
        "T1",
        "Speed of manipulation operations (paper Table 1)",
        rows,
        notes="profiles are calibrated from these plus the E1 integrated "
        "measurement; three R2000 equations pin read/write/ALU exactly",
    )


# ----------------------------------------------------------------------
# E1 — separate vs integrated copy+checksum


def ilp_copy_checksum(payload_bytes: int = PACKET_BYTES) -> ExperimentResult:
    """§4: copy then checksum separately (~60) vs one fused loop (90)."""
    data = octet_payload(payload_bytes)
    rows = []
    for profile in (MIPS_R2000, MICROVAX_III):
        pipeline = Pipeline(
            [CopyStage(), ChecksumComputeStage()], name="copy+checksum"
        )
        _, layered = LayeredExecutor(profile).execute(pipeline, data)
        _, integrated = IntegratedExecutor(profile).execute(pipeline, data)
        is_r2000 = profile is MIPS_R2000
        rows.append(
            Row(
                label=f"{profile.name} separate",
                paper=60.0 if is_r2000 else None,
                measured=layered.mbps(),
                extra={"memory_passes": layered.memory_passes},
            )
        )
        rows.append(
            Row(
                label=f"{profile.name} integrated",
                paper=90.0 if is_r2000 else None,
                measured=integrated.mbps(),
                extra={"memory_passes": integrated.memory_passes},
            )
        )
    return ExperimentResult(
        "E1",
        "Separate vs integrated copy+checksum loop",
        rows,
        notes="paper reports the R2000 numbers; the uVax rows are the "
        "model's predictions for the same code",
    )


# ----------------------------------------------------------------------
# E2 — presentation conversion cost


def presentation_cost(n_integers: int = 1000) -> ExperimentResult:
    """§4: word copy at 130 Mb/s vs ASN.1 integer conversion at 28 Mb/s."""
    profile = MIPS_R2000
    copy_mbps = profile.mbps_for_cost(COPY_COST)
    ber_mbps = profile.mbps_for_cost(TUNED_BER.encode)
    rows = [
        Row("word-aligned copy", paper=130.0, measured=copy_mbps),
        Row("ASN.1 integer-array encode (tuned)", paper=28.0, measured=ber_mbps),
        Row(
            "slowdown factor",
            paper=4.5,
            measured=copy_mbps / ber_mbps,
            unit="x",
        ),
    ]
    # Functional check rides along: the codec really encodes the array.
    values = integer_array(n_integers)
    encoded = BerCodec().encode(values, ArrayOf(Int32()))
    rows.append(
        Row(
            "encoding expansion",
            paper=None,
            measured=len(encoded) / (4 * n_integers),
            unit="x bytes",
        )
    )
    return ExperimentResult(
        "E2",
        "Presentation conversion vs the basic copy",
        rows,
        notes="paper says 'a factor of 4-5 slower'; tuned-BER ALU budget "
        "is derived once from the 28 Mb/s measurement",
    )


# ----------------------------------------------------------------------
# E3 — full-stack overhead with an interpretive presentation layer


def stack_overhead(payload_bytes: int = PACKET_BYTES) -> ExperimentResult:
    """§4: TCP+ISODE stack — conversion case ~30x slower, ~97% in
    presentation."""
    n_integers = payload_bytes // 4

    conversion_stack = ProtocolStack(
        StackConfig(
            schema=ArrayOf(Int32()),
            codec=BerCodec(),
            codec_costs=TOOLKIT_BER,
        )
    )
    value, _, _ = conversion_stack.transfer(integer_array(n_integers))
    assert len(value) == n_integers

    baseline_stack = ProtocolStack(
        StackConfig(
            schema=OctetString(),
            codec=BerCodec(),
            codec_costs=TOOLKIT_BER,
        )
    )
    octets = octet_payload(payload_bytes)
    value2, _, _ = baseline_stack.transfer(octets)
    assert value2 == octets

    conversion_cpb = conversion_stack.total_cycles() / payload_bytes
    baseline_cpb = baseline_stack.total_cycles() / payload_bytes
    slowdown = conversion_cpb / baseline_cpb
    share = conversion_stack.presentation_share()
    rows = [
        Row("baseline (OCTET STRING) cycles/byte", paper=None,
            measured=baseline_cpb, unit="cyc/B"),
        Row("conversion (INTEGER array) cycles/byte", paper=None,
            measured=conversion_cpb, unit="cyc/B"),
        Row("relative slowdown", paper=30.0, measured=slowdown, unit="x"),
        Row("presentation share of overhead", paper=0.97, measured=share,
            unit="frac"),
    ]
    return ExperimentResult(
        "E3",
        "Full-stack overhead with toolkit (ISODE-style) presentation",
        rows,
        notes="the toolkit cost profile models interpretive TLV dispatch; "
        "both stacks really encode/decode their payloads",
    )


# ----------------------------------------------------------------------
# E4 — conversion fused with the checksum


def ilp_presentation_checksum(payload_bytes: int = PACKET_BYTES) -> ExperimentResult:
    """§4: ASN.1 encode 28 Mb/s alone; 24 Mb/s with the checksum fused in."""
    profile = MIPS_R2000
    encode_only = profile.mbps_for_cost(TUNED_BER.encode)
    fused = profile.mbps_for_cost(
        CHECKSUM_COST.fuse_after(TUNED_BER.encode)
    )
    separate = combined_serial_mbps(
        [encode_only, profile.mbps_for_cost(CHECKSUM_COST)]
    )
    rows = [
        Row("encode alone", paper=28.0, measured=encode_only),
        Row("encode + checksum, integrated", paper=24.0, measured=fused),
        Row("encode + checksum, separate passes", paper=None, measured=separate),
        Row(
            "integration penalty",
            paper=(28.0 - 24.0) / 28.0,
            measured=(encode_only - fused) / encode_only,
            unit="frac",
        ),
    ]
    # Functional ride-along: the fused pipeline really converts + checksums.
    stage = PresentationEncodeStage(BerCodec(), ArrayOf(Int32()), TUNED_BER)
    stage.set_value(integer_array(payload_bytes // 4))
    pipeline = Pipeline([stage, ChecksumComputeStage()], name="encode+checksum")
    IntegratedExecutor(profile).execute(pipeline, b"")
    return ExperimentResult(
        "E4",
        "Presentation conversion fused with the transport checksum",
        rows,
        notes="the checksum is nearly free once the data is in registers: "
        "its reads are satisfied by the conversion loop",
    )


# ----------------------------------------------------------------------
# E5 — control vs manipulation


def control_vs_manipulation(
    n_segments: int = 100, mss: int = 1024
) -> ExperimentResult:
    """§4: in-band control is tens of instructions; manipulation is
    thousands of memory cycles per packet."""
    path = two_hosts(seed=11, bandwidth_bps=100e6, propagation_delay=0.002)
    counter = InstructionCounter()
    delivered = bytearray()
    receiver = TcpStyleReceiver(
        path.loop, path.b, "a", 1, deliver=delivered.extend, counter=counter
    )
    sender = TcpStyleSender(
        path.loop, path.a, "b", 1, mss=mss, counter=counter,
        use_congestion_control=False,
    )
    data = file_payload(n_segments * mss)
    sender.send(data)
    sender.close()
    path.loop.run(until=60)
    assert bytes(delivered) == data

    packets = counter.packets_processed
    control_per_packet = counter.per_packet()
    control_cycles = MIPS_R2000.instruction_cycles(control_per_packet)
    manipulation_cost = CHECKSUM_COST.fuse_after(COPY_COST)
    manipulation_cycles = MIPS_R2000.cycles(manipulation_cost, PACKET_BYTES)
    rows = [
        Row("control instructions / packet", paper=None,
            measured=control_per_packet, unit="instr",
            extra={"packets": packets}),
        Row("control cycles / packet (R2000)", paper=None,
            measured=control_cycles, unit="cycles"),
        Row("manipulation cycles / 4KB packet", paper=None,
            measured=manipulation_cycles, unit="cycles"),
        Row("manipulation / control ratio", paper=None,
            measured=manipulation_cycles / control_cycles, unit="x"),
    ]
    return ExperimentResult(
        "E5",
        "Transfer control vs data manipulation cost",
        rows,
        notes="paper: 'total path lengths are tens, not hundreds of "
        "instructions' for control; a 4KB packet costs ~1000 memory "
        "cycles per touch",
    )


# ----------------------------------------------------------------------
# F1 — the presentation pipeline under loss (TCP vs ALF delivery)


def _pipeline_goodput(
    mode: str,
    loss_rate: float,
    total_bytes: int,
    adu_bytes: int,
    seed: int,
) -> tuple[float, float]:
    """(goodput bps, app utilization) for one transfer.

    The network runs at 50 Mb/s; the application converts at 25 Mb/s, so
    the app is the bottleneck (§5's premise).  TCP-style delivery feeds
    it only in-order bytes; ALF feeds it every complete ADU immediately.
    """
    path = two_hosts(
        seed=seed,
        loss_rate=loss_rate,
        bandwidth_bps=50e6,
        propagation_delay=0.01,
        reverse_loss_rate=0.0,
    )
    app = ApplicationProcess(path.loop, processing_rate_bps=25e6)
    n_adus = total_bytes // adu_bytes
    total_bytes = n_adus * adu_bytes  # whole ADUs only, both modes
    data = file_payload(total_bytes)

    if mode == "tcp":
        def deliver(chunk: bytes) -> None:
            app.submit("chunk", len(chunk))

        TcpStyleReceiver(path.loop, path.b, "a", 1, deliver=deliver)
        sender = TcpStyleSender(
            path.loop, path.a, "b", 1, mss=1024,
            window_bytes=256 * 1024, rto=0.06,
            use_congestion_control=False,
        )
        sender.send(data)
        sender.close()
    elif mode == "alf":
        def deliver_adu(delivered) -> None:
            app.submit(delivered.sequence, len(delivered.payload))

        AlfReceiver(
            path.loop, path.b, "a", 1, deliver=deliver_adu,
            ack_interval=0.03, expected_adus=n_adus,
        )
        sender_alf = AlfSender(
            path.loop, path.a, "b", 1, mtu=1024, rto=0.06,
            recovery=RecoveryMode.TRANSPORT_BUFFER,
        )
        for index in range(n_adus):
            sender_alf.send_adu(
                Adu(index, data[index * adu_bytes : (index + 1) * adu_bytes],
                    {"offset": index * adu_bytes})
            )
        sender_alf.close()
    else:
        raise ValueError(f"unknown mode {mode!r}")

    path.loop.run(until=300)
    if not app.completed or app.processed_bytes < total_bytes:
        # Transfer did not finish inside the horizon; report what moved.
        finished = path.loop.now
    else:
        finished = app.completed[-1].finished_at
    goodput = app.processed_bytes * 8 / finished if finished > 0 else 0.0
    return goodput, app.utilization(finished)


def alf_pipeline(
    loss_rates: tuple[float, ...] = (0.0, 0.01, 0.02, 0.05, 0.10),
    total_bytes: int = 1_000_000,
    adu_bytes: int = 4096,
    seed: int = 0,
) -> ExperimentResult:
    """F1 (rendered figure): app-bottleneck goodput vs loss, both
    transports."""
    rows = []
    for loss in loss_rates:
        for mode in ("tcp", "alf"):
            goodput, utilization = _pipeline_goodput(
                mode, loss, total_bytes, adu_bytes, seed
            )
            rows.append(
                Row(
                    label=f"{mode} loss={loss:.2f}",
                    paper=None,
                    measured=goodput / 1e6,
                    extra={"app_utilization": round(utilization, 3)},
                )
            )
    return ExperimentResult(
        "F1",
        "Goodput vs loss when the application is the bottleneck",
        rows,
        notes="§5 in prose: in-order (TCP) delivery stalls the conversion "
        "pipeline on every loss; ALF keeps the bottleneck process fed",
    )


# ----------------------------------------------------------------------
# F2 — ADU size vs survival under cell loss


def adu_size_survival(
    adu_sizes: tuple[int, ...] = (128, 512, 2048, 8192, 65536, 1 << 20),
    cell_loss_rate: float = 1e-3,
    n_trials: int = 400,
    seed: int = 0,
) -> ExperimentResult:
    """F2 (rendered figure): P(ADU survives) vs ADU size at fixed cell
    loss.

    "Since the loss of even one bit will trigger the loss of a whole ADU,
    excessively large ADUs might prevent useful progress at all" (§5).
    """
    rng = RngStreams(seed).stream("cell-loss")
    rows = []
    for size in adu_sizes:
        n_cells = cells_for(size)
        analytic = (1.0 - cell_loss_rate) ** n_cells
        survived = 0
        trials = max(n_trials // max(n_cells // 1000, 1), 20)
        for _ in range(trials):
            if all(rng.random() >= cell_loss_rate for _ in range(n_cells)):
                survived += 1
        rows.append(
            Row(
                label=f"ADU {size} B ({n_cells} cells)",
                paper=None,
                measured=survived / trials,
                unit="P(survive)",
                extra={"analytic": round(analytic, 4)},
            )
        )
    # Functional ride-along: segmentation really produces that many cells.
    cells = segment(octet_payload(2048), vci=1)
    assert len(cells) == cells_for(2048)
    return ExperimentResult(
        "F2",
        "ADU survival probability vs ADU size under ATM cell loss",
        rows,
        notes=f"cell loss rate {cell_loss_rate}; the paper's bound on ADU "
        "size follows from survival approaching zero for huge ADUs",
    )


# ----------------------------------------------------------------------
# F3 — ILP gain vs number of fused stages


def _receive_stage_list(depth: int, key: int = 7):
    stages = [
        CopyStage(name="nic-to-kernel", category="netio"),
        ChecksumComputeStage(),
        EncryptStage(XorStreamCipher(key), name="decrypt-pass"),
        PassthroughStage("convert-lwts", cost=TUNED_LWTS.encode),
        CopyStage(name="move-to-app", category="application"),
    ]
    return stages[:depth]


def ilp_scaling(
    depths: tuple[int, ...] = (1, 2, 3, 4, 5),
    payload_bytes: int = PACKET_BYTES,
    profiles: tuple[MachineProfile, ...] = (MIPS_R2000, SUPERSCALAR),
) -> ExperimentResult:
    """F3 (rendered figure): the more stages fused, the bigger the win —
    especially on machines where ALU work is cheap relative to memory."""
    data = octet_payload(payload_bytes)
    rows = []
    for profile in profiles:
        for depth in depths:
            pipeline = Pipeline(_receive_stage_list(depth), name=f"depth-{depth}")
            _, layered = LayeredExecutor(profile).execute(pipeline, data)
            pipeline.reset()
            _, integrated = IntegratedExecutor(profile).execute(pipeline, data)
            rows.append(
                Row(
                    label=f"{profile.name} {depth} stages",
                    paper=None,
                    measured=integrated.mbps() / layered.mbps(),
                    unit="x speedup",
                    extra={
                        "layered_mbps": round(layered.mbps(), 1),
                        "integrated_mbps": round(integrated.mbps(), 1),
                    },
                )
            )
    return ExperimentResult(
        "F3",
        "ILP speedup vs number of fused manipulation stages",
        rows,
        notes="the superscalar profile shows the paper's §4 prediction: "
        "fusion matters more as memory dominates ALU",
    )


# ----------------------------------------------------------------------
# F4 — striped delivery to a parallel processor


def parallel_dispatch(
    node_counts: tuple[int, ...] = (1, 2, 4, 8),
    n_adus: int = 64,
) -> ExperimentResult:
    """F4 (rendered figure): self-describing ADUs scale with nodes; a
    serial delivery point cannot."""
    rows = []
    for n_nodes in node_counts:
        alf = striped_delivery(n_nodes=n_nodes, n_adus=n_adus, mode="alf")
        serial = striped_delivery(n_nodes=n_nodes, n_adus=n_adus, mode="serial")
        rows.append(
            Row(
                label=f"{n_nodes} nodes",
                paper=None,
                measured=alf.aggregate_throughput_bps
                / serial.aggregate_throughput_bps,
                unit="x speedup",
                extra={
                    "alf_mbps": round(alf.aggregate_throughput_bps / 1e6, 1),
                    "serial_mbps": round(serial.aggregate_throughput_bps / 1e6, 1),
                },
            )
        )
    return ExperimentResult(
        "F4",
        "ADU-dispatched striped delivery vs a serial hot spot",
        rows,
        notes="§7: with ADUs, delivery information is visible to all "
        "protocol functions, so no single point must run at aggregate speed",
    )


# ----------------------------------------------------------------------
# A1 — ordering constraints and speculative fusion (ablation)


def ordering_constraints(payload_bytes: int = PACKET_BYTES) -> ExperimentResult:
    """A1: what the receive path's ordering constraints cost, and what
    speculative (optimistic-delivery) fusion buys back."""
    from repro.buffers.appspace import ApplicationAddressSpace, ScatterMap
    from repro.stages.copy import MoveToAppStage

    key = 99
    data = octet_payload(payload_bytes)
    encrypted = XorStreamCipher(key).process(data)

    def build() -> Pipeline:
        verify = ChecksumVerifyStage()
        verify.expect(internet_checksum(encrypted))
        space = ApplicationAddressSpace()
        space.add_region("sink", payload_bytes)
        move = MoveToAppStage(space)
        move.set_destination(ScatterMap.linear("sink", 0, payload_bytes))
        return Pipeline(
            [
                NetworkExtractStage(hardware_offload=True),
                verify,
                DecryptStage(XorStreamCipher(key)),
                move,  # requires VERIFIED: the loop-splitting constraint
            ],
            name="receive",
            initial_facts={Facts.DEMUXED, Facts.TU_IN_ORDER, Facts.ADU_COMPLETE},
        )

    results = {}
    for label, executor in (
        ("layered", LayeredExecutor(MIPS_R2000)),
        ("integrated", IntegratedExecutor(MIPS_R2000)),
        ("integrated+speculative", IntegratedExecutor(MIPS_R2000, speculative=True)),
    ):
        pipeline = build()
        output, report = executor.execute(pipeline, encrypted)
        assert output == data
        results[label] = report

    # The constraint engine must reject a pipeline that moves data to the
    # application before anything verified it.
    illegal_rejected = False
    try:
        from repro.stages.copy import MoveToAppStage
        from repro.buffers.appspace import ApplicationAddressSpace

        space = ApplicationAddressSpace()
        space.add_region("sink", payload_bytes)
        move = MoveToAppStage(space)
        Pipeline(
            [NetworkExtractStage(), move],
            name="illegal",
            initial_facts={Facts.DEMUXED, Facts.ADU_COMPLETE},
        )
    except Exception:
        illegal_rejected = True

    rows = [
        Row("layered", paper=None, measured=results["layered"].mbps(),
            extra={"memory_passes": results["layered"].memory_passes}),
        Row("integrated (constraints respected)", paper=None,
            measured=results["integrated"].mbps(),
            extra={"memory_passes": results["integrated"].memory_passes}),
        Row("integrated (speculative delivery)", paper=None,
            measured=results["integrated+speculative"].mbps(),
            extra={"memory_passes":
                   results["integrated+speculative"].memory_passes}),
        Row("illegal pipeline rejected", paper=None,
            measured=1.0 if illegal_rejected else 0.0, unit="bool"),
    ]
    return ExperimentResult(
        "A1",
        "Ordering constraints: what they cost, what speculation buys",
        rows,
        notes="the VERIFIED fact normally splits the loop at the checksum; "
        "speculative mode fuses through it (optimistic delivery, abort on "
        "late checksum failure)",
    )


# ----------------------------------------------------------------------
# A2 — negotiated sender-side conversion (ablation)


def negotiated_conversion(
    file_bytes: int = 120_000, loss_rate: float = 0.05, seed: int = 3
) -> ExperimentResult:
    """A2: single-step sender-side conversion vs a canonical transfer
    syntax — both the cycle cost and the out-of-order placement effect."""
    from repro.apps.filetransfer import transfer_file

    schema = ArrayOf(Int32())  # variable count: sizes not schema-fixed
    plans = {
        "identity": negotiate(NATIVE_BIG, NATIVE_BIG, schema),
        "sender-converts": negotiate(NATIVE_BIG, NATIVE_LITTLE, schema),
        "canonical-ber": negotiate(
            NATIVE_BIG, NATIVE_LITTLE, schema, allow_direct=False
        ),
    }
    rows = []
    for label, plan in plans.items():
        end_to_end = combined_serial_mbps(
            [
                MIPS_R2000.mbps_for_cost(plan.sender_pass),
                MIPS_R2000.mbps_for_cost(plan.receiver_pass),
            ]
        )
        rows.append(
            Row(
                label=f"{label} end-to-end conversion",
                paper=None,
                measured=end_to_end,
                extra={"placement@sender": plan.placement_computable},
            )
        )

    data = file_payload(file_bytes, seed=seed)
    with_placement = transfer_file(
        data, loss_rate=loss_rate, seed=seed, placement_at_sender=True
    )
    without_placement = transfer_file(
        data, loss_rate=loss_rate, seed=seed, placement_at_sender=False
    )
    assert with_placement.ok and without_placement.ok
    rows.append(
        Row(
            "reorder buffer, placement@sender",
            paper=None,
            measured=float(with_placement.max_reorder_buffer_bytes),
            unit="bytes",
        )
    )
    rows.append(
        Row(
            "reorder buffer, placement@receiver",
            paper=None,
            measured=float(without_placement.max_reorder_buffer_bytes),
            unit="bytes",
        )
    )
    return ExperimentResult(
        "A2",
        "Negotiated single-step conversion vs canonical transfer syntax",
        rows,
        notes="§5: with sender-side conversion the receiver places every "
        "ADU immediately; with an intermediate syntax, out-of-order ADUs "
        "clog the presentation pipeline",
    )


# ----------------------------------------------------------------------


def _integrity_scenario(
    policy,
    corrupt_rate: float = 0.0,
    corrupt_span: tuple[int, int] | None = None,
    n_adus: int = 32,
    payload_bytes: int = 4096,
    seed: int = 11,
) -> dict:
    """One single-fragment flow under an integrity policy, engine-drained.

    Resets the process-wide integrity counters so the returned snapshot
    is attributable to this scenario alone.  Uses a private plan cache:
    an explicit ``full`` policy shares its lowering token with the
    default (whole-payload) checksum on purpose, so compiling through
    the shared cache could alias a legacy plan compiled by an earlier
    experiment — same checksums, but no coverage accounting.
    """
    from repro.ilp.compiler import PlanCache
    from repro.machine.accounting import integrity_counters
    from repro.transport.drain import SharedDrainEngine

    integrity_counters().reset()
    cache = PlanCache(capacity=8)
    path = two_hosts(
        seed=seed,
        bandwidth_bps=1e9,
        corrupt_rate=corrupt_rate,
        corrupt_span=corrupt_span,
    )
    delivered: list = []
    receiver = AlfReceiver(
        path.loop, path.b, "a", 1, delivered.append,
        ack_interval=0.01, expected_adus=n_adus,
        integrity=policy, drain_engine=SharedDrainEngine(path.loop),
        plan_cache=cache,
    )
    sender = AlfSender(
        path.loop, path.a, "b", 1, mtu=payload_bytes, integrity=policy,
        plan_cache=cache,
    )
    payloads = [
        octet_payload(payload_bytes, seed=seed + i) for i in range(n_adus)
    ]
    for i, payload in enumerate(payloads):
        sender.send_adu(Adu(i, payload, {"i": i}))
    path.loop.run(until=10.0)
    intact = 0
    for adu in delivered:
        reference = bytearray(payloads[adu.sequence])
        for lo, hi in adu.corrupt_spans:
            reference[lo:hi] = adu.payload[lo:hi]
        if bytes(reference) == adu.payload:
            intact += 1
    return {
        "delivered": len(delivered),
        "flagged": sum(1 for adu in delivered if adu.corrupt_spans),
        "intact_outside_flags": intact,
        "checksum_failures": receiver.stats.checksum_failures,
        "retransmissions": sender.stats.retransmissions,
        "counters": integrity_counters().snapshot(),
    }


def selective_integrity(
    n_adus: int = 32, payload_bytes: int = 4096
) -> ExperimentResult:
    """P7: coverage-span checksums and corrupt-tolerant delivery.

    The per-ADU integrity policy compiles into the wire plan: SPANS
    folds only the covered words (checksum work proportional to covered
    bytes, uncovered bytes never read), HEADERS_ONLY additionally lets
    the batch path gather only each row's covered prefix, and a
    tolerant policy turns damage in an uncovered region from a
    discard+retransmit into a flagged delivery — the ALF "ignore"
    recovery option the paper gives media applications.
    """
    from repro.integrity import IntegrityPolicy

    # Both ends fold the covered spans (sender compute + receiver
    # verify), so the counters see every payload byte twice.
    total = 2 * n_adus * payload_bytes
    spans_policy = IntegrityPolicy.of_spans([(0, 256)])
    headers_policy = IntegrityPolicy.headers_only(64)

    full = _integrity_scenario(IntegrityPolicy.full(), n_adus=n_adus,
                               payload_bytes=payload_bytes)
    spans = _integrity_scenario(spans_policy, n_adus=n_adus,
                                payload_bytes=payload_bytes)
    headers = _integrity_scenario(headers_policy, n_adus=n_adus,
                                  payload_bytes=payload_bytes)
    assert full["delivered"] == spans["delivered"] == n_adus
    assert headers["delivered"] == n_adus
    assert full["counters"]["covered_bytes"] == total

    # Damage pinned outside the covered spans: every ADU still arrives,
    # flagged, byte-identical outside the flagged ranges — no repair
    # round trips spent on bytes the policy chose not to protect.
    tolerant = _integrity_scenario(
        spans_policy, corrupt_rate=1.0, corrupt_span=(1024, 3072),
        n_adus=n_adus, payload_bytes=payload_bytes,
    )
    assert tolerant["delivered"] == n_adus
    assert tolerant["flagged"] == n_adus
    assert tolerant["intact_outside_flags"] == n_adus
    assert tolerant["checksum_failures"] == 0

    # Damage pinned inside a covered span: verification still catches
    # it — corrupt rows are discarded and repaired, never delivered.
    covered_hit = _integrity_scenario(
        spans_policy, corrupt_rate=0.5, corrupt_span=(0, 128),
        n_adus=n_adus, payload_bytes=payload_bytes,
    )
    assert covered_hit["delivered"] == n_adus
    assert covered_hit["flagged"] == 0
    assert covered_hit["checksum_failures"] > 0

    coverage_fraction = spans["counters"]["covered_bytes"] / total
    rows = [
        Row(
            "checksum bytes folded, FULL",
            paper=None,
            measured=float(full["counters"]["covered_bytes"]),
            unit="bytes",
            extra={"adus": n_adus, "payload_bytes": payload_bytes},
        ),
        Row(
            "checksum bytes folded, SPANS(0-256)",
            paper=None,
            measured=float(spans["counters"]["covered_bytes"]),
            unit="bytes",
            extra={"coverage_fraction": round(coverage_fraction, 4)},
        ),
        Row(
            "bytes never read, HEADERS_ONLY(64)",
            paper=None,
            measured=float(headers["counters"]["skipped_bytes"]),
            unit="bytes",
            extra={
                "skip_fraction": round(
                    headers["counters"]["skip_fraction"], 4
                )
            },
        ),
        Row(
            "tolerant deliveries (uncovered damage)",
            paper=None,
            measured=float(tolerant["delivered"]),
            unit="ADUs",
            extra={
                "flagged": tolerant["flagged"],
                "retransmissions": tolerant["retransmissions"],
            },
        ),
        Row(
            "corrupt rows discarded (covered damage)",
            paper=None,
            measured=float(covered_hit["checksum_failures"]),
            unit="rows",
            extra={"delivered_clean": covered_hit["delivered"]},
        ),
    ]
    return ExperimentResult(
        "P7",
        "Selective integrity: coverage-span checksums",
        rows,
        notes=f"{n_adus} single-fragment ADUs of {payload_bytes} B per "
        "scenario, batch-drained.  The integrity policy compiles into "
        "the wire plan's checksum kernel: SPANS folds only covered "
        "words, HEADERS_ONLY gathers only each row's covered prefix, "
        "and damage the PHY flags in an uncovered region delivers "
        "flagged (ALF 'ignore' mode) instead of forcing a "
        "retransmission — while covered damage is still caught and "
        "repaired, every time",
    )


def rate_paced_trains(
    n_adus: int = 400, payload_bytes: int = 960
) -> ExperimentResult:
    """P8: rate-paced train shaping with drain-pressure backpressure.

    §3 argues the sending rate should be "computed on an out-of-band
    basis" rather than discovered by window probing.  The pacer carries
    that through the egress path: a token bucket releases whole tagged
    trains at a configured rate, the switch's train-unit queues forward
    each train contiguously under a fairness cap, and the receiver
    piggybacks quantized drain pressure on ACKs so the rate adapts
    *before* loss.  The unpaced baseline is the §5 pathology: a blast
    overflows the switch queue and RTO-driven retransmission storms
    re-overflow it.
    """
    from repro.machine.accounting import ShardCounters
    from repro.net.packet import Packet
    from repro.net.shard import ShardedHost, shard_index
    from repro.net.topology import hosts_via_switch
    from repro.transport.drain import SharedDrainEngine
    from repro.transport.pacing import TrainPacer

    link_bw = 10e6
    prop = 0.005
    mtu = 1024
    target_train = 8
    paced_rate = 400_000.0      # below the ~450 KB/s residual capacity
    cross_rate = 800_000.0      # 2:1 cross-traffic into the same downlink
    cross_burst = 4
    queue_cap = 32
    n_shards = 4
    step, limit = 0.01, 30.0

    def payload_for(seq: int) -> bytes:
        return bytes(
            (seq * 37 + off) & 0xFF for off in range(payload_bytes)
        )

    def contended(paced: bool, cross: bool) -> dict[str, float]:
        net = hosts_via_switch(
            ["a", "b", "c"],
            seed=11,
            bandwidth_bps=link_bw,
            propagation_delay=prop,
            queue_capacity=queue_cap,
            preserve_trains=True,
            train_fairness_cap=target_train,
            max_train=target_train,
            train_window=1e-3,
        )
        loop = net.loop
        demux = ShardCounters()
        sharded = ShardedHost(
            net.hosts["b"], n_shards, rng=RngStreams(5), counters=demux
        )
        sharded.attach_link(net.downlinks["b"])
        delivered: list[bytes] = []
        shard = sharded.shards[shard_index("alf", 1, n_shards)]
        AlfReceiver(
            shard.loop,
            shard.host,
            "a",
            1,
            deliver=lambda adu: delivered.append(bytes(adu.payload)),
            ack_interval=0,
            drain_engine=shard.engine,
        )
        pacer = (
            TrainPacer(
                loop,
                rate_bytes_per_s=paced_rate,
                target_train=target_train,
                mtu=mtu,
                max_rate_bytes_per_s=paced_rate,
            )
            if paced
            else None
        )
        done_at: list[float] = []
        sender = AlfSender(
            loop,
            net.hosts["a"],
            "b",
            1,
            mtu=mtu,
            recovery=RecoveryMode.TRANSPORT_BUFFER,
            rto=0.10,
            max_attempts=200,
            pacing=pacer,
            on_complete=lambda: done_at.append(loop.now),
        )
        if cross:
            tick = cross_burst * (payload_bytes + 40) / cross_rate
            host_c = net.hosts["c"]

            def cross_tick() -> None:
                for _ in range(cross_burst):
                    host_c.send(
                        Packet(
                            src="c", dst="b", protocol="cross",
                            flow_id=9, header={},
                            payload=bytes(payload_bytes),
                        )
                    )

            for k in range(int(limit / tick)):
                loop.schedule_at(k * tick, cross_tick)
        for seq in range(n_adus):
            sender.send_adu(Adu(seq, payload_for(seq), {"seq": seq}))
        sender.close()
        try:
            while loop.now < limit and not done_at:
                loop.run(until=loop.now + step)
                sharded.drain()
            loop.run(until=loop.now + step)
            sharded.drain()
        finally:
            sharded.shutdown()
        assert done_at, "transfer did not complete within the budget"
        assert sorted(delivered) == sorted(
            payload_for(seq) for seq in range(n_adus)
        )
        return {
            "goodput": n_adus * payload_bytes / done_at[0],
            "drops": float(sum(net.switch.stats.queue_drops.values())),
            "retransmissions": float(sender.stats.retransmissions),
            "probes_per_adu": demux.demux_runs / n_adus,
            "train_units": float(net.switch.stats.train_units),
        }

    unpaced = contended(paced=False, cross=True)
    paced = contended(paced=True, cross=True)
    quiet = contended(paced=True, cross=False)
    assert paced["drops"] < unpaced["drops"]
    assert paced["retransmissions"] < unpaced["retransmissions"]
    assert paced["train_units"] > 0

    # Backpressure: a fast pacer against a slow adaptive-epoch drain.
    rate0, epoch = 2_000_000.0, 0.01
    path = two_hosts(
        seed=7,
        bandwidth_bps=link_bw,
        propagation_delay=prop,
        max_train=target_train,
        train_window=1e-3,
        pacing=True,
        rate=rate0,
        target_train=target_train,
    )
    loop = path.loop
    engine = SharedDrainEngine(
        loop, max_rows=256, max_delay=epoch, adaptive=True, ramp_rows=32
    )
    conv_got: list[bytes] = []
    AlfReceiver(
        loop, path.b, "a", 1,
        deliver=lambda adu: conv_got.append(bytes(adu.payload)),
        ack_interval=0, drain_engine=engine,
    )
    conv_done: list[float] = []
    conv_sender = AlfSender(
        loop, path.a, "b", 1,
        mtu=mtu, recovery=RecoveryMode.TRANSPORT_BUFFER,
        rto=0.5, max_attempts=20, pacing=path.pacer,
        on_complete=lambda: conv_done.append(loop.now),
    )
    for seq in range(n_adus // 2):
        conv_sender.send_adu(Adu(seq, payload_for(seq), {"seq": seq}))
    conv_sender.close()
    while loop.now < limit and not conv_done:
        loop.run(until=loop.now + step)
    assert conv_done and len(conv_got) == n_adus // 2
    assert conv_sender.stats.retransmissions == 0
    rtt = 2 * prop + 2 * (payload_bytes + 40) * 8 / link_bw + epoch
    first = path.pacer.first_backoff_time
    assert first is not None and path.pacer.backoffs >= 1

    rows = [
        Row(
            "goodput, unpaced blast",
            paper=None,
            measured=unpaced["goodput"],
            unit="bytes/s",
            extra={
                "queue_drops": unpaced["drops"],
                "retransmissions": unpaced["retransmissions"],
            },
        ),
        Row(
            "goodput, rate-paced trains",
            paper=None,
            measured=paced["goodput"],
            unit="bytes/s",
            extra={
                "queue_drops": paced["drops"],
                "retransmissions": paced["retransmissions"],
            },
        ),
        Row(
            "paced / unpaced goodput",
            paper=None,
            measured=paced["goodput"] / unpaced["goodput"],
            unit="ratio",
        ),
        Row(
            "placement probes per ADU, contended",
            paper=None,
            measured=paced["probes_per_adu"],
            unit="probes",
            extra={"uncontended": quiet["probes_per_adu"]},
        ),
        Row(
            "RTTs to first backoff (slow receiver)",
            paper=None,
            measured=first / rtt,
            unit="RTTs",
            extra={"backoffs": path.pacer.backoffs},
        ),
        Row(
            "settled rate fraction of start",
            paper=None,
            measured=path.pacer.rate_bytes_per_s / rate0,
            unit="fraction",
            extra={"retransmissions": 0},
        ),
    ]
    return ExperimentResult(
        "P8",
        "Rate-paced train shaping with drain-pressure backpressure",
        rows,
        notes=f"{n_adus} single-fragment ADUs of {payload_bytes} B "
        "through a 3-host star (10 Mb/s links, 32-packet switch "
        "queues) under 2:1 cross-traffic.  The blast loses to the §5 "
        "retransmission storm; the pacer's 8-packet trains at 400 KB/s "
        "traverse the train-preserving switch essentially lossless, and "
        "the sharded receiver's placement probes stay at the uncontended "
        "train level.  Against a slow adaptive-epoch receiver the "
        "dp-quantum AIMD loop backs the rate off within a couple of "
        "RTTs and finishes with zero retransmissions",
    )


def all_experiments() -> list[ExperimentResult]:
    """Run the full battery (used to regenerate EXPERIMENTS.md)."""
    return [
        table1(),
        ilp_copy_checksum(),
        presentation_cost(),
        stack_overhead(),
        ilp_presentation_checksum(),
        control_vs_manipulation(),
        alf_pipeline(),
        adu_size_survival(),
        ilp_scaling(),
        parallel_dispatch(),
        ordering_constraints(),
        negotiated_conversion(),
        word_fusion(),
        fec_survival(),
        outboard_analysis(),
        header_overhead(),
        cache_depletion(),
        sync_unit_overhead(),
        rate_control(),
        ilp_end_to_end(),
        media_deadline_repair(),
        plan_cache_fast_path(),
        zero_copy_datapath(),
        compiled_presentation(),
        secure_pipeline(),
        multiflow_drain(),
        sharded_hosts(),
        selective_integrity(),
        rate_paced_trains(),
    ]

# ----------------------------------------------------------------------
# E6 — functional word-level fusion (the ILP loop made real)


def word_fusion(payload_bytes: int = 65536) -> ExperimentResult:
    """E6: a real single-pass integrated loop over word kernels.

    Beyond cost modelling: the fused loop actually computes copy +
    checksum + XOR encryption + byteswap in one traversal and must equal
    the layered reference byte-for-byte.
    """
    from repro.ilp.kernels import (
        FusedWordLoop,
        byteswap_kernel,
        checksum_kernel,
        copy_kernel,
        xor_kernel,
    )

    data = octet_payload(payload_bytes)
    loop = FusedWordLoop(
        [copy_kernel(), checksum_kernel(), xor_kernel(0xA5A5A5A5),
         byteswap_kernel()]
    )
    fused_out, fused_obs = loop.run(data)
    layered_out, layered_obs = loop.run_layered(data)
    assert fused_out == layered_out
    assert fused_obs == layered_obs

    fused_mbps = MIPS_R2000.mbps_for_cost(loop.fused_cost)
    layered_mbps = MIPS_R2000.mbps_for_cost(loop.layered_cost)
    rows = [
        Row("4 kernels, layered (model)", paper=None, measured=layered_mbps),
        Row("4 kernels, fused (model)", paper=None, measured=fused_mbps),
        Row("fusion speedup", paper=None, measured=fused_mbps / layered_mbps,
            unit="x"),
        Row("outputs identical", paper=None,
            measured=1.0 if fused_out == layered_out else 0.0, unit="bool"),
    ]
    return ExperimentResult(
        "E6",
        "Functional single-pass fusion of four word kernels",
        rows,
        notes="the fused loop loads each word once and threads it through "
        "copy, checksum, XOR and byteswap while live; equality with the "
        "layered reference is asserted, not assumed",
    )


# ----------------------------------------------------------------------
# F5 — ADU-level FEC moves the survival knee (footnote 10)


def fec_roundtrip(
    payload: bytes,
    mtu: int,
    group_size: int | None,
    arrives: Callable[[], bool],
) -> bytes | None:
    """One ADU through transmission-unit FEC: cut into ``mtu`` pieces,
    one parity per ``group_size`` of them (None: plain, no parity), and
    ``arrives()`` asked once per unit in wire order — each group's
    pieces, then its parity.  Returns the ADU rebuilt from the units
    that arrived, or None when some group lost more than its parity
    can rebuild."""
    from repro.core.adu import fragment_payloads
    from repro.transport.alf.fec import group_parity, rebuild_erasure

    pieces = fragment_payloads(payload, mtu)
    size = len(pieces) if group_size is None else group_size
    rebuilt: list[bytes | memoryview] = []
    intact = True
    for base in range(0, len(pieces), size):
        group = pieces[base : base + size]
        parity = None if group_size is None else group_parity(group)
        kept = [arrives() for _ in group]
        parity_kept = parity is not None and arrives()
        lost = kept.count(False)
        if lost == 1 and parity_kept:
            missing = kept.index(False)
            survivors = [piece for piece, ok in zip(group, kept) if ok]
            group[missing] = rebuild_erasure(
                parity, survivors, len(group[missing])
            )
        elif lost:
            intact = False
        rebuilt.extend(group)
    return b"".join(rebuilt) if intact else None


def fec_survival(
    adu_sizes: tuple[int, ...] = (2048, 8192, 65536),
    cell_loss_rate: float = 1e-3,
    group_size: int = 8,
    n_trials: int = 300,
    seed: int = 0,
) -> ExperimentResult:
    """F5 (extension figure): ADU survival with and without one-parity-
    per-group FEC at the transmission-unit level."""
    from repro.transport.alf.fec import survival_probability

    rng = RngStreams(seed).stream("fec-loss")
    rows = []
    for size in adu_sizes:
        n_units = cells_for(size)
        plain = survival_probability(n_units, cell_loss_rate, None)
        fec = survival_probability(n_units, cell_loss_rate, group_size)
        rows.append(
            Row(
                label=f"ADU {size} B plain",
                paper=None,
                measured=plain,
                unit="P(survive)",
            )
        )
        rows.append(
            Row(
                label=f"ADU {size} B FEC(k={group_size})",
                paper=None,
                measured=fec,
                unit="P(survive)",
                extra={"gain": round(fec / plain, 2) if plain > 0 else float("inf")},
            )
        )
    # Simulated spot-check at the middle size: real encode/drop/rebuild.
    size = adu_sizes[len(adu_sizes) // 2]
    survived = 0
    for trial in range(n_trials):
        payload = octet_payload(size, seed=trial)
        result = fec_roundtrip(
            payload, 44, group_size, lambda: rng.random() >= cell_loss_rate
        )
        if result == payload:
            survived += 1
    rows.append(
        Row(
            label=f"ADU {size} B FEC, simulated",
            paper=None,
            measured=survived / n_trials,
            unit="P(survive)",
        )
    )
    return ExperimentResult(
        "F5",
        "ADU survival with transmission-unit FEC",
        rows,
        notes="footnote 10: lower-layer recovery such as FEC may be applied "
        "to transmission units; one XOR parity per group recovers any "
        "single loss per group",
    )


# ----------------------------------------------------------------------
# A3 — the outboard-processor argument, quantified


def outboard_analysis(payload_bytes: int = PACKET_BYTES) -> ExperimentResult:
    """A3 (ablation): steering information vs data, and the Amdahl bound
    of outboarding only the transport-level manipulations (paper §6)."""
    from repro.buffers.appspace import ScatterMap
    from repro.core.outboard import feasibility, partition_receive_path
    from repro.presentation.costs import RAW_IMAGE

    # Linear file transfer: one descriptor per 4 KB ADU.
    linear = feasibility(
        [(payload_bytes, ScatterMap.linear("file", 0, payload_bytes))] * 16
    )
    # RPC-style delivery: one descriptor per 4-byte element.
    scattered_map = ScatterMap()
    for index in range(payload_bytes // 4):
        scattered_map.add(index * 4, f"var{index}", 0, 4)
    scattered = feasibility([(payload_bytes, scattered_map)] * 16)

    raw = partition_receive_path(MIPS_R2000, RAW_IMAGE, payload_bytes,
                                 raw_octets=True)
    toolkit = partition_receive_path(MIPS_R2000, TOOLKIT_BER, payload_bytes)
    rows = [
        Row("steering ratio, linear file", paper=None,
            measured=linear.steering_ratio, unit="B/B"),
        Row("steering ratio, per-element RPC", paper=None,
            measured=scattered.steering_ratio, unit="B/B"),
        Row("outboard speedup bound, raw transfer", paper=None,
            measured=raw.speedup_bound, unit="x"),
        Row("outboard speedup bound, toolkit conversion", paper=None,
            measured=toolkit.speedup_bound, unit="x",
            extra={"host_share": round(toolkit.host_share, 3)}),
    ]
    return ExperimentResult(
        "A3",
        "Outboard processor: steering bulk and Amdahl bound",
        rows,
        notes="§6: steering information approaches the bulk of the data as "
        "elements shrink, and outboarding transport manipulations barely "
        "helps when presentation dominates",
    )


# ----------------------------------------------------------------------
# A4 — layered encapsulation vs shared-field header (paper §8)


def header_overhead(
    payload_sizes: tuple[int, ...] = (44, 1024, 4096)
) -> ExperimentResult:
    """A4 (ablation): header bytes and parse instructions for classic
    encapsulation vs the §8 shared-syntax ("compiled") header."""
    from repro.core.headers import (
        FragmentInfo,
        LayeredEncapsulation,
        SharedHeader,
    )

    info = FragmentInfo(
        flow_id=7, adu_sequence=3, fragment_index=1, fragment_total=4,
        adu_length=4096, checksum=0xBEEF, app_name=12345,
    )
    layered = LayeredEncapsulation()
    shared = SharedHeader()
    # Functional check: both encodings round-trip the same information.
    for scheme in (layered, shared):
        packed = scheme.pack(info, 1024)
        parsed, _ = scheme.parse(packed)
        assert parsed == info

    layered_counter = InstructionCounter()
    shared_counter = InstructionCounter()
    layered.parse(layered.pack(info, 1024), layered_counter)
    shared.parse(shared.pack(info, 1024), shared_counter)

    rows = [
        Row("layered header bytes", paper=None,
            measured=float(layered.header_bytes), unit="B"),
        Row("shared header bytes", paper=None,
            measured=float(shared.header_bytes), unit="B"),
        Row("layered parse instructions", paper=None,
            measured=float(layered_counter.total), unit="instr"),
        Row("shared parse instructions", paper=None,
            measured=float(shared_counter.total), unit="instr"),
    ]
    for payload in payload_sizes:
        layered_eff = payload / (payload + layered.header_bytes)
        shared_eff = payload / (payload + shared.header_bytes)
        rows.append(
            Row(
                label=f"wire efficiency at {payload} B payload",
                paper=None,
                measured=shared_eff / layered_eff,
                unit="x (shared/layered)",
                extra={
                    "layered": round(layered_eff, 3),
                    "shared": round(shared_eff, 3),
                },
            )
        )
    return ExperimentResult(
        "A4",
        "Layered encapsulation vs shared-field header",
        rows,
        notes="§8: semantic isolation without per-layer syntax; the gain "
        "is largest exactly where the paper aims — small (ATM-cell-sized) "
        "transmission units",
    )


# ----------------------------------------------------------------------
# A5 — cache depletion: the footnote-2 indirect cost


def cache_depletion(
    packet_bytes: int = PACKET_BYTES,
    cache_sizes: tuple[int, ...] = (1024, 4096, 16384, 65536),
    n_passes: int = 3,
) -> ExperimentResult:
    """A5 (ablation): memory traffic of N separate passes vs one fused
    pass, as a function of cache size (paper footnote 2)."""
    from repro.machine.cache import DirectMappedCache

    rows = []
    for capacity in cache_sizes:
        layered_cache = DirectMappedCache(capacity, line_bytes=16)
        for _ in range(n_passes):
            layered_cache.access_range(0, packet_bytes)
        fused_cache = DirectMappedCache(capacity, line_bytes=16)
        fused_cache.access_range(0, packet_bytes)

        layered_misses = layered_cache.stats.misses
        fused_misses = fused_cache.stats.misses
        rows.append(
            Row(
                label=f"{capacity // 1024} KB cache",
                paper=None,
                measured=layered_misses / fused_misses,
                unit="x misses (layered/fused)",
                extra={
                    "layered_misses": layered_misses,
                    "fused_misses": fused_misses,
                },
            )
        )
    return ExperimentResult(
        "A5",
        "Cache depletion across separate passes",
        rows,
        notes="footnote 2: when the packet exceeds the cache, every extra "
        "pass re-reads it all from memory; a cache larger than the packet "
        "makes the later passes nearly free",
    )

# ----------------------------------------------------------------------
# F6 — what unit can manipulation be synchronized on? (paper §5)


def sync_unit_overhead(
    line_rate_mbps: float = 100.0,
    unit_sizes: tuple[tuple[str, int], ...] = (
        ("ATM cell (44 B net)", 44),
        ("packet (4 KB)", PACKET_BYTES),
        ("ADU (64 KB)", 65536),
    ),
) -> ExperimentResult:
    """F6 (rendered figure): per-unit control cost vs synchronization
    unit size.

    "[48 bytes] is probably too small a unit of data to permit
    manipulation operations to be synchronized on each cell."  Each
    synchronization point pays the in-band control path (parse, demux,
    order check, bookkeeping); at cell granularity that control rate
    alone saturates the CPU.
    """
    from repro.control.instructions import DEFAULT_COSTS

    per_unit_instructions = (
        DEFAULT_COSTS.header_parse
        + DEFAULT_COSTS.demux_lookup
        + DEFAULT_COSTS.sequence_check
        + DEFAULT_COSTS.reassembly_bookkeeping
    )
    cpu_instructions_per_second = (
        MIPS_R2000.clock_hz / MIPS_R2000.cycles_per_instruction
    )
    rows = []
    for label, size in unit_sizes:
        units_per_second = line_rate_mbps * 1e6 / (size * 8)
        control_rate = per_unit_instructions * units_per_second
        cpu_share = control_rate / cpu_instructions_per_second
        rows.append(
            Row(
                label=f"sync on {label}",
                paper=None,
                measured=cpu_share,
                unit="CPU share for control",
                extra={
                    "units_per_s": int(units_per_second),
                    "instr_per_s": int(control_rate),
                },
            )
        )
    return ExperimentResult(
        "F6",
        "Control cost of synchronizing manipulation on each unit "
        f"(R2000 at {line_rate_mbps:.0f} Mb/s line rate)",
        rows,
        notes="per-unit control is ~37 instructions (parse, demux, order "
        "check, bookkeeping); at cell granularity it saturates the CPU — "
        "hence the ADU, not the cell, as the synchronization unit",
    )


# ----------------------------------------------------------------------
# A6 — out-of-band rate control keeps the bottleneck app's queue bounded


def rate_control(
    n_adus: int = 200,
    adu_bytes: int = 4096,
    app_rate_bps: float = 20e6,
    seed: int = 0,
) -> ExperimentResult:
    """A6 (ablation): §3's in-band/out-of-band split, exercised.

    An unpaced sender dumps ADUs at line rate and floods the bottleneck
    application's queue; a sender paced by out-of-band receiver grants
    holds the backlog near the setpoint with only a handful of control
    messages per second.
    """
    from repro.control.ratecontrol import PacedAduSource, ReceiverRateController
    from repro.sim.eventloop import EventLoop

    def run(controlled: bool) -> tuple[int, float, int]:
        loop = EventLoop()
        app = ApplicationProcess(loop, processing_rate_bps=app_rate_bps)
        max_backlog = 0

        def submit(adu: Adu) -> None:
            nonlocal max_backlog
            app.submit(adu.sequence, len(adu.payload))
            max_backlog = max(max_backlog, app.backlog)

        adus = [
            Adu(index, octet_payload(adu_bytes, seed=seed + index))
            for index in range(n_adus)
        ]
        if controlled:
            source = PacedAduSource(
                loop, submit, adus, initial_rate_bps=app_rate_bps
            )
            controller = ReceiverRateController(
                loop, app, source.on_rate_update, target_backlog=4
            )
            # The out-of-band channel closes when the source drains.
            source.on_drained = controller.stop
            loop.run(until=300)
            updates = controller.updates_sent
        else:
            # Unpaced: everything arrives (nearly) at once at line rate.
            source = PacedAduSource(loop, submit, adus, initial_rate_bps=1e9)
            loop.run(until=300)
            updates = 0
        completion = (
            app.completed[-1].finished_at if app.completed else loop.now
        )
        return max_backlog, completion, updates

    flood_backlog, flood_time, _ = run(controlled=False)
    paced_backlog, paced_time, updates = run(controlled=True)
    rows = [
        Row("max app backlog, unpaced", paper=None,
            measured=float(flood_backlog), unit="items"),
        Row("max app backlog, out-of-band control", paper=None,
            measured=float(paced_backlog), unit="items",
            extra={"rate_updates": updates}),
        Row("completion time, unpaced", paper=None,
            measured=flood_time, unit="s"),
        Row("completion time, out-of-band control", paper=None,
            measured=paced_time, unit="s"),
    ]
    return ExperimentResult(
        "A6",
        "Out-of-band rate control at the bottleneck application",
        rows,
        notes="§3: the transfer rate is computed out of band (a timer at "
        "the receiver) and enforced in band (a division at the sender); "
        "the queue stays bounded at nearly no control cost",
    )

# ----------------------------------------------------------------------
# E7 — ILP's end-to-end effect: same network, different engineering


def ilp_end_to_end(
    n_adus: int = 200,
    adu_bytes: int = 4096,
    loss_rate: float = 0.01,
    seed: int = 0,
) -> ExperimentResult:
    """E7 (closing experiment): identical lossy transfers into a host
    whose service time per ADU comes from the machine model; the only
    difference is layered vs integrated receive-path engineering.

    This is the paper's thesis in one number: ILP is an end-system
    implementation choice ("the deferral of engineering decisions to the
    implementor", §2) with end-to-end throughput consequences.
    """
    from repro.core.endsystem import AlfEndSystem
    from repro.stages.encrypt import DecryptStage
    from repro.stages.copy import MoveToAppStage
    from repro.buffers.appspace import ApplicationAddressSpace, ScatterMap

    key = 0x5151
    data_adus = [
        Adu(
            index,
            XorStreamCipher(key).process(
                octet_payload(adu_bytes, seed=seed + index)
            ),
            {"offset": index * adu_bytes},
        )
        for index in range(n_adus)
    ]

    def run(integrated: bool) -> tuple[float, float]:
        # A fast link makes the receive path the bottleneck: the choice
        # of engineering, not the network, determines goodput.
        path = two_hosts(
            seed=seed, loss_rate=loss_rate, bandwidth_bps=400e6,
            propagation_delay=0.002, reverse_loss_rate=0.0,
        )
        space = ApplicationAddressSpace()
        space.add_region("file", n_adus * adu_bytes)

        def stage_two(adu: Adu):
            verify = ChecksumVerifyStage()
            verify.expect(adu.checksum)
            move = MoveToAppStage(space)
            move.set_destination(
                ScatterMap.linear("file", adu.name["offset"], len(adu.payload))
            )
            return [
                verify,
                DecryptStage(XorStreamCipher(key)),
                PassthroughStage("convert-lwts", cost=TUNED_LWTS.decode),
                move,
            ]

        end_system = AlfEndSystem(
            path.loop, path.b, "a", 1,
            machine=MIPS_R2000,
            stage_two=stage_two,
            integrated=integrated,
            speculative=integrated,  # the full ILP engineering
            expected_adus=n_adus,
        )
        sender = AlfSender(path.loop, path.a, "b", 1, mtu=1024, rto=0.05)
        for adu in data_adus:
            sender.send_adu(adu)
        sender.close()
        path.loop.run(until=120)
        completion = end_system.completion_time or path.loop.now
        goodput = end_system.stats.payload_bytes * 8 / completion
        return goodput, end_system.processor.utilization(completion)

    layered_goodput, layered_util = run(integrated=False)
    integrated_goodput, integrated_util = run(integrated=True)
    rows = [
        Row("goodput, layered receive path", paper=None,
            measured=layered_goodput / 1e6,
            extra={"cpu_utilization": round(layered_util, 3)}),
        Row("goodput, integrated receive path", paper=None,
            measured=integrated_goodput / 1e6,
            extra={"cpu_utilization": round(integrated_util, 3)}),
        Row("end-to-end ILP speedup", paper=None,
            measured=integrated_goodput / layered_goodput, unit="x"),
    ]
    return ExperimentResult(
        "E7",
        "End-to-end goodput: layered vs integrated engineering of the "
        "same receive path",
        rows,
        notes="same network, same losses, same stages; only the loop "
        "structure differs — the deferred engineering decision of §2",
    )

# ----------------------------------------------------------------------
# F7 — repairing real-time media: FEC beats retransmission at deadlines


def media_deadline_repair(
    loss_rates: tuple[float, ...] = (0.0, 0.02, 0.05),
    n_frames: int = 20,
    seed: int = 4,
) -> ExperimentResult:
    """F7 (extension figure): tile repair under a playout deadline.

    Retransmission cannot help a tile whose frame plays before the
    repair round trip completes; FEC parity repairs in zero RTTs.  The
    rows compare frame completion with no protection vs transmission-
    unit FEC, at identical loss and playout offset.
    """
    from repro.apps.video import stream_video

    rows = []
    for loss in loss_rates:
        plain = stream_video(n_frames=n_frames, loss_rate=loss, seed=seed)
        fec = stream_video(
            n_frames=n_frames, loss_rate=loss, seed=seed, fec_group=4
        )
        rows.append(
            Row(
                label=f"plain, loss={loss:.2f}",
                paper=None,
                measured=plain.frame_completion_rate,
                unit="frames complete",
                extra={"tile_loss": round(plain.tile_loss_rate, 3)},
            )
        )
        rows.append(
            Row(
                label=f"FEC(k=4), loss={loss:.2f}",
                paper=None,
                measured=fec.frame_completion_rate,
                unit="frames complete",
                extra={
                    "tile_loss": round(fec.tile_loss_rate, 3),
                    "recoveries": fec.fec_recoveries,
                },
            )
        )
    return ExperimentResult(
        "F7",
        "Frame completion under a playout deadline: FEC vs nothing",
        rows,
        notes="NO_RETRANSMIT both ways (a retransmission would miss the "
        "deadline anyway); FEC spends ~25% more bandwidth to repair in "
        "zero round trips — footnote 10's trade made concrete",
    )


# ----------------------------------------------------------------------
# P1 — compile-once plan cache + batched execution


def plan_cache_fast_path(n_adus: int = 64, adu_bytes: int = 2048) -> ExperimentResult:
    """P1: compile-once/execute-many vs per-ADU re-planning.

    Deterministic accounting of the compiled fast path: how many fusion
    plans each engineering constructs for a steady-state stream, what
    the LRU plan cache does, and the modelled throughput of the batched
    integrated pass.  (The wall-clock ops/sec comparison — and the >= 5x
    acceptance criterion — lives in ``benchmarks/bench_plan_cache.py``,
    which is allowed to measure real time; this battery stays
    bit-reproducible.)
    """
    from repro.ilp.compiler import PipelineCompiler, PlanCache
    from repro.stages.encrypt import WordXorStage
    from repro.stages.presentation import ByteswapStage

    def make_pipeline() -> Pipeline:
        return Pipeline(
            [
                CopyStage(),
                ChecksumComputeStage(),
                WordXorStage(0xA5A5A5A5),
                ByteswapStage(),
            ],
            name="wire",
        )

    adus = [octet_payload(adu_bytes, seed=900 + index) for index in range(n_adus)]

    # Engineering 1: re-plan per ADU (the old hot path).
    compiler = PipelineCompiler(MIPS_R2000)
    replan_outputs = []
    replan_checksums = []
    replan_compiles = 0
    for payload in adus:
        plan = compiler.compile(make_pipeline())
        replan_compiles += 1
        output, observations = plan.run(payload)
        replan_outputs.append(output)
        replan_checksums.append(observations["checksum-internet"])

    # Engineering 2: compile once through the cache, run per ADU.
    cache = PlanCache(capacity=8)
    for payload in adus:
        cache.get_or_compile(make_pipeline(), MIPS_R2000).run(payload)

    # Engineering 3: one batched pass over all ADUs.
    plan = cache.get_or_compile(make_pipeline(), MIPS_R2000)
    batch = plan.run_batch(adus)
    assert batch.outputs == replan_outputs
    assert batch.observations["checksum-internet"] == replan_checksums

    snapshot = cache.snapshot()
    rows = [
        Row(
            "plans built, re-plan per ADU",
            paper=None,
            measured=float(replan_compiles),
            unit="compiles",
        ),
        Row(
            "plans built, cached",
            paper=None,
            measured=float(snapshot["misses"]),
            unit="compiles",
            extra={"hits": int(snapshot["hits"])},
        ),
        Row(
            "cache hit rate, steady state",
            paper=None,
            measured=round(snapshot["hit_rate"], 4),
            unit="fraction",
        ),
        Row(
            "integrated loops per ADU",
            paper=None,
            measured=float(plan.n_loops),
            unit="loops",
        ),
        Row(
            "batched pass, modelled",
            paper=None,
            measured=round(batch.report.mbps(), 2),
            unit="Mb/s",
            extra={"adus": n_adus, "adu_bytes": adu_bytes},
        ),
    ]
    return ExperimentResult(
        "P1",
        "Compile-once ILP fast path: plan cache + batched execution",
        rows,
        notes="the fusion plan is a per-association invariant, not "
        "per-ADU work; caching it amortizes the planning exactly as §6 "
        "amortizes per-packet control overhead, and batching lets each "
        "kernel traverse many ADUs in one vectorized pass (outputs "
        "asserted byte-identical to the per-ADU path)",
    )


def zero_copy_datapath(
    n_adus: int = 4, adu_bytes: int = 64 * 1024, mtu: int = 8192
) -> ExperimentResult:
    """P2: copies per layer — scatter-gather chains vs layered receive.

    Deterministic accounting of the zero-copy datapath: the same ALF
    transfer (64 KB ADUs in 8 fragments by default, sent as views over
    the ADU) received once with a joined reassembly and once with
    refcounted buffer chains up to the delivery hand-off, counting
    actual Python-side materializations on
    :data:`repro.machine.accounting.DATAPATH`.  Each path
    copies each ADU once; the ratios read 1.0.  Delivered ADUs
    are asserted byte-identical.  (The wall-clock figures live in
    ``benchmarks/bench_zero_copy.py``; this battery stays
    bit-reproducible.)
    """
    from repro.machine.accounting import DATAPATH

    def transfer(zero_copy: bool) -> tuple[list[bytes], dict]:
        path = two_hosts(seed=41, bandwidth_bps=1e9)
        delivered: dict[int, bytes] = {}
        AlfReceiver(
            path.loop, path.b, "a", 1,
            deliver=lambda d: delivered.__setitem__(d.sequence, d.payload),
            zero_copy=zero_copy,
        )
        sender = AlfSender(path.loop, path.a, "b", 1, mtu=mtu)
        rng = RngStreams(42).stream("payloads")
        payloads = [rng.randbytes(adu_bytes) for _ in range(n_adus)]
        counters = DATAPATH
        counters.reset()
        for index, payload in enumerate(payloads):
            sender.send_adu(Adu(sequence=index, payload=payload, name={}))
        path.loop.run(until=60.0)
        snapshot = counters.snapshot()
        counters.reset()
        assert [delivered[i] for i in range(n_adus)] == payloads
        return payloads, snapshot

    _, layered = transfer(zero_copy=False)
    _, chained = transfer(zero_copy=True)

    rows = [
        Row(
            "copies per ADU, layered",
            paper=None,
            measured=layered["copies"] / n_adus,
            unit="copies",
            extra={"bytes": layered["bytes_copied"]},
        ),
        Row(
            "copies per ADU, chained",
            paper=None,
            measured=chained["copies"] / n_adus,
            unit="copies",
            extra={"bytes": chained["bytes_copied"]},
        ),
        Row(
            "read passes per ADU, chained",
            paper=None,
            measured=chained["read_passes"] / n_adus,
            unit="passes",
        ),
        Row(
            "memory passes, layered vs chained",
            paper=None,
            measured=layered["memory_passes"] / chained["memory_passes"],
            unit="x fewer",
            extra={
                "layered": layered["memory_passes"],
                "chained": chained["memory_passes"],
            },
        ),
        Row(
            "byte-copy reduction",
            paper=None,
            measured=round(layered["bytes_copied"] / chained["bytes_copied"], 2),
            unit="x fewer",
            extra={"adus": n_adus, "adu_bytes": adu_bytes, "mtu": mtu},
        ),
    ]
    return ExperimentResult(
        "P2",
        "Zero-copy datapath: refcounted chains vs copy-per-layer",
        rows,
        notes="Table 1 prices each memory pass; both engineerings copy "
        "each ADU once — the layered path at its reassembly join, the "
        "chain path at the application hand-off linearize — and read it "
        "in place once per checksum (byte fragments are views of the "
        "sender's buffer, and observer plans read the payload's native "
        "image without packing it) — delivered ADUs asserted "
        "byte-identical both ways",
    )


def compiled_presentation(
    n_adus: int = 32, n_integers: int = 512
) -> ExperimentResult:
    """P3: schema-compiled codecs fused into the integrated loop.

    Deterministic accounting of the compiled presentation fast path: the
    same integer-array ADUs converted local → wire syntax once with an
    interpreted recursive codec walk plus a separate checksum pass (the
    layered engineering of §4's stack experiment), and once through a
    schema-compiled conversion kernel fused into the compiled wire plan
    (one read pass shared with the checksum).  Outputs and checksums are
    asserted byte-identical; the modelled throughputs use the Table 1
    machine model.  (The wall-clock ops/sec comparison — and the >= 3x
    acceptance criterion — lives in ``benchmarks/bench_presentation.py``;
    this battery stays bit-reproducible.)
    """
    from repro.buffers.chain import BufferChain
    from repro.buffers.segment import Segment
    from repro.ilp.compiler import PlanCache
    from repro.machine.accounting import DATAPATH
    from repro.presentation.compiler import CodecCache
    from repro.presentation.lwts import LwtsCodec
    from repro.stages.presentation import CONVERT_COST, PresentationConvertStage

    profile = MIPS_R2000
    schema = ArrayOf(Int32(), fixed_count=n_integers)
    local_codec = LwtsCodec(byte_order="little")
    wire_codec = LwtsCodec(byte_order="big")
    values = [
        integer_array(n_integers, seed=700 + index) for index in range(n_adus)
    ]
    payloads = [local_codec.encode(value, schema) for value in values]

    # Engineering 1: layered-interpreted — recursive schema walk to
    # decode, a second walk to re-encode, then a separate checksum pass.
    interpreted_outputs = []
    interpreted_checksums = []
    for payload in payloads:
        value = local_codec.decode(payload, schema)
        wire = wire_codec.encode(value, schema)
        interpreted_outputs.append(wire)
        interpreted_checksums.append(internet_checksum(wire))

    # Engineering 2: compiled-fused — the schema compiles once into a
    # conversion kernel that joins the checksum's integrated loop.
    codec_cache = CodecCache()
    plan_cache = PlanCache(capacity=8)

    def make_pipeline() -> Pipeline:
        return Pipeline(
            [
                PresentationConvertStage(
                    schema, local_codec, wire_codec, codec_cache=codec_cache
                ),
                ChecksumComputeStage(),
            ],
            name="presentation-wire",
        )

    counters = DATAPATH
    counters.reset()
    compiled_outputs = []
    compiled_checksums = []
    for payload in payloads:
        # Arrival shape: a multi-segment chain, as reassembly produces.
        half = (len(payload) // 2) & ~3
        chain = BufferChain(
            [Segment.wrap(payload[:half]), Segment.wrap(payload[half:])]
        )
        plan = plan_cache.get_or_compile(make_pipeline(), profile)
        output, observations = plan.run_chain(chain)
        compiled_outputs.append(bytes(output))
        compiled_checksums.append(observations["checksum-internet"])
    fused_snapshot = counters.snapshot()
    counters.reset()
    total_bytes = sum(len(payload) for payload in payloads)
    # The chain is read exactly once (the word gather); the only other
    # traversal is the write-back of the converted output.
    gather_bytes = fused_snapshot["copies_by_label"].get("gather-words", 0)
    input_reads_per_adu = gather_bytes / total_bytes
    passes_per_adu = fused_snapshot["memory_passes"] / n_adus

    assert compiled_outputs == interpreted_outputs
    assert compiled_checksums == interpreted_checksums

    # One batched dispatch over the whole stream, same compiled plan.
    plan = plan_cache.get_or_compile(make_pipeline(), profile)
    batch = plan.run_batch(payloads)
    assert batch.outputs == interpreted_outputs

    # Modelled throughputs (Table 1 pricing).  The layered engineering
    # pays an interpretive conversion pass (toolkit-priced, per §4's
    # ISODE measurement) and then a separate checksum pass over the
    # result; the compiled engineering pays one fused loop whose
    # checksum reads are satisfied by the conversion's.
    interpreted_mbps = combined_serial_mbps(
        [
            profile.mbps_for_cost(TOOLKIT_BER.decode),
            profile.mbps_for_cost(TOOLKIT_BER.encode),
            profile.mbps_for_cost(CHECKSUM_COST),
        ]
    )
    fused_mbps = profile.mbps_for_cost(CHECKSUM_COST.fuse_after(CONVERT_COST))
    conversion_cycles = profile.cycles(
        TOOLKIT_BER.decode, PACKET_BYTES
    ) + profile.cycles(TOOLKIT_BER.encode, PACKET_BYTES)
    layered_cycles = conversion_cycles + profile.cycles(
        CHECKSUM_COST, PACKET_BYTES
    )

    cache_snapshot = codec_cache.snapshot()
    rows = [
        Row(
            "presentation share, interpreted-layered",
            paper=0.97,
            measured=round(conversion_cycles / layered_cycles, 4),
            unit="frac",
        ),
        Row(
            "interpreted-layered, modelled",
            paper=None,
            measured=round(interpreted_mbps, 2),
            unit="Mb/s",
        ),
        Row(
            "compiled-fused, modelled",
            paper=None,
            measured=round(fused_mbps, 2),
            unit="Mb/s",
        ),
        Row(
            "compiled-fused speedup, modelled",
            paper=None,
            measured=round(fused_mbps / interpreted_mbps, 2),
            unit="x",
        ),
        Row(
            "chain read passes per ADU, compiled-fused",
            paper=None,
            measured=input_reads_per_adu,
            unit="passes",
            extra={"memory_passes_per_adu": passes_per_adu},
        ),
        Row(
            "codec compiles for the stream",
            paper=None,
            measured=float(cache_snapshot["misses"]),
            unit="compiles",
            extra={
                "hits": int(cache_snapshot["hits"]),
                "hit_rate": round(cache_snapshot["hit_rate"], 4),
            },
        ),
        Row(
            "batched pass, modelled",
            paper=None,
            measured=round(batch.report.mbps(), 2),
            unit="Mb/s",
            extra={"adus": n_adus, "adu_bytes": 4 * n_integers},
        ),
    ]
    return ExperimentResult(
        "P3",
        "Schema-compiled presentation fused into the integrated loop",
        rows,
        notes="the schema walk happens once at compile time, not per "
        "value; the resulting conversion kernel joins the checksum's "
        "integrated loop so the wire form and its checksum come from a "
        "single read pass over the arrival chain — outputs and checksums "
        "asserted byte-identical to the interpreted engineering",
    )


# ----------------------------------------------------------------------
# P4 — the full §6 single-pass secure pipeline


def secure_pipeline(
    n_adus: int = 32, n_integers: int = 512
) -> ExperimentResult:
    """P4: convert + encrypt + checksum as one fused loop per direction.

    Deterministic accounting of the complete §6 stage list: the sender
    compiles ``[convert, encrypt, checksum]`` and the receiver
    ``[checksum, decrypt, convert]``, each a single integrated read
    pass.  The layered engineering pays the interpreted codec walk, a
    separate cipher pass and a separate checksum pass per direction.
    Outputs, checksums and the decrypted round trip are asserted
    byte-identical; the receive side additionally drains the whole
    stream through one batched ``run_batch`` dispatch, as a receiver's
    drain engine does.  (The wall-clock >= 3x
    acceptance criterion lives in ``benchmarks/bench_secure_pipeline.py``;
    this battery stays bit-reproducible.)
    """
    from repro.buffers.chain import BufferChain
    from repro.buffers.segment import Segment
    from repro.ilp.compiler import PlanCache
    from repro.machine.accounting import DATAPATH
    from repro.presentation.compiler import CodecCache
    from repro.presentation.lwts import LwtsCodec
    from repro.stages.encrypt import WORD_XOR_COST, WordXorStage, secure_counters
    from repro.stages.presentation import CONVERT_COST, PresentationConvertStage
    from repro.transport.alf.wire import wire_pipeline

    profile = MIPS_R2000
    key = 0x5A5A1234
    schema = ArrayOf(Int32(), fixed_count=n_integers)
    local_codec = LwtsCodec(byte_order="little")
    wire_codec = LwtsCodec(byte_order="big")
    values = [
        integer_array(n_integers, seed=900 + index) for index in range(n_adus)
    ]
    payloads = [local_codec.encode(value, schema) for value in values]
    total_bytes = sum(len(payload) for payload in payloads)

    # Engineering 1: layered — interpreted codec walk, then a separate
    # cipher pass, then a separate checksum pass (three traversals out;
    # three more back in).
    cipher = WordXorStage(key)
    layered_wire = []
    layered_checksums = []
    for payload in payloads:
        value = local_codec.decode(payload, schema)
        converted = wire_codec.encode(value, schema)
        ciphertext = cipher.apply(converted)
        layered_wire.append(ciphertext)
        layered_checksums.append(internet_checksum(ciphertext))
    layered_back = []
    for ciphertext, checksum in zip(layered_wire, layered_checksums):
        assert internet_checksum(ciphertext) == checksum
        converted = cipher.apply(ciphertext)
        value = wire_codec.decode(converted, schema)
        layered_back.append(local_codec.encode(value, schema))
    assert layered_back == payloads

    # Engineering 2: compiled-fused — each direction is one plan whose
    # three kernels share a single read pass.
    codec_cache = CodecCache()
    plan_cache = PlanCache(capacity=8)

    def sender_pipeline() -> Pipeline:
        return wire_pipeline(
            PresentationConvertStage(
                schema, local_codec, wire_codec, codec_cache=codec_cache
            ),
            encrypt=WordXorStage(key, name="encrypt"),
        )

    def receiver_pipeline() -> Pipeline:
        return wire_pipeline(
            PresentationConvertStage(
                schema, wire_codec, local_codec, codec_cache=codec_cache
            ),
            convert_after=True,
            encrypt=WordXorStage(key, name="decrypt"),
        )

    sender_plan = plan_cache.get_or_compile(sender_pipeline(), profile)
    receiver_plan = plan_cache.get_or_compile(receiver_pipeline(), profile)
    assert len(sender_plan.groups) == 1, "sender stages did not fuse"
    assert len(receiver_plan.groups) == 1, "receiver stages did not fuse"

    secure = secure_counters()
    secure.reset()
    counters = DATAPATH
    counters.reset()
    fused_wire = []
    fused_checksums = []
    for payload in payloads:
        # Arrival shape: a multi-segment chain, as a scatter-gather
        # source produces.
        half = (len(payload) // 2) & ~3
        chain = BufferChain(
            [Segment.wrap(payload[:half]), Segment.wrap(payload[half:])]
        )
        output, observations = sender_plan.run_chain(chain)
        fused_wire.append(
            output.linearize() if isinstance(output, BufferChain) else bytes(output)
        )
        fused_checksums.append(observations["checksum-internet"])
    send_snapshot = counters.snapshot()
    counters.reset()
    send_gather = send_snapshot["copies_by_label"].get("gather-words", 0)
    send_reads_per_adu = send_gather / total_bytes

    fused_back = []
    for ciphertext, checksum in zip(fused_wire, fused_checksums):
        half = (len(ciphertext) // 2) & ~3
        chain = BufferChain(
            [Segment.wrap(ciphertext[:half]), Segment.wrap(ciphertext[half:])]
        )
        output, observations = receiver_plan.run_chain(chain)
        assert observations["checksum-internet"] == checksum
        fused_back.append(
            output.linearize() if isinstance(output, BufferChain) else bytes(output)
        )
    recv_snapshot = counters.snapshot()
    counters.reset()
    recv_gather = recv_snapshot["copies_by_label"].get("gather-words", 0)
    recv_reads_per_adu = recv_gather / total_bytes

    assert fused_wire == layered_wire, "fused wire form diverged"
    assert fused_checksums == layered_checksums, "fused checksum diverged"
    assert fused_back == payloads, "fused round trip diverged"

    # One batched receive-side dispatch over the whole stream, as a
    # drain engine runs it.
    batch = receiver_plan.run_batch(layered_wire)
    assert batch.outputs == payloads
    assert batch.observations["checksum-internet"] == layered_checksums
    secure_snapshot = secure.snapshot()

    # Modelled throughputs (Table 1 pricing): three serial passes per
    # direction against one fused loop.
    layered_mbps = combined_serial_mbps(
        [
            profile.mbps_for_cost(TOOLKIT_BER.decode),
            profile.mbps_for_cost(TOOLKIT_BER.encode),
            profile.mbps_for_cost(WORD_XOR_COST),
            profile.mbps_for_cost(CHECKSUM_COST),
        ]
    )
    fused_mbps = profile.mbps_for_cost(
        CHECKSUM_COST.fuse_after(WORD_XOR_COST.fuse_after(CONVERT_COST))
    )

    rows = [
        Row(
            "layered (convert + cipher + checksum), modelled",
            paper=None,
            measured=round(layered_mbps, 2),
            unit="Mb/s",
        ),
        Row(
            "fused single pass, modelled",
            paper=None,
            measured=round(fused_mbps, 2),
            unit="Mb/s",
        ),
        Row(
            "fused speedup, modelled",
            paper=None,
            measured=round(fused_mbps / layered_mbps, 2),
            unit="x",
        ),
        Row(
            "send-side read passes per ADU",
            paper=None,
            measured=send_reads_per_adu,
            unit="passes",
            extra={"fused_groups": len(sender_plan.groups)},
        ),
        Row(
            "receive-side read passes per ADU",
            paper=None,
            measured=recv_reads_per_adu,
            unit="passes",
            extra={"fused_groups": len(receiver_plan.groups)},
        ),
        Row(
            "cipher passes, fused vs interpreted",
            paper=None,
            measured=float(secure_snapshot["fused_passes"]),
            unit="passes",
            extra=secure_snapshot,
        ),
        Row(
            "batched receive drain, modelled",
            paper=None,
            measured=round(batch.report.mbps(), 2),
            unit="Mb/s",
            extra={"adus": n_adus, "adu_bytes": 4 * n_integers},
        ),
    ]
    return ExperimentResult(
        "P4",
        "Full §6 single-pass secure pipeline",
        rows,
        notes="the sender's [convert, encrypt, checksum] and the "
        "receiver's [checksum, decrypt, convert] each compile to one "
        "fused group — the checksum covers the ciphertext (verify "
        "before decrypt) and every direction reads its input exactly "
        "once; outputs, checksums and the decrypted round trip are "
        "asserted byte-identical to the layered engineering",
    )


# ----------------------------------------------------------------------
# P5 — host-level shared-plan drain engine (cross-flow batching)


def _drain_scenario(
    shared: bool,
    n_flows: int,
    n_adus: int,
    n_integers: int,
    key: int = 0x1F2E3D4C,
    epoch: float = 0.005,
) -> dict[str, Any]:
    """One multi-flow secure run; ``shared`` picks the drain engineering.

    ``shared=False`` is the baseline: every flow verifies each ADU on
    arrival (one wire-plan dispatch per ADU).  ``shared=True`` registers
    every accepted flow with one host-wide
    :class:`~repro.transport.drain.SharedDrainEngine` whose drain epoch
    is ``epoch`` seconds, so completions across flows coalesce.
    """
    from repro.ilp.compiler import PlanCache
    from repro.machine.accounting import DrainCounters
    from repro.presentation.lwts import LwtsCodec
    from repro.presentation.negotiate import LocalSyntax
    from repro.transport.drain import SharedDrainEngine
    from repro.transport.session import (
        SessionConfig,
        SessionInitiator,
        SessionListener,
    )

    schemas = {"ints": ArrayOf(Int32())}
    path = two_hosts(seed=42)
    plan_cache = PlanCache(capacity=32)
    counters = DrainCounters()
    engine = (
        SharedDrainEngine(path.loop, max_delay=epoch, counters=counters)
        if shared
        else None
    )
    delivered: dict[int, list[bytes]] = {}
    listener = SessionListener(
        path.loop,
        path.b,
        schemas,
        deliver=lambda fid, adu: delivered.setdefault(fid, []).append(
            bytes(adu.payload)
        ),
        plan_cache=plan_cache,
        presentation=True,
        encryption=key,
        drain_engine=engine,
    )
    initiators = [
        SessionInitiator(
            path.loop,
            path.a,
            "b",
            SessionConfig(
                schema_name="ints",
                local_syntax=LocalSyntax(f"init-{index}", "big"),
            ),
            schemas,
            plan_cache=plan_cache,
            presentation=True,
            encryption=key,
        )
        for index in range(n_flows)
    ]
    path.loop.run(until=5)
    assert all(initiator.established for initiator in initiators)

    local_codec = LwtsCodec(byte_order="big")
    expect_codec = LwtsCodec(byte_order="little")
    schema = schemas["ints"]
    values = [
        [integer_array(n_integers, seed=17 * index + seq) for seq in range(n_adus)]
        for index in range(n_flows)
    ]
    # Interleave sends across flows so completions from different
    # associations land close together — the workload a shared host
    # actually sees.
    for seq in range(n_adus):
        for index, initiator in enumerate(initiators):
            initiator.session.sender.send_adu(
                Adu(seq, local_codec.encode(values[index][seq], schema))
            )
    path.loop.run(until=60)
    if engine is not None:
        engine.flush()

    receivers = [
        listener.sessions[initiator.flow_id].receiver
        for initiator in initiators
    ]
    for index, initiator in enumerate(initiators):
        rows = delivered.get(initiator.flow_id, [])
        assert len(rows) == n_adus, (
            f"flow {index}: {len(rows)}/{n_adus} ADUs delivered"
        )
        expected = [
            expect_codec.encode(values[index][seq], schema)
            for seq in range(n_adus)
        ]
        assert sorted(rows) == sorted(expected), f"flow {index} payloads diverged"
    # On arrival, every completed ADU is one plan dispatch: delivered
    # or failed, and nothing else completes.
    dispatches = (
        counters.dispatches
        if shared
        else sum(
            receiver.delivered_count + receiver.stats.checksum_failures
            for receiver in receivers
        )
    )
    ordered = [
        [delivered[initiator.flow_id][seq] for seq in range(n_adus)]
        for initiator in initiators
    ]
    return {
        "dispatches": dispatches,
        "rows": sum(len(rows) for rows in delivered.values()),
        "payloads": ordered,
        "counters": counters.snapshot() if shared else None,
        "groups": engine.group_count if engine is not None else n_flows,
    }


def multiflow_drain(
    n_flows: int = 16, n_adus: int = 6, n_integers: int = 64
) -> ExperimentResult:
    """P5: one host-wide drain engine vs one verify per ADU on arrival.

    Every flow negotiates the same secure association shape
    ([checksum, decrypt, convert] on the receive side), so their wire
    plans share a compiled-plan cache entry — and therefore a drain
    key.  Verifying on arrival pays one plan dispatch per ADU; the
    shared engine coalesces the completions of all flows inside a
    drain epoch into one dispatch.
    Delivery is asserted byte-identical (and exactly once) under both
    engineerings.
    """
    on_arrival = _drain_scenario(
        shared=False, n_flows=n_flows, n_adus=n_adus, n_integers=n_integers
    )
    shared = _drain_scenario(
        shared=True, n_flows=n_flows, n_adus=n_adus, n_integers=n_integers
    )
    assert shared["payloads"] == on_arrival["payloads"], (
        "shared-drain delivery diverged from on-arrival delivery"
    )
    assert shared["groups"] == 1, "flows did not share one plan shape"
    assert on_arrival["rows"] == shared["rows"] == n_flows * n_adus
    ratio = on_arrival["dispatches"] / max(shared["dispatches"], 1)
    snapshot = shared["counters"]
    rows = [
        Row(
            "plan dispatches, one verify per ADU",
            paper=None,
            measured=float(on_arrival["dispatches"]),
            unit="dispatches",
            extra={"flows": n_flows, "adus_per_flow": n_adus},
        ),
        Row(
            "plan dispatches, shared engine",
            paper=None,
            measured=float(shared["dispatches"]),
            unit="dispatches",
            extra={"epochs": snapshot["epochs"],
                   "fairness_stalls": snapshot["fairness_stalls"]},
        ),
        Row(
            "dispatch amortization",
            paper=None,
            measured=round(ratio, 2),
            unit="x",
        ),
        Row(
            "ADU rows per shared dispatch",
            paper=None,
            measured=round(snapshot["rows_per_dispatch"], 2),
            unit="rows",
            extra={"cross_flow_batches": snapshot["cross_flow_batches"]},
        ),
        Row(
            "wire-plan shapes across flows",
            paper=None,
            measured=float(shared["groups"]),
            unit="groups",
        ),
    ]
    return ExperimentResult(
        "P5",
        "Shared-plan cross-flow drain engine",
        rows,
        notes=f"{n_flows} concurrent secure associations share one "
        "compiled wire-plan shape, so one host-wide engine drains them "
        "all: completions coalesce per epoch into one run_batch over "
        "every flow's rows instead of one dispatch per ADU — delivery "
        "asserted byte-identical and exactly-once under both "
        "engineerings, with per-row verification isolating corruption "
        "to the owning flow",
    )


# ----------------------------------------------------------------------
# P6 — sharded hosts: flow-hash demux to per-shard drain workers


def _sharded_scenario(
    n_shards: int, n_flows: int, n_adus: int, payload_bytes: int
) -> dict:
    """One machine serving ``n_flows`` across ``n_shards`` workers.

    Fixed flow ids (0..F-1) and one deterministic event loop, so
    the crc32 placement — and every counter below — is identical on
    every run.  Returns deterministic counters plus the delivered
    payload map and the teardown leak reports.
    """
    from repro.ilp.compiler import PlanCache
    from repro.machine.accounting import ShardCounters
    from repro.net.shard import ShardedHost

    path = two_hosts(seed=7)
    demux = ShardCounters()
    sharded = ShardedHost(
        path.b, n_shards, rng=RngStreams(7), counters=demux, protocols=("alf",)
    )
    plan_cache = PlanCache(capacity=8)
    delivered: dict[int, list[tuple[int, bytes]]] = {}
    receivers = []
    for flow_id in range(n_flows):
        shard = sharded.shard_for("alf", flow_id)
        receivers.append(
            AlfReceiver(
                shard.loop,
                shard.host,
                "a",
                flow_id,
                deliver=lambda adu, fid=flow_id: delivered.setdefault(
                    fid, []
                ).append((adu.sequence, bytes(adu.payload))),
                ack_interval=0,
                plan_cache=plan_cache,
                drain_engine=shard.engine,
            )
        )
    senders = [
        AlfSender(path.loop, path.a, "b", flow_id, plan_cache=plan_cache)
        for flow_id in range(n_flows)
    ]
    payloads = {
        (flow_id, seq): bytes(
            (flow_id * 31 + seq + offset) & 0xFF for offset in range(payload_bytes)
        )
        for flow_id in range(n_flows)
        for seq in range(n_adus)
    }
    # Each flow sends its ADUs back-to-back: the packet trains §4's
    # header prediction is built for, so the per-host hot-flow memo on
    # each shard sees the same locality.
    for sender in senders:
        for seq in range(n_adus):
            sender.send_adu(Adu(seq, payloads[(sender.flow_id, seq)]))
    path.loop.run(until=30)
    sharded.drain()
    flows_per_shard = [shard.engine.flow_count for shard in sharded.shards]
    scan_visits = sum(shard.counters.scan_visits for shard in sharded.shards)
    dispatches = sum(shard.counters.dispatches for shard in sharded.shards)
    for receiver in receivers:
        receiver.close()
    leaks = sharded.shutdown()
    return {
        "payloads": {
            fid: sorted(rows) for fid, rows in delivered.items()
        },
        "scan_visits": scan_visits,
        "dispatches": dispatches,
        "delivered_total": sharded.delivered_total,
        "flows_per_shard": flows_per_shard,
        "demux": demux.snapshot(),
        "leaked": sum(len(report) for report in leaks.values()),
    }


def sharded_hosts(
    n_flows: int = 64, n_adus: int = 4, payload_bytes: int = 128
) -> ExperimentResult:
    """P6: one receive stack vs four per-shard drain workers.

    The shared engine's backlog bookkeeping is linear: each completion
    touches only its own flow (a running pending count) and a drain
    window examines only the backlogged flows, so the scan costs O(1)
    per ADU whether one engine holds every flow or four engines split
    them.  Sharding therefore does not divide a scan; it isolates
    shard-private pools and counters while delivery stays
    byte-identical and exactly-once.  All counters are deterministic
    (one event loop, fixed flow ids, no wall clock).
    """
    single = _sharded_scenario(1, n_flows, n_adus, payload_bytes)
    sharded = _sharded_scenario(4, n_flows, n_adus, payload_bytes)
    assert sharded["payloads"] == single["payloads"], (
        "sharded delivery diverged from single-shard delivery"
    )
    assert all(
        len(rows) == n_adus for rows in sharded["payloads"].values()
    ), "a flow delivered more or fewer ADUs than were sent"
    assert single["leaked"] == sharded["leaked"] == 0
    adus = n_flows * n_adus
    rows = [
        Row(
            "backlog scan visits per ADU, 1 shard",
            paper=None,
            measured=round(single["scan_visits"] / adus, 3),
            unit="visits/ADU",
            extra={"flows": n_flows, "adus_per_flow": n_adus},
        ),
        Row(
            "backlog scan visits per ADU, 4 shards",
            paper=None,
            measured=round(sharded["scan_visits"] / adus, 3),
            unit="visits/ADU",
            extra={"flows_per_shard": sharded["flows_per_shard"]},
        ),
        Row(
            "placement probes per packet",
            paper=None,
            measured=round(
                sharded["demux"]["demux_runs"] / sharded["demux"]["packets"], 3
            ),
            unit="probes",
            extra={"packets": sharded["demux"]["packets"]},
        ),
        Row(
            "ADUs delivered (4 shards)",
            paper=None,
            measured=float(sharded["delivered_total"]),
            unit="ADUs",
            extra={"dispatches": sharded["dispatches"]},
        ),
        Row(
            "leaked buffers after teardown",
            paper=None,
            measured=float(sharded["leaked"]),
            unit="buffers",
        ),
    ]
    return ExperimentResult(
        "P6",
        "Sharded hosts: per-shard drain workers",
        rows,
        notes=f"{n_flows} flows on one machine, demuxed by stable flow "
        "hash to 4 worker shards (own engine and rx pool each): "
        "the drain engine's backlog bookkeeping is O(1) per ADU on one "
        "shard and on four, delivery stays byte-identical and "
        "exactly-once, and every shard tears down to a clean leak "
        "report — counters only, so the result is deterministic on "
        "the one event loop the shards share",
    )
