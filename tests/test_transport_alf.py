"""ALF transport: out-of-order delivery, named losses, recovery modes."""

import pytest

from repro.bench.workloads import octet_payload
from repro.core.adu import Adu
from repro.errors import TransportError
from repro.net.topology import two_hosts
from repro.transport.alf import AlfReceiver, AlfSender, RecoveryMode


def make_adus(count=30, size=2500):
    return [
        Adu(i, octet_payload(size, seed=100 + i), {"offset": i * size})
        for i in range(count)
    ]


def run_transfer(
    adus,
    seed=0,
    loss_rate=0.0,
    reorder_rate=0.0,
    duplicate_rate=0.0,
    recovery=RecoveryMode.TRANSPORT_BUFFER,
    recompute=None,
    horizon=120.0,
    **sender_kwargs,
):
    path = two_hosts(
        seed=seed,
        loss_rate=loss_rate,
        reorder_rate=reorder_rate,
        duplicate_rate=duplicate_rate,
        bandwidth_bps=50e6,
    )
    got = {}
    receiver = AlfReceiver(
        path.loop, path.b, "a", 1,
        deliver=lambda d: got.setdefault(d.sequence, d),
        expected_adus=len(adus),
    )
    finished = []
    sender = AlfSender(
        path.loop, path.a, "b", 1,
        recovery=recovery,
        recompute=recompute,
        on_complete=lambda: finished.append(path.loop.now),
        **sender_kwargs,
    )
    for adu in adus:
        sender.send_adu(adu)
    sender.close()
    path.loop.run(until=horizon)
    return got, sender, receiver, finished


class TestCleanPath:
    def test_all_delivered_in_order_flagged(self):
        adus = make_adus(10)
        got, sender, receiver, finished = run_transfer(adus)
        assert len(got) == 10
        assert all(got[a.sequence].payload == a.payload for a in adus)
        assert receiver.out_of_order_deliveries == 0
        assert finished

    def test_names_travel_with_adus(self):
        adus = make_adus(5)
        got, *_ = run_transfer(adus)
        for adu in adus:
            assert got[adu.sequence].name == {"offset": adu.sequence * 2500}

    def test_duplicate_send_rejected(self):
        path = two_hosts()
        sender = AlfSender(path.loop, path.a, "b", 1)
        sender.send_adu(Adu(0, b"x"))
        with pytest.raises(TransportError, match="already sent"):
            sender.send_adu(Adu(0, b"y"))

    def test_duplicate_of_a_queued_adu_rejected(self):
        """A sequence waiting for a window slot is taken.  Accepted, the
        copy would go out after the first ADU 1 was acknowledged, where
        no ACK can retire it: retransmitted until abandoned, its payload
        lost without an error."""
        path = two_hosts(seed=1)
        got = []
        AlfReceiver(
            path.loop, path.b, "a", 1,
            deliver=lambda d: got.append((d.sequence, d.payload)),
        )
        sender = AlfSender(path.loop, path.a, "b", 1, max_outstanding=1)
        sender.send_adu(Adu(0, b"zero"))
        sender.send_adu(Adu(1, b"one"))
        assert sender.queued_count == 1
        with pytest.raises(TransportError, match="already sent"):
            sender.send_adu(Adu(1, b"other"))
        sender.close()
        path.loop.run(until=30)
        assert got == [(0, b"zero"), (1, b"one")]
        assert sender.stats.retransmissions == 0
        assert not sender.adus_abandoned

    def test_acknowledged_adu_cannot_be_sent_again(self):
        path = two_hosts(seed=1)
        AlfReceiver(path.loop, path.b, "a", 1, deliver=lambda d: None)
        sender = AlfSender(path.loop, path.a, "b", 1)
        sender.send_adu(Adu(0, b"zero"))
        path.loop.run(until=1.0)
        assert sender.outstanding_count == 0
        with pytest.raises(TransportError, match="already sent"):
            sender.send_adu(Adu(0, b"again"))

    def test_send_after_close_rejected(self):
        path = two_hosts()
        sender = AlfSender(path.loop, path.a, "b", 1)
        sender.close()
        with pytest.raises(TransportError):
            sender.send_adu(Adu(0, b"x"))

    def test_recompute_mode_requires_callback(self):
        path = two_hosts()
        with pytest.raises(TransportError, match="recompute"):
            AlfSender(
                path.loop, path.a, "b", 1,
                recovery=RecoveryMode.APP_RECOMPUTE,
            )


class TestLossRecovery:
    def test_transport_buffer_mode_repairs(self):
        adus = make_adus(30)
        got, sender, receiver, finished = run_transfer(
            adus, seed=2, loss_rate=0.05
        )
        assert len(got) == 30
        assert all(got[a.sequence].payload == a.payload for a in adus)
        assert sender.stats.retransmissions > 0
        assert finished

    def test_out_of_order_delivery_happens(self):
        adus = make_adus(30)
        got, _, receiver, _ = run_transfer(adus, seed=3, loss_rate=0.05)
        assert receiver.out_of_order_deliveries > 0
        assert len(got) == 30

    def test_app_recompute_mode(self):
        adus = make_adus(30)
        recomputed = []

        def recompute(sequence):
            recomputed.append(sequence)
            return adus[sequence]

        got, sender, _, finished = run_transfer(
            adus, seed=4, loss_rate=0.05,
            recovery=RecoveryMode.APP_RECOMPUTE, recompute=recompute,
        )
        assert len(got) == 30
        assert sender.adus_recomputed == len(recomputed) > 0
        assert sender.buffered_bytes == 0  # nothing retained, ever
        assert finished

    def test_no_retransmit_mode_accepts_loss(self):
        adus = make_adus(40, size=800)
        got, sender, _, finished = run_transfer(
            adus, seed=5, loss_rate=0.10,
            recovery=RecoveryMode.NO_RETRANSMIT,
        )
        assert sender.stats.retransmissions == 0
        assert 0 < len(got) < 40  # losses accepted
        assert finished  # completion without repair

    def test_buffer_mode_retains_until_acked(self):
        path = two_hosts(bandwidth_bps=1e3)  # glacial: nothing acked yet
        sender = AlfSender(path.loop, path.a, "b", 1)
        sender.send_adu(Adu(0, bytes(1000)))
        assert sender.buffered_bytes == 1000

    def test_reordering_and_duplication_tolerated(self):
        adus = make_adus(30)
        got, *_ = run_transfer(
            adus, seed=6, loss_rate=0.03, reorder_rate=0.1,
            duplicate_rate=0.1,
        )
        assert len(got) == 30
        assert all(got[a.sequence].payload == a.payload for a in adus)

    def test_max_attempts_abandons(self):
        path = two_hosts(seed=7, loss_rate=1.0)  # black hole
        sender = AlfSender(
            path.loop, path.a, "b", 1, rto=0.05, max_attempts=3,
        )
        sender.send_adu(Adu(0, bytes(100)))
        sender.close()
        path.loop.run(until=30)
        assert 0 in sender.adus_abandoned
        assert sender.outstanding_count == 0

    def test_abandoned_sequence_may_be_sent_again(self):
        path = two_hosts(seed=7, loss_rate=1.0)  # black hole
        sender = AlfSender(
            path.loop, path.a, "b", 1, rto=0.05, max_attempts=3,
        )
        sender.send_adu(Adu(0, bytes(100)))
        path.loop.run(until=30)
        assert 0 in sender.adus_abandoned
        sender.send_adu(Adu(0, bytes(100)))
        assert sender.outstanding_count == 1


class TestTwoStageReceive:
    @pytest.mark.parametrize("drained", [False, True], ids=["on-arrival", "shared-drain"])
    def test_stage_one_is_control_only(self, monkeypatch, drained):
        """§6's two-stage receive on the live receiver: reassembly
        charges control instructions and runs no data pass; the wire
        plan runs once, on the complete ADU."""
        from repro.core.adu import fragment_adu
        from repro.ilp.compiler import CompiledPlan
        from repro.net.packet import Packet
        from repro.transport.drain import SharedDrainEngine

        plan_runs = []
        for method in ("run", "run_chain", "run_batch"):
            original = getattr(CompiledPlan, method)

            def counted(plan, *args, _original=original, _method=method, **kwargs):
                plan_runs.append(_method)
                return _original(plan, *args, **kwargs)

            monkeypatch.setattr(CompiledPlan, method, counted)

        path = two_hosts(seed=8)
        got = []
        receiver = AlfReceiver(
            path.loop, path.b, "a", 1, deliver=got.append,
            drain_engine=SharedDrainEngine(path.loop) if drained else None,
        )
        adu = Adu(0, octet_payload(1200, seed=3), {"frame": 3})
        fragments = fragment_adu(adu, 500)

        def inject(fragment):
            path.a.send(Packet(
                src="a", dst="b", protocol="alf", flow_id=1,
                header={
                    "adu_seq": fragment.adu_sequence,
                    "frag": fragment.index,
                    "nfrags": fragment.total,
                    "adu_len": fragment.adu_length,
                    "adu_csum": fragment.adu_checksum,
                    "name": fragment.name,
                    "ts": 0.0,
                },
                payload=fragment.payload,
            ))

        for fragment in fragments[:-1]:
            inject(fragment)
        path.loop.run(until=1.0)
        assert receiver.counter.by_operation["reassembly_bookkeeping"] > 0
        assert plan_runs == []
        assert got == []

        inject(fragments[-1])
        path.loop.run(until=2.0)
        assert len(plan_runs) == 1
        assert [(d.sequence, d.payload) for d in got] == [(0, adu.payload)]
        receiver.close()


class TestReceiverReporting:
    def test_expected_adus_completion_flag(self):
        adus = make_adus(5)
        got, _, receiver, _ = run_transfer(adus)
        assert receiver.complete

    def test_determinism(self):
        adus = make_adus(20)
        a = run_transfer(adus, seed=11, loss_rate=0.05)[1].stats.retransmissions
        b = run_transfer(adus, seed=11, loss_rate=0.05)[1].stats.retransmissions
        assert a == b
