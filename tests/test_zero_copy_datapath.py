"""End-to-end zero-copy datapath: acceptance criteria and equivalences.

The headline claim, measured rather than asserted: a steady-state ALF
transfer of 64 KB ADUs in 8 fragments copies each ADU exactly once on
the scatter-gather chain path (the delivery linearize) and reads it once
per checksum, with byte-identical delivered ADUs.  The layered path
(byte fragments, joined reassembly) now also copies each ADU once — its
reassembly join — because fragmenting views its buffer and the checksum
plans read the payload in place.
"""

from __future__ import annotations

import random

import numpy as np
import pytest

from repro.buffers import BufferChain, BufferPool
from repro.core.adu import (
    Adu,
    fragment_adu,
    fragment_payloads,
    reassemble_fragments,
)
from repro.ilp.kernels import checksum_chain, gather_words, pack_native
from repro.machine.accounting import datapath_counters
from repro.net.host import Host
from repro.net.link import Link
from repro.sim.eventloop import EventLoop
from repro.stages.checksum import internet_checksum
from repro.transport.alf import AlfReceiver, AlfSender


@pytest.fixture(autouse=True)
def _clean_counters():
    datapath_counters().reset()
    yield
    datapath_counters().reset()


def run_transfer(payloads, zero_copy, rx_pool=None, loss=0.0, duplicate=0.0):
    loop = EventLoop()
    a = Host(loop, "a")
    b = Host(loop, "b", rx_pool=rx_pool)
    link_ab = Link(loop, random.Random(3), loss_rate=loss, duplicate_rate=duplicate)
    link_ba = Link(loop, random.Random(4))
    a.add_link("b", link_ab)
    b.add_link("a", link_ba)
    link_ab.connect(b.receive)
    link_ba.connect(a.receive)
    delivered = {}
    chains_seen = []
    AlfReceiver(
        loop, b, "a", 1,
        deliver=lambda d: (
            delivered.__setitem__(d.sequence, d.payload),
            chains_seen.append(d.chain),
        ),
        zero_copy=zero_copy,
    )
    sender = AlfSender(loop, a, "b", 1, mtu=8192)
    for i, payload in enumerate(payloads):
        sender.send_adu(Adu(sequence=i, payload=payload, name={"i": i}))
    loop.run(until=60.0)
    return delivered, chains_seen


class TestAcceptance:
    def test_64k_adu_8_fragments_copied_once_on_either_path(self):
        rng = random.Random(11)
        payloads = [rng.randbytes(64 * 1024) for _ in range(4)]
        counters = datapath_counters()

        counters.reset()
        layered, _ = run_transfer(payloads, zero_copy=False)
        layered_snap = counters.snapshot()

        counters.reset()
        chained, chains = run_transfer(payloads, zero_copy=True)
        chain_snap = counters.snapshot()

        # Byte-identical delivery on both paths.
        assert [layered[i] for i in range(4)] == payloads
        assert [chained[i] for i in range(4)] == payloads
        # The delivery callback saw the backing chain as a loan.
        assert all(isinstance(c, BufferChain) for c in chains)

        total = sum(map(len, payloads))
        # The chain path's only materialization is the delivery
        # linearize, one per ADU; each end's checksum reads in place.
        assert set(chain_snap["copies_by_label"]) == {"linearize"}
        assert chain_snap["copies"] == len(payloads)
        assert chain_snap["bytes_copied"] == total
        assert chain_snap["read_passes"] == 2 * len(payloads)
        # The layered path's only materialization is the reassembly
        # join, one per ADU; its checksums read in place too.
        assert layered_snap["copies_by_label"] == {"reassemble-join": total}
        assert layered_snap["copies"] == len(payloads)
        assert layered_snap["read_passes"] == 2 * len(payloads)

    def test_rx_pool_dma_path_recycles_under_loss_and_duplication(self):
        pool = BufferPool(128, 8192, label="rx")
        rng = random.Random(12)
        payloads = [rng.randbytes(64 * 1024) for _ in range(4)]
        delivered, _ = run_transfer(
            payloads, zero_copy=False, rx_pool=pool, loss=0.08, duplicate=0.08
        )
        assert [delivered[i] for i in range(4)] == payloads
        snap = pool.snapshot()
        assert snap["in_use"] == 0
        assert snap["hits"] == snap["recycled"] > 0
        assert pool.leak_report() == []


class TestKernelEquivalences:
    def test_checksum_chain_matches_linear_checksum(self):
        rng = random.Random(13)
        for trial in range(20):
            data = rng.randbytes(rng.randrange(1, 4000))
            chain = BufferChain.wrap(data)
            pieces = list(chain.chunks(rng.randrange(1, 700)))
            rebuilt = BufferChain()
            for piece in pieces:
                rebuilt.extend(piece)
            assert checksum_chain(rebuilt) == internet_checksum(data)

    def test_gather_words_matches_pack_native(self):
        rng = random.Random(14)
        data = rng.randbytes(1000)
        chain = BufferChain.wrap(data)
        rebuilt = BufferChain()
        for piece in chain.chunks(333):
            rebuilt.extend(piece)
        gathered, glen = gather_words(rebuilt)
        packed, plen, _ = pack_native(data)
        assert glen == plen
        assert (gathered == packed).all()


class TestNoCopyWordPacking:
    def test_pack_native_aliases_aligned_input(self):
        data = bytearray(range(64))
        words, length, owned = pack_native(data)
        assert owned is False and length == 64
        assert np.shares_memory(words, np.frombuffer(data, dtype=np.uint8))
        data[0] = 0xFF
        assert words[0] != pack_native(bytes(64))[0][0]
        assert datapath_counters().snapshot()["copies"] == 0

    def test_pack_native_views_a_memoryview_in_place(self):
        data = bytearray(range(64))
        mv = memoryview(data)
        from_mv, _, owned = pack_native(mv)
        from_bytes, _, _ = pack_native(bytes(data))
        assert owned is False
        assert np.shares_memory(from_mv, np.frombuffer(data, dtype=np.uint8))
        assert (from_mv == from_bytes).all()

    def test_pack_native_views_a_slice_of_a_buffer(self):
        backing = bytearray(range(100))
        words, length, owned = pack_native(memoryview(backing)[4:68])
        reference, _, _ = pack_native(bytes(backing[4:68]))
        assert length == 64 and owned is False
        assert np.shares_memory(words, np.frombuffer(backing, dtype=np.uint8))
        assert (words == reference).all()

    def test_pack_native_pads_a_partial_word_with_one_copy(self):
        data = bytearray(range(66))
        words, length, owned = pack_native(data)
        assert length == 66 and owned is True
        assert not np.shares_memory(words, np.frombuffer(data, dtype=np.uint8))
        assert words.view(np.uint8)[:66].tobytes() == bytes(data)
        assert words.view(np.uint8)[66:].tobytes() == b"\x00\x00"
        assert datapath_counters().snapshot()["copies_by_label"] == {
            "pack-pad": 66
        }


class TestFragmentLedger:
    @pytest.mark.parametrize("length", [1, 63, 64, 65, 200])
    def test_mutable_payload_slices_are_recorded_at_any_length(self, length):
        data = bytes(range(256))[:length]
        pieces = fragment_payloads(bytearray(data), 64)
        assert b"".join(bytes(piece) for piece in pieces) == data
        snap = datapath_counters().snapshot()
        assert snap["copies"] == 1
        assert snap["copies_by_label"] == {"fragment-slice": length}

    @pytest.mark.parametrize("length", [1, 64, 200])
    def test_bytes_and_memoryview_pieces_copy_nothing(self, length):
        data = bytes(range(256))[:length]
        for payload in (data, memoryview(data)):
            pieces = fragment_payloads(payload, 64)
            assert b"".join(bytes(piece) for piece in pieces) == data
        assert datapath_counters().snapshot()["copies"] == 0


class TestFragmentChains:
    def test_zero_copy_fragmentation_references_the_adu(self):
        payload = bytes(range(256)) * 64  # 16 KB
        counters = datapath_counters()
        # A chain ADU fragments into refcounted chain windows.
        chain = BufferChain.wrap(payload)
        counters.reset()
        fragments = fragment_adu(Adu(0, chain, {}), 4096, checksum=0)
        assert counters.snapshot()["copies"] == 0
        assert all(isinstance(f.payload, BufferChain) for f in fragments)
        assert b"".join(f.payload.linearize() for f in fragments) == payload
        # A bytes ADU fragments into views over its buffer.
        counters.reset()
        fragments = fragment_adu(Adu(1, payload, {}), 4096, checksum=0)
        assert counters.snapshot()["copies"] == 0
        assert all(isinstance(f.payload, memoryview) for f in fragments)
        assert all(f.payload.obj is payload for f in fragments)
        assert b"".join(f.payload for f in fragments) == payload

    def test_reassemble_as_chain_is_structural(self):
        payload = bytes(range(256)) * 16
        adu = Adu(sequence=0, payload=BufferChain.wrap(payload), name={})
        fragments = fragment_adu(adu, 1024, checksum=None)
        counters = datapath_counters()
        counters.reset()
        rebuilt = reassemble_fragments(fragments, verify=False, as_chain=True)
        assert counters.snapshot()["copies"] == 0
        assert isinstance(rebuilt.payload, BufferChain)
        assert rebuilt.payload.linearize() == payload
