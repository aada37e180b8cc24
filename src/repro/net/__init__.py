"""Simulated network substrate.

Links with bandwidth, propagation delay, loss, reordering and
duplication; a store-and-forward switch with finite queues; hosts with
protocol demultiplexing; and an ATM cell layer (48-byte cells with an
adaptation sublayer) — the "range of coming network technology" (§1) the
new protocol generation must run over.

Everything is deterministic given a seed: the failure processes draw from
named :class:`~repro.sim.rng.RngStreams`.
"""

from repro.net.packet import Packet, HEADER_OVERHEAD_BYTES
from repro.net.link import Link, LinkStats
from repro.net.switch import StoreAndForwardSwitch
from repro.net.host import Host
from repro.net.shard import (
    HostShard,
    ShardedHost,
    shard_index,
)
from repro.net.atm import (
    AtmCell,
    AtmAdaptationLayer,
    CELL_PAYLOAD_BYTES,
    CELL_TOTAL_BYTES,
)
from repro.net.topology import two_hosts, hosts_via_switch, two_hosts_dual_path

__all__ = [
    "Packet",
    "HEADER_OVERHEAD_BYTES",
    "Link",
    "LinkStats",
    "StoreAndForwardSwitch",
    "Host",
    "HostShard",
    "ShardedHost",
    "shard_index",
    "AtmCell",
    "AtmAdaptationLayer",
    "CELL_PAYLOAD_BYTES",
    "CELL_TOTAL_BYTES",
    "two_hosts",
    "hosts_via_switch",
    "two_hosts_dual_path",
]
