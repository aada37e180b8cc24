#!/usr/bin/env python
"""Session negotiation + ALF over ATM-sized units, with and without FEC.

Puts several subsystems together the way a downstream user would:

1. a session handshake negotiates the conversion plan (the two hosts
   here differ in byte order, so the sender converts directly into the
   receiver's representation);
2. the established ALF association carries integer-array ADUs fragmented
   to ATM-cell-sized transmission units over a lossy path;
3. the same workload is then pushed through the adaptation layer with
   FEC parity groups, showing the survival difference footnote 10 hints
   at.

Run:  python examples/session_over_atm.py
"""

from repro.bench.experiments import fec_roundtrip
from repro.core.adu import Adu
from repro.net.topology import two_hosts
from repro.presentation.abstract import ArrayOf, Int32
from repro.presentation.negotiate import LocalSyntax
from repro.sim.rng import RngStreams
from repro.transport.alf.fec import survival_probability
from repro.transport.session import (
    SessionConfig,
    SessionInitiator,
    SessionListener,
)

SCHEMAS = {"samples": ArrayOf(Int32())}
CELL_MTU = 44


def negotiated_session_demo() -> None:
    print("== 1. Session negotiation across byte orders ==")
    path = two_hosts(seed=11, loss_rate=0.02)
    delivered = []
    listener = SessionListener(
        path.loop, path.b, SCHEMAS,
        local_syntax=LocalSyntax("receiver-le", "little"),
        deliver=lambda fid, adu: delivered.append(adu),
    )
    initiator = SessionInitiator(
        path.loop, path.a, "b",
        SessionConfig(
            schema_name="samples",
            mtu=CELL_MTU,
            local_syntax=LocalSyntax("sender-be", "big"),
        ),
        SCHEMAS,
    )
    path.loop.run(until=2)
    session = initiator.session
    assert session is not None
    print(f"  negotiated: {session.plan.describe()}")

    rng = RngStreams(1).stream("samples")
    values = [rng.randint(-1000, 1000) for _ in range(200)]
    payload = session.plan.codec.encode(values, SCHEMAS["samples"])
    session.sender.send_adu(Adu(0, payload, {"kind": "samples"}))
    path.loop.run(until=10)

    received = session.plan.codec.decode(delivered[0].payload, SCHEMAS["samples"])
    print(f"  200 integers across {-(-len(payload) // CELL_MTU)} cell-sized "
          f"units over 2% loss: intact={received == values}")
    print()


def fec_demo() -> None:
    print("== 2. ADU survival at cell granularity, with and without FEC ==")
    rng = RngStreams(2).stream("fec")
    loss = 5e-3
    adu_bytes = 8192
    n_trials = 200
    print(f"  ADU {adu_bytes} B in {CELL_MTU} B units, unit loss {loss:.3f}, "
          f"{n_trials} trials:")
    for group_size in (None, 8):
        survived = 0
        for trial in range(n_trials):
            payload = rng.randbytes(adu_bytes)
            result = fec_roundtrip(
                payload, CELL_MTU, group_size, lambda: rng.random() >= loss
            )
            if result == payload:
                survived += 1
        label = "plain" if group_size is None else f"FEC(k={group_size})"
        analytic = survival_probability(
            -(-adu_bytes // CELL_MTU), loss, group_size
        )
        print(f"    {label:<10} measured {survived / n_trials:5.1%}   "
              f"analytic {analytic:5.1%}")
    print()
    print("One parity unit per eight rescues the large ADU — 'lower layer")
    print("recovery schemes, such as forward error correction (FEC), may be")
    print("applied to these transmission units' (paper, footnote 10).")


def main() -> None:
    negotiated_session_demo()
    fec_demo()


if __name__ == "__main__":
    main()
