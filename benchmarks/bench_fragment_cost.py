"""Per-fragment control cost of the bulk datapath, as an exact call count.

The paper budgets transfer control at tens of instructions per packet
(§4), and ALF makes the ADU the unit of work.  On the end-to-end
benchmark's ``bulk_secure`` workload (16 KiB ADUs cut into 16 fragments
at MTU 1024, converted, enciphered and checksummed, every train steered
straight onto its shard), the fragment is what the control path pays
for: each one is built into a packet, serialized and boarded onto a
train by the link, DMA'd into a pool buffer, checked by the receiver,
gathered for the batch verify and released.

This bench counts that cost exactly.  It imports the end-to-end
``workloads`` module unchanged, runs one 1/16-scale seed-1
``bulk_secure`` pass to warm every process-wide cache, then counts two
more passes under ``sys.setprofile``: every call to a Python function
that the program's own code makes (calls made by the standard library,
numpy or dataclass-generated code are left out), divided by the
fragments the pass offers.  The count is reported as two shares:

* **send** — calls made while ``AlfSender._transmit`` is on the stack:
  the ADU's wire units and packets, and the host's and link's send;
* **receive** — every other call of the pass: train delivery, steering,
  DMA, the whole-ADU check, the batch verify, delivery, release, the
  ACKs both ways and the event loops.

Counts repeat to the call, so the gate is exact and cannot flake: the
total must stay at or under :data:`CALLS_PER_FRAGMENT_MAX`.  Builtin
calls are reported beside it, ungated.  Emits a machine-readable JSON
record (``FRAGMENT_COST_JSON`` line and
``benchmarks/out/bench_fragment_cost.json``).

Run with ``PYTHONPATH=src python -m pytest benchmarks/bench_fragment_cost.py``.
"""

from __future__ import annotations

import contextlib
import json
import sys
from pathlib import Path

import pytest

import repro
from repro.transport.alf.sender import AlfSender

sys.path.insert(0, str(Path(__file__).resolve().parent / "e2e"))

import workloads  # noqa: E402  (the end-to-end workloads, unedited)

WORKLOAD = "bulk_secure"
SCALE = 1 / 16
SEED = 1

#: Ceiling on the program's Python calls per fragment: today's 15.65
#: rounded up by less than one call, so one more call per fragment
#: fails the gate.  Lower it when the datapath gets cheaper.
CALLS_PER_FRAGMENT_MAX = 16.0

OUT_DIR = Path(__file__).resolve().parent / "out"

#: Source directory of the program's own code.
_PROGRAM = str(Path(repro.__file__).parent)
#: The sender's per-ADU transmit: calls under it are the send share.
_TRANSMIT = AlfSender._transmit.__code__


@contextlib.contextmanager
def counting(counts: dict[str, int]):
    """Count the program's calls into ``counts`` while entered."""
    send_root = None

    def ours(frame) -> bool:
        return frame is not None and frame.f_code.co_filename.startswith(_PROGRAM)

    def profile(frame, event, arg) -> None:
        nonlocal send_root
        if event == "call":
            if send_root is None and frame.f_code is _TRANSMIT:
                send_root = frame
            if ours(frame.f_back):
                counts["send" if send_root is not None else "receive"] += 1
        elif event == "c_call":
            counts["builtin"] += ours(frame)
        elif event == "return" and frame is send_root:
            send_root = None

    previous = sys.getprofile()
    sys.setprofile(profile)
    try:
        yield
    finally:
        sys.setprofile(previous)


def count_pass(workload, inputs) -> dict[str, float]:
    """One counted pass: calls per fragment, by share."""
    counts = {"send": 0, "receive": 0, "builtin": 0}
    result = workloads.run_pass(workload, inputs, SEED, traced=counting(counts))
    assert result.delivered == result.offered
    fragments = inputs.fragments
    return {
        "fragments": fragments,
        "send_calls_per_fragment": counts["send"] / fragments,
        "receive_calls_per_fragment": counts["receive"] / fragments,
        "calls_per_fragment": (counts["send"] + counts["receive"]) / fragments,
        "builtin_calls_per_fragment": counts["builtin"] / fragments,
    }


@pytest.fixture(scope="module")
def record():
    workload = workloads.WORKLOADS[WORKLOAD]
    inputs = workload.make_inputs(SCALE, SEED)
    workloads.run_pass(workload, inputs, SEED)  # warm every shared cache
    first = count_pass(workload, inputs)
    second = count_pass(workload, inputs)
    return {
        "workload": WORKLOAD,
        "scale": SCALE,
        "seed": SEED,
        "python": ".".join(map(str, sys.version_info[:3])),
        **first,
        "repeat": second,
    }


def test_bench_fragment_cost(benchmark, record):
    workload = workloads.WORKLOADS[WORKLOAD]
    inputs = workload.make_inputs(SCALE, SEED)
    benchmark(lambda: workloads.run_pass(workload, inputs, SEED))

    OUT_DIR.mkdir(parents=True, exist_ok=True)
    out = OUT_DIR / "bench_fragment_cost.json"
    out.write_text(json.dumps(record, indent=2, sort_keys=True) + "\n")
    print("FRAGMENT_COST_JSON " + json.dumps(record, sort_keys=True))


def test_acceptance_fragment_cost(record):
    # Exact: a second counted pass makes the same calls, share by share.
    repeat = record["repeat"]
    for key, value in repeat.items():
        assert record[key] == value, (key, record)
    assert record["calls_per_fragment"] <= CALLS_PER_FRAGMENT_MAX, record
