"""Per-fragment and per-small-ADU control cost, as exact call counts.

The paper budgets transfer control at tens of instructions per packet
(§4), and ALF makes the ADU the unit of work.  On the end-to-end
benchmark's ``bulk_secure`` workload (16 KiB ADUs cut into 16 fragments
at MTU 1024, converted, enciphered and checksummed, every train steered
straight onto its shard), the fragment is what the control path pays
for: each one is built into a packet, serialized and boarded onto a
train by the link, and checked by the receiver, while its ADU's whole
run is DMA'd back to back into one pool extent, verified in place by
the batch plan and released as one segment.

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
calls are reported beside it, ungated.

The same counting rules gate the other end of the size range: a
1/16-scale seed-1 ``manyflow`` pass (64-byte ADUs, one fragment each,
on front-end demux and the shared drain), where the control path *is*
the ADU's whole cost — send, event heap, demux, drain dispatch,
delivery and ACK.  Its program calls per ADU must stay at or under
:data:`CALLS_PER_SMALL_ADU_MAX`.

Emits a machine-readable JSON record (``FRAGMENT_COST_JSON`` line and
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

#: Ceiling on the program's Python calls per fragment: today's 8.33
#: rounded up by less than one call, so one more call per fragment
#: fails the gate.  Lower it when the datapath gets cheaper.
CALLS_PER_FRAGMENT_MAX = 8.5

SMALL_ADU_WORKLOAD = "manyflow"

#: Ceiling on the program's Python calls per single-fragment ADU on the
#: ``manyflow`` pass: today's 72.50 rounded up by less than one call.
CALLS_PER_SMALL_ADU_MAX = 73.0

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


def count_pass(workload, inputs, unit: str = "fragment") -> dict[str, float]:
    """One counted pass: calls per fragment (or per ADU), by share."""
    counts = {"send": 0, "receive": 0, "builtin": 0}
    result = workloads.run_pass(workload, inputs, SEED, traced=counting(counts))
    assert result.delivered == result.offered
    units = inputs.fragments if unit == "fragment" else len(inputs.adus)
    return {
        f"{unit}s": units,
        f"send_calls_per_{unit}": counts["send"] / units,
        f"receive_calls_per_{unit}": counts["receive"] / units,
        f"calls_per_{unit}": (counts["send"] + counts["receive"]) / units,
        f"builtin_calls_per_{unit}": counts["builtin"] / units,
    }


def counted_record(name: str, unit: str) -> dict:
    """Warm every shared cache with one pass, then count two more."""
    workload = workloads.WORKLOADS[name]
    inputs = workload.make_inputs(SCALE, SEED)
    workloads.run_pass(workload, inputs, SEED)
    first = count_pass(workload, inputs, unit)
    second = count_pass(workload, inputs, unit)
    return {
        "workload": name,
        "scale": SCALE,
        "seed": SEED,
        "python": ".".join(map(str, sys.version_info[:3])),
        **first,
        "repeat": second,
    }


@pytest.fixture(scope="module")
def record():
    return counted_record(WORKLOAD, "fragment")


@pytest.fixture(scope="module")
def small_adu_record():
    return counted_record(SMALL_ADU_WORKLOAD, "adu")


def test_bench_fragment_cost(benchmark, record, small_adu_record):
    workload = workloads.WORKLOADS[WORKLOAD]
    inputs = workload.make_inputs(SCALE, SEED)
    benchmark(lambda: workloads.run_pass(workload, inputs, SEED))

    document = {**record, "small_adu": small_adu_record}
    OUT_DIR.mkdir(parents=True, exist_ok=True)
    out = OUT_DIR / "bench_fragment_cost.json"
    out.write_text(json.dumps(document, indent=2, sort_keys=True) + "\n")
    print("FRAGMENT_COST_JSON " + json.dumps(document, sort_keys=True))


def assert_repeats(record):
    # Exact: a second counted pass makes the same calls, share by share.
    repeat = record["repeat"]
    for key, value in repeat.items():
        assert record[key] == value, (key, record)


def test_acceptance_fragment_cost(record):
    assert_repeats(record)
    assert record["calls_per_fragment"] <= CALLS_PER_FRAGMENT_MAX, record


def test_acceptance_small_adu_cost(small_adu_record):
    record = small_adu_record
    assert_repeats(record)
    assert record["calls_per_adu"] <= CALLS_PER_SMALL_ADU_MAX, record
