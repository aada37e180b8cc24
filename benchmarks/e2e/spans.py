"""Layer spans for the traced pass, recorded from outside the program.

:class:`SpanRecorder` wraps each layer's public entry points at the class
level, so every object built afterwards — and every bound handler a
transport hands to ``Host.bind`` at construction — goes through a span.
A span records its name, start, end and parent; self time is a span's
duration minus its children's, so the self times of all spans plus the
time outside any span (``unattributed_s``) add up to the traced wall
time.  Spans stay in memory while the pass runs and are written out as
JSON afterwards.

Install the wrappers *before* the traced pass builds its topology and
uninstall them after: end-to-end numbers come only from untraced passes.
"""

from __future__ import annotations

import functools
import json
import time
from pathlib import Path

from repro.buffers.chain import BufferChain
from repro.buffers.pool import BufferPool
from repro.ilp.compiler import CompiledPlan, PlanCache
from repro.net.host import Host
from repro.net.link import Link
from repro.net.shard import SerialShardScheduler, ShardedHost
from repro.net.switch import StoreAndForwardSwitch
from repro.sim.eventloop import EventLoop
from repro.transport.alf import AlfReceiver, AlfSender
from repro.transport.drain import SharedDrainEngine
from repro.transport.pacing import TrainPacer
from repro.transport.session import SessionInitiator, SessionListener

#: layer (module name) -> the (class, method) entry points spanned for it.
ENTRY_POINTS: dict[str, tuple[tuple[type, str], ...]] = {
    "sim.eventloop": ((EventLoop, "run"), (SerialShardScheduler, "run")),
    "net.link": ((Link, "send"),),
    "net.switch": (
        (StoreAndForwardSwitch, "receive"),
        (StoreAndForwardSwitch, "receive_burst"),
    ),
    "net.shard": (
        (ShardedHost, "receive"),
        (ShardedHost, "receive_burst"),
        (ShardedHost, "steer_burst"),
        (ShardedHost, "drain"),
        (ShardedHost, "register_flow"),
    ),
    "net.host": ((Host, "receive"), (Host, "receive_burst"), (Host, "send")),
    # The per-flow handlers the endpoints pass to Host.bind.
    "transport.alf.sender": ((AlfSender, "_on_ack_packet"), (AlfSender, "send_adu")),
    "transport.alf.receiver": ((AlfReceiver, "_on_fragment"),),
    "transport.drain": (
        (SharedDrainEngine, "notify_ready"),
        (SharedDrainEngine, "flush"),
        (SharedDrainEngine, "register"),
        (SharedDrainEngine, "unregister"),
    ),
    "transport.pacing": ((TrainPacer, "submit"), (TrainPacer, "on_pressure")),
    # The INIT (listener) and ACCEPT (initiator) handlers.
    "transport.session": (
        (SessionListener, "_on_packet"),
        (SessionInitiator, "_on_packet"),
    ),
    "ilp.compiler": (
        (CompiledPlan, "run"),
        (CompiledPlan, "run_chain"),
        (CompiledPlan, "run_batch"),
        (PlanCache, "get_or_compile"),
    ),
    "buffers": ((BufferPool, "dma_chain"), (BufferChain, "linearize")),
}

LAYERS = tuple(ENTRY_POINTS)


class SpanRecorder:
    """Class-level span wrappers plus the in-memory span list.

    Use as a context manager around the timed region; spans are only
    recorded while it is entered, so calls made while building the
    topology stay out of the traced wall time.
    """

    def __init__(self) -> None:
        self.names: list[str] = []
        self.layer_of: list[str] = []
        self.spans: list[list] = []  # [name index, start, end, parent index]
        self.batch_rows = 0
        self.batch_calls = 0
        self.wall_s = 0.0
        self._stack = [-1]
        self._active = False
        self._start = 0.0
        self._originals: list[tuple[type, str, object]] = []

    # ------------------------------------------------------------------
    # Installing the wrappers

    def install(self) -> None:
        for layer, entries in ENTRY_POINTS.items():
            for cls, method in entries:
                original = cls.__dict__[method]
                self._originals.append((cls, method, original))
                self.names.append(f"{cls.__name__}.{method}")
                self.layer_of.append(layer)
                setattr(cls, method, self._wrap(original, len(self.names) - 1))

    def uninstall(self) -> None:
        for cls, method, original in reversed(self._originals):
            setattr(cls, method, original)
        self._originals.clear()

    def _wrap(self, fn, name_index: int):
        spans, stack, clock = self.spans, self._stack, time.perf_counter
        recorder = self
        counts_rows = fn is CompiledPlan.__dict__["run_batch"]

        @functools.wraps(fn)
        def span(*args, **kwargs):
            if not recorder._active:
                return fn(*args, **kwargs)
            if counts_rows:
                recorder.batch_calls += 1
                recorder.batch_rows += len(args[1])
            index = len(spans)
            spans.append([name_index, clock(), 0.0, stack[-1]])
            stack.append(index)
            try:
                return fn(*args, **kwargs)
            finally:
                stack.pop()
                spans[index][2] = clock()

        return span

    # ------------------------------------------------------------------
    # The traced region

    def __enter__(self) -> "SpanRecorder":
        self._active = True
        self._start = time.perf_counter()
        return self

    def __exit__(self, *exc) -> None:
        self.wall_s = time.perf_counter() - self._start
        self._active = False

    # ------------------------------------------------------------------
    # Results

    def layer_times(self) -> dict[str, object]:
        """Per-layer and per-entry-point calls and self time, plus the
        time outside any span."""
        self_s = [0.0] * len(self.spans)
        top_level = 0.0
        for index, (_, start, end, parent) in enumerate(self.spans):
            duration = end - start
            self_s[index] += duration
            if parent >= 0:
                self_s[parent] -= duration
            else:
                top_level += duration
        by_name = {
            name: {"layer": layer, "calls": 0, "self_s": 0.0}
            for name, layer in zip(self.names, self.layer_of)
        }
        for (name_index, *_), seconds in zip(self.spans, self_s):
            entry = by_name[self.names[name_index]]
            entry["calls"] += 1
            entry["self_s"] += seconds
        layers = {layer: {"calls": 0, "self_s": 0.0} for layer in LAYERS}
        for entry in by_name.values():
            layers[entry["layer"]]["calls"] += entry["calls"]
            layers[entry["layer"]]["self_s"] += entry["self_s"]
        return {
            "wall_s": self.wall_s,
            "layers": layers,
            "entry_points": by_name,
            "unattributed_s": self.wall_s - top_level,
            "spans": len(self.spans),
        }

    def write(self, path: Path, **meta) -> None:
        """Dump every span (times relative to the traced region's start)."""
        path.parent.mkdir(parents=True, exist_ok=True)
        origin = self._start
        document = {
            **meta,
            "wall_s": self.wall_s,
            "names": self.names,
            "layers": self.layer_of,
            "fields": ["name", "start_s", "end_s", "parent"],
            "spans": [
                [name, start - origin, end - origin, parent]
                for name, start, end, parent in self.spans
            ],
        }
        path.write_text(json.dumps(document, separators=(",", ":")))
