"""Transfer-control functions.

The paper's second function class: operations that *regulate* the
transfer without touching the data — demultiplexing, flow/congestion
control, acknowledgement, error/timer handling, timestamps, framing.  Its
§4 claim is quantitative: the whole in-band control path is "tens, not
hundreds of instructions" per packet, which is why manipulation, not
control, is the optimization target.

Every control operation here therefore does two things: it performs the
real bookkeeping the transports need, and it records its instruction
count in an :class:`~repro.control.instructions.InstructionCounter` so
experiment E5 can measure the paper's claim directly.
"""

from repro.control.instructions import InstructionCounter, InstructionCosts
from repro.control.flow import SlidingWindow, AimdCongestionControl
from repro.control.ack import AckGenerator, SelectiveAckTracker
from repro.control.timestamp import JitterEstimator, PlayoutBuffer
from repro.control.framing import StreamReassembler
from repro.control.ratecontrol import PacedAduSource, ReceiverRateController
from repro.control.rtt import RttEstimator

__all__ = [
    "InstructionCounter",
    "InstructionCosts",
    "SlidingWindow",
    "AimdCongestionControl",
    "AckGenerator",
    "SelectiveAckTracker",
    "JitterEstimator",
    "PlayoutBuffer",
    "StreamReassembler",
    "PacedAduSource",
    "ReceiverRateController",
    "RttEstimator",
]
