"""The paper's primary contribution: Application Level Framing.

This package holds the ADU abstraction (:mod:`~repro.core.adu`), the
application-process model whose bottleneck behaviour motivates the whole
design (:mod:`~repro.core.app`), and the ALF stack builder that composes
control and manipulation into layered or integrated end systems
(:mod:`~repro.core.stack`).  The two-stage receive architecture of §6 is
the live ALF receive path: :class:`~repro.transport.alf.AlfReceiver`'s
reassembly is stage one (control only), and the wire plan run on a
complete ADU through
:meth:`~repro.transport.alf.AlfReceiver.resolve_drained` — batched
across flows by :class:`~repro.transport.drain.SharedDrainEngine` — is
stage two.
"""

from repro.core.adu import Adu, AduFragment, fragment_adu, reassemble_fragments
from repro.core.app import ApplicationProcess
from repro.core.stack import ProtocolStack, StackConfig, SendResult, ReceiveResult

__all__ = [
    "Adu",
    "AduFragment",
    "fragment_adu",
    "reassemble_fragments",
    "ApplicationProcess",
    "ProtocolStack",
    "StackConfig",
    "SendResult",
    "ReceiveResult",
]
