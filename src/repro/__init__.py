"""repro — Application Level Framing and Integrated Layer Processing.

A reproduction of Clark & Tennenhouse, "Architectural Considerations for
a New Generation of Protocols" (SIGCOMM 1990), as a working Python
library: the ADU abstraction and ALF transport, an ILP engine that runs
the same manipulation stages layered or fused, real presentation codecs
(BER/XDR/LWTS), a calibrated machine cost model for the paper's µVax III
and MIPS R2000, and a deterministic network simulator with packet and
ATM cell substrates.

Quick start::

    from repro import Adu, transfer_file
    from repro.bench import experiments

    print(experiments.table1().format())          # the paper's Table 1
    result = transfer_file(b"hello" * 10_000, loss_rate=0.05)
    print(result.ok, result.out_of_order_deliveries)

See DESIGN.md for the system inventory and EXPERIMENTS.md for the full
paper-vs-measured record.
"""

from repro.core import (
    Adu,
    AduFragment,
    fragment_adu,
    reassemble_fragments,
    ApplicationProcess,
    ProtocolStack,
    StackConfig,
)
from repro.machine import (
    MachineProfile,
    MICROVAX_III,
    MIPS_R2000,
    SUPERSCALAR,
    CostVector,
)
from repro.ilp import (
    Pipeline,
    LayeredExecutor,
    IntegratedExecutor,
    PipelineCompiler,
    CompiledPlan,
    PlanCache,
    shared_plan_cache,
)
from repro.presentation import BerCodec, XdrCodec, LwtsCodec, negotiate
from repro.transport import (
    TcpStyleSender,
    TcpStyleReceiver,
    AlfSender,
    AlfReceiver,
    RecoveryMode,
    DeliveredAdu,
)
from repro.apps import transfer_file, stream_video, striped_delivery
from repro.errors import ReproError

__version__ = "1.0.0"

__all__ = [
    "Adu",
    "AduFragment",
    "fragment_adu",
    "reassemble_fragments",
    "ApplicationProcess",
    "ProtocolStack",
    "StackConfig",
    "MachineProfile",
    "MICROVAX_III",
    "MIPS_R2000",
    "SUPERSCALAR",
    "CostVector",
    "Pipeline",
    "LayeredExecutor",
    "IntegratedExecutor",
    "PipelineCompiler",
    "CompiledPlan",
    "PlanCache",
    "shared_plan_cache",
    "BerCodec",
    "XdrCodec",
    "LwtsCodec",
    "negotiate",
    "TcpStyleSender",
    "TcpStyleReceiver",
    "AlfSender",
    "AlfReceiver",
    "RecoveryMode",
    "DeliveredAdu",
    "transfer_file",
    "stream_video",
    "striped_delivery",
    "ReproError",
    "__version__",
]
