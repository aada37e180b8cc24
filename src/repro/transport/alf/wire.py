"""An ALF endpoint's wire manipulation, resolved once per configuration.

Both ends of a flow run the paper's §6 stage list — convert, encrypt,
checksum — as one compiled plan.  What that plan is depends only on the
endpoint's *configuration*: its direction, the fused conversion, the
cipher, the integrity policy and the machine profile.  :class:`WireConfig`
resolves those once per endpoint, and fetches the plan through the plan
cache by a configuration token, so an endpoint whose configuration was
seen before builds no pipeline and no plan key.
"""

from __future__ import annotations

import functools
from typing import Hashable

from repro.ilp.compiler import CompiledPlan, PlanCache
from repro.ilp.pipeline import Pipeline
from repro.integrity import IntegrityPolicy, integrity_token
from repro.machine.profile import MachineProfile
from repro.stages.checksum import ChecksumComputeStage
from repro.stages.encrypt import WordXorStage
from repro.stages.presentation import PresentationBinding, PresentationConvertStage

#: Kernel name the wire plan's checksum observation is published under.
WIRE_CHECKSUM = "checksum-internet"


def wire_pipeline(
    convert: PresentationConvertStage | None = None,
    convert_after: bool = False,
    encrypt: WordXorStage | None = None,
    integrity: IntegrityPolicy | None = None,
) -> Pipeline:
    """The ALF wire manipulation: the per-ADU checksum (paper §5 —
    "error detection is done on an ADU basis").

    With a presentation ``convert`` stage the conversion joins the
    checksum's integrated loop: the sender converts before checksumming
    (so the checksum covers the wire bytes) and the receiver verifies
    then converts back (``convert_after=True``).  An ``encrypt`` stage
    completes the paper's §6 stage list: the sender runs
    ``[convert, encrypt, checksum]`` — the checksum covers the
    *ciphertext*, so the receiver verifies before decrypting — and the
    receiver mirrors it as ``[checksum, decrypt, convert]``.  All three
    stages fuse (none has ordering requirements), so each direction
    compiles to **one** integrated read pass.  The shape is identical
    for every flow with the same presentation and cipher, so all of them
    share one cached :class:`CompiledPlan` per machine profile.

    ``integrity`` compiles a coverage policy into the checksum stage:
    covered spans fold, uncovered bytes are never read, and the policy
    fingerprint rides the stage's lowering token so plans with different
    coverage stay distinct cache entries.
    """
    checksum = ChecksumComputeStage(coverage=integrity)
    if convert_after:
        stages = [checksum]
        if encrypt is not None:
            stages.append(encrypt)
        if convert is not None:
            stages.append(convert)
    else:
        stages = [] if convert is None else [convert]
        if encrypt is not None:
            stages.append(encrypt)
        stages.append(checksum)
    return Pipeline(stages, name="alf-wire")


@functools.lru_cache(maxsize=64)
def _cipher(key: int, receiving: bool) -> WordXorStage:
    """The word cipher for a 32-bit key, one stage per key and direction:
    endpoints with the same key share it (and its built kernel)."""
    return WordXorStage(key, name="decrypt" if receiving else "encrypt")


class WireConfig:
    """One endpoint's wire configuration and its compiled plan.

    Attributes:
        receiving: True for a receiver (``[checksum, decrypt, convert]``),
            False for a sender (``[convert, encrypt, checksum]``).
        convert: the presentation conversion, or None for none (or an
            identity binding).
        fused: the conversion lowers to a word kernel and joins the
            plan's loop; otherwise it runs on the compiled codecs'
            stage path, outside the plan.
        encrypt: the word cipher built from the endpoint's 32-bit key
            (shared by every endpoint with that key and direction), or
            None for cleartext.  The only place a key becomes a stage.
        integrity: the checksum's coverage policy (None covers all).
        staged_convert: the conversion when it runs outside the plan
            (on the compiled codecs' stage path), else None.
        transforms: the plan rewrites the payload (fused conversion
            and/or cipher) rather than only observing it.
        token: the configuration the plan depends on: direction, fused
            conversion, cipher, integrity and machine profile.  Equal
            tokens always mean equal plans.
    """

    __slots__ = (
        "receiving", "convert", "fused", "staged_convert", "encrypt", "integrity",
        "transforms", "machine", "plan_cache", "token", "_plan",
    )

    def __init__(
        self,
        receiving: bool,
        presentation: PresentationBinding | None,
        key: int | None,
        integrity: IntegrityPolicy | None,
        machine: MachineProfile,
        plan_cache: PlanCache,
    ):
        self.receiving = receiving
        if presentation is None:
            convert = None
        elif receiving:
            convert = presentation.receiver_stage()
        else:
            convert = presentation.sender_stage()
        self.convert = convert
        self.fused = convert is not None and convert.to_word_kernel() is not None
        self.staged_convert = None if self.fused else convert
        encrypt = None if key is None else _cipher(key, receiving)
        self.encrypt = encrypt
        self.integrity = integrity
        self.transforms = self.fused or encrypt is not None
        self.machine = machine
        self.plan_cache = plan_cache
        self.token: Hashable = (
            receiving,
            convert.lowering_token() if self.fused else None,
            None if encrypt is None else (encrypt.name, encrypt.lowering_token()),
            integrity_token(integrity),
            machine.name,
        )
        self._plan: CompiledPlan | None = None

    def pipeline(self) -> Pipeline:
        """The wire pipeline this configuration compiles."""
        return wire_pipeline(
            self.convert if self.fused else None,
            convert_after=self.receiving,
            encrypt=self.encrypt,
            integrity=self.integrity,
        )

    @property
    def plan(self) -> CompiledPlan:
        """The compiled wire plan: looked up in the plan cache on first
        read (by :attr:`token`), then held — steady-state traffic never
        re-plans or re-probes the cache."""
        if self._plan is None:
            self._plan = self.plan_cache.get_configured(
                self.token, self.pipeline, self.machine
            )
        return self._plan
