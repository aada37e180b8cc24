"""ADU-level forward error correction (paper footnote 10).

"Our general assertion regarding applications is not meant to preclude
the use of ADU-level FEC."  This module provides the simplest useful
code: one XOR parity unit per group of *k* data fragments, allowing the
receiver to rebuild any single lost fragment per group without a round
trip.  The fragments themselves travel and reassemble like any other
(the ALF sender and receiver run one fragment loop and one reassembly
path); parity rides beside them, so the code here is only the two XORs
and the survival arithmetic.

FEC changes the ADU-survival economics of experiment F2: a large ADU
whose fragments each survive with probability *p* dies unless *all*
arrive; with parity groups it survives any pattern of at most one loss
per group, which pushes useful ADU sizes up by orders of magnitude at
ATM-like loss rates.
"""

from __future__ import annotations

from typing import Sequence

import numpy as np

from repro.buffers.chain import BufferChain

Piece = bytes | memoryview | BufferChain


def group_parity(pieces: Sequence[Piece]) -> bytes:
    """One group's parity: the XOR of its pieces' byte images (chain
    windows included), zero-padded to the widest — 64-bit words, then
    the few bytes past the last whole word."""
    width = max(len(piece) for piece in pieces)
    acc = np.zeros(-(-width // 8), dtype=np.uint64)
    octets = acc.view(np.uint8)
    for piece in pieces:
        image = piece.linearize() if isinstance(piece, BufferChain) else piece
        length = len(image)
        words = length // 8
        if words:
            acc[:words] ^= np.frombuffer(image, dtype=np.uint64, count=words)
        if length > words * 8:
            octets[words * 8 : length] ^= np.frombuffer(
                image, dtype=np.uint8, offset=words * 8
            )
    return octets[:width].tobytes()


def rebuild_erasure(parity: Piece, survivors: Sequence[Piece], length: int) -> bytes:
    """A group's one missing piece: its parity XOR the pieces that
    arrived, trimmed from the parity's width to the piece's ``length``."""
    return group_parity([parity, *survivors])[:length]


def survival_probability(
    n_cells: int, loss_rate: float, group_size: int | None
) -> float:
    """Analytic ADU survival under per-unit loss.

    ``group_size=None`` is plain fragmentation (all units must arrive);
    with FEC each group of ``group_size`` data units plus one parity unit
    tolerates a single loss.
    """
    keep = 1.0 - loss_rate
    if group_size is None:
        return keep**n_cells
    survival = 1.0
    remaining = n_cells
    while remaining > 0:
        group = min(group_size, remaining)
        units = group + 1  # data + parity
        all_arrive = keep**units
        one_lost = units * loss_rate * keep ** (units - 1)
        survival *= all_arrive + one_lost
        remaining -= group
    return survival
