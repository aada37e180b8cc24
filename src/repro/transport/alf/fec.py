"""ADU-level forward error correction (paper footnote 10).

"Our general assertion regarding applications is not meant to preclude
the use of ADU-level FEC."  This module provides the simplest useful
code: one XOR parity fragment per group of *k* data fragments, allowing
the receiver to reconstruct any single lost fragment per group without a
round trip.

FEC changes the ADU-survival economics of experiment F2: a large ADU
whose fragments each survive with probability *p* dies unless *all*
arrive; with parity groups it survives any pattern of at most one loss
per group, which pushes useful ADU sizes up by orders of magnitude at
ATM-like loss rates.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from repro.buffers.chain import BufferChain
from repro.core.adu import Adu, AduFragment, fragment_adu, reassemble_fragments
from repro.errors import FramingError

#: Marker index offset for parity fragments (kept out of the data index
#: space so plain receivers can ignore them).
_PARITY_FLAG = "fec_parity"


@dataclass(frozen=True)
class FecFragment:
    """A transmission unit under FEC: a data fragment or a parity one.

    Attributes:
        fragment: the underlying ADU fragment (for parity units, the
            payload is the XOR of the group's padded payloads).
        group: which parity group this unit belongs to.
        is_parity: True for the group's parity unit.
        group_size: number of *data* fragments in this unit's group
            (the final group may be short).
        group_base: index of the group's first data fragment within the
            ADU's fragmentation.
    """

    fragment: AduFragment
    group: int
    is_parity: bool
    group_size: int
    group_base: int


def _xor_bytes(parts: list[bytes | memoryview | BufferChain]) -> bytes:
    """XOR the parts' byte images (chain windows included), zero-padded
    to the widest: 64-bit words, then the few bytes past the last whole
    word."""
    width = max(len(part) for part in parts)
    acc = np.zeros(-(-width // 8), dtype=np.uint64)
    octets = acc.view(np.uint8)
    for part in parts:
        image = part.linearize() if isinstance(part, BufferChain) else part
        length = len(image)
        words = length // 8
        if words:
            acc[:words] ^= np.frombuffer(image, dtype=np.uint64, count=words)
        if length > words * 8:
            octets[words * 8 : length] ^= np.frombuffer(
                image, dtype=np.uint8, offset=words * 8
            )
    return octets[:width].tobytes()


def encode_with_parity(adu: Adu, mtu: int, group_size: int = 4) -> list[FecFragment]:
    """Fragment an ADU and append one parity unit per ``group_size``
    data fragments."""
    if group_size <= 0:
        raise FramingError("group_size must be positive")
    fragments = fragment_adu(adu, mtu)
    units: list[FecFragment] = []
    for group_index, start in enumerate(range(0, len(fragments), group_size)):
        group = fragments[start : start + group_size]
        for fragment in group:
            units.append(
                FecFragment(fragment, group_index, False, len(group), start)
            )
        parity_payload = _xor_bytes([f.payload for f in group])
        parity = AduFragment(
            adu_sequence=adu.sequence,
            index=group[0].index,  # reconstructed index is derived later
            total=group[0].total,
            adu_length=group[0].adu_length,
            adu_checksum=group[0].adu_checksum,
            name={**group[0].name, _PARITY_FLAG: group_index},
            payload=parity_payload,
        )
        units.append(
            FecFragment(parity, group_index, True, len(group), start)
        )
    return units


@dataclass
class _Group:
    size: int
    base: int
    data: dict[int, AduFragment]
    parity: AduFragment | None = None


class FecDecoder:
    """Collects FEC units for one ADU and reconstructs single losses.

    Feed units in any order; :meth:`try_reassemble` returns the ADU once
    every data fragment is present or recoverable (at most one loss per
    group), else None.
    """

    def __init__(self, mtu: int):
        if mtu <= 0:
            raise FramingError("mtu must be positive")
        self.mtu = mtu
        self._groups: dict[int, _Group] = {}
        self._total: int | None = None
        self._adu_length: int | None = None
        self.recovered_fragments = 0

    def add(self, unit: FecFragment) -> None:
        """File one received unit."""
        if self._total is None:
            self._total = unit.fragment.total
            self._adu_length = unit.fragment.adu_length
        group = self._groups.setdefault(
            unit.group, _Group(size=unit.group_size, base=unit.group_base, data={})
        )
        if unit.is_parity:
            group.parity = unit.fragment
        else:
            group.data.setdefault(unit.fragment.index, unit.fragment)

    def _recover_group(self, group_index: int, group: _Group) -> bool:
        """Reconstruct the single missing data fragment, if possible."""
        if len(group.data) == group.size:
            return True
        if group.parity is None or len(group.data) != group.size - 1:
            return False
        assert self._total is not None and self._adu_length is not None
        # Which index is missing within this group?
        expected = set(
            range(group.base, min(group.base + group.size, self._total))
        )
        missing = expected - set(group.data)
        if len(missing) != 1:
            return False
        missing_index = missing.pop()
        payload = _xor_bytes(
            [group.parity.payload] + [f.payload for f in group.data.values()]
        )
        # Trim the XOR width back to the true fragment length: every
        # fragment is mtu bytes except possibly the ADU's last.
        if missing_index == self._total - 1:
            true_length = self._adu_length - self.mtu * (self._total - 1)
        else:
            true_length = self.mtu
        reference = group.parity
        group.data[missing_index] = AduFragment(
            adu_sequence=reference.adu_sequence,
            index=missing_index,
            total=reference.total,
            adu_length=reference.adu_length,
            adu_checksum=reference.adu_checksum,
            name={
                key: value
                for key, value in reference.name.items()
                if key != _PARITY_FLAG
            },
            payload=payload[:true_length],
        )
        self.recovered_fragments += 1
        return True

    def try_reassemble(self) -> Adu | None:
        """The ADU if complete/recoverable now, else None.

        Reassembly is structural only: the caller verifies the ADU's
        checksum through its compiled wire plan, like any other ADU.
        """
        if self._total is None:
            return None
        for group_index, group in self._groups.items():
            if not self._recover_group(group_index, group):
                return None
        fragments = [
            fragment
            for group in self._groups.values()
            for fragment in group.data.values()
        ]
        if len(fragments) != self._total:
            return None
        try:
            return reassemble_fragments(fragments, verify=False)
        except FramingError:
            return None


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
