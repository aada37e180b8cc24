"""Buffer management substrate.

The paper's manipulation functions are defined over data sitting in
buffers: network interface buffers, intermediate system buffers, and the
application's own address space ("moving to/from application address
space" is one of the six manipulations).  This package provides the
building blocks the stack uses:

* :class:`Segment` — a refcounted zero-copy window over any storage,
  whose owner learns (through a recycle hook) when the last reference
  is released;
* :class:`BufferChain` — an mbuf-style scatter/gather chain of segments
  used for fragmentation and reassembly without copying;
* :class:`BufferPool` — fixed-size allocator modelling finite interface
  memory, handing out segments over its buffers that recycle themselves
  on the last release (the zero-copy receive path);
* :class:`ApplicationAddressSpace` — named, scattered destination regions
  (file extents, RPC argument slots, video frame slabs) that ADUs are
  delivered into.
"""

from repro.buffers.chain import BufferChain, as_buffer_chain
from repro.buffers.segment import Segment
from repro.buffers.pool import BufferPool
from repro.buffers.appspace import ApplicationAddressSpace, Region, ScatterMap

__all__ = [
    "BufferChain",
    "BufferPool",
    "Segment",
    "ApplicationAddressSpace",
    "Region",
    "ScatterMap",
    "as_buffer_chain",
]
