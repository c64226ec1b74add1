"""The name the system benchmark's tracer patches the engine's read path
under (``StorageKernel.snapshot``).

There is one engine class, :class:`repro.lsm.base.LsmEngine`; this
module only binds its former kernel name to it.
"""

from ..base import LsmEngine

# The tracer in benchmarks/system/trace.py imports this name; ROADMAP
# item 7 ("Spans live in src/, and the outside-in tracer goes") deletes
# the binding together with the tracer's patch points.
StorageKernel = LsmEngine

__all__ = ["StorageKernel"]
