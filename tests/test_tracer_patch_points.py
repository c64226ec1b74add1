"""The system benchmark's tracer binds to its patch points.

``benchmarks/system/trace.py`` wraps engine, database and executor
callables by class or module name and labels each span
``f"{cls.__name__}.{attr}"`` (or a fixed name), which ``LAYER_OF`` maps
to a layer.  A rename on the ``src`` side — a class, the
``repro.lsm.policies.kernel.StorageKernel`` binding, a method that moves
out of a class's own ``__dict__`` — would break the traced run; here it
fails a test instead.
"""

import importlib.util
from pathlib import Path

from repro.lsm.policies.compose import ENGINES

TRACE = Path(__file__).resolve().parents[1] / "benchmarks" / "system" / "trace.py"


def _trace_module():
    spec = importlib.util.spec_from_file_location("system_trace", TRACE)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


class _Engine:
    """What a span label may read off the engine it is computed from."""

    def __init__(self, policy_name):
        self.policy_name = policy_name


def test_every_patch_point_binds_labels_a_layer_and_comes_back():
    trace = _trace_module()
    names = []

    class Recording(trace.Tracer):
        def _wrap(self, name, fn):
            names.append(name)
            return super()._wrap(name, fn)

    tracer = Recording()
    tracer.install()
    try:
        patched = list(tracer._undo)
        assert patched and names
        labels = set()
        for name in names:
            if isinstance(name, str):
                labels.add(name)
            else:  # a label computed from the engine the call runs on
                labels.update(name(_Engine(row.policy_name)) for row in ENGINES)
        assert labels <= set(trace.LAYER_OF), sorted(labels - set(trace.LAYER_OF))
        assert {"LsmEngine.verify", "StorageKernel.snapshot", "LsmEngine.restore"} <= labels
    finally:
        tracer.uninstall()
    for owner, attr, original in patched:
        assert vars(owner)[attr] is original, (owner, attr)
