"""The scalar reference backend the byte-identity tests compare against.

Every config simulates through ``Runner(cfg).run()``: the scalar per-run
engine, whatever :func:`repro.harness.backend.fuses` would route it to.
It is the reference the fused rep-axis engine answers to, not a product
execution path, so it lives with the tests.
"""

import time

from repro.harness.backend import ExecutionBackend
from repro.harness.runner import Runner


class ScalarReferenceBackend(ExecutionBackend):
    """Simulate every pending config in-process on the scalar engine."""

    def execute(self, pending, metrics=None):
        out = []
        for cfg, _key in pending:
            t_cfg = time.time()
            result = Runner(cfg).run()
            out.append((result, time.time() - t_cfg))
        return out
