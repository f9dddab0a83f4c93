"""The traced benchmark run finds every function and stats key it reads.

perfbench/tracer.py reports a per-layer metric as absent, and leaves it out
of the result line, when the function it times is renamed, removed or made
private, or when a MinrankResult.stats key it sums is missing. A traced run
then still exits 0, so this test keeps those names in step with the tracer.
"""

import sys
from pathlib import Path

import eicp.experiments  # noqa: F401  (loads all seven layers)
import eicp.minrank
import eicp.model

PERFBENCH = Path(__file__).resolve().parent.parent / "perfbench"
sys.path.insert(0, str(PERFBENCH))

import metrics  # noqa: E402
import workloads  # noqa: E402
from tracer import Tracer, leftover_wrappers  # noqa: E402

FIXTURE = Path(__file__).resolve().parent.parent / "fixtures" / "mixed4.json"


def test_traced_run_reports_every_per_layer_metric():
    tracer = Tracer()
    tracer.install(workloads.LAYERS)
    try:
        # Module attributes, not names bound at import: those hold the wrappers.
        inst = eicp.model.parse_instance(FIXTURE.read_text())
        eicp.minrank.minrank_bnb(inst)
        eicp.minrank.minrank_oracle(inst)
    finally:
        tracer.uninstall()
    assert leftover_wrappers() == []
    layer = tracer.layer_metrics()
    missing = {name: layer.get(name, (None, "not reported"))[1]
               for name, *_ in metrics.PER_LAYER
               if name != "trace.overhead_s" and layer.get(name, (None,))[0] is None}
    assert missing == {}
