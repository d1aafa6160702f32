"""The names the benchmark's tracer wraps must exist in the program.

``perfbench/tracer.py`` wraps functions by name in the modules that
import them (``optimizer.linprog``, the ``noqa`` re-exports, ...) and
drops the metrics of any name that has gone.  The benchmark smoke test
fails on a dropped metric, but it runs outside Tier-1; this test keeps a
rename or a deleted alias from passing Tier-1 unseen.
"""

import importlib.util
from pathlib import Path

TRACER = Path(__file__).resolve().parents[1] / "perfbench" / "tracer.py"


def test_the_tracer_finds_every_name_it_wraps():
    spec = importlib.util.spec_from_file_location("fracmeasure_bench_tracer", TRACER)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    tracer = module.Tracer()
    tracer.install()
    try:
        _, absent = tracer.metrics(0.0, 0.0)
    finally:
        tracer.restore()
    assert absent == []
