"""perfbench/tracer.py wraps the hlab functions named in its TARGETS. A name
deleted from hlab but left there fails this test in the tier-1 run, not only
in the traced perfbench tests. The tracer file is read, never changed."""

import importlib
import importlib.util
from pathlib import Path

TRACER = Path(__file__).resolve().parents[1] / "perfbench" / "tracer.py"


def test_every_traced_name_exists():
    spec = importlib.util.spec_from_file_location("perfbench_tracer", TRACER)
    tracer = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(tracer)
    assert tracer.TARGETS
    missing = [
        f"hlab.{module}.{name}"
        for module, _layer, names in tracer.TARGETS
        for name in names
        if not callable(getattr(importlib.import_module(f"hlab.{module}"), name, None))
    ]
    assert missing == []
