"""perfbench/tracer.py wraps the hlab functions named in its TARGETS. A name
deleted from hlab but left there fails this test in the tier-1 run, not only
in the traced perfbench tests. The tracer file is read, never changed."""

import importlib
import importlib.util
import json
import os
import subprocess
import sys
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


def test_cli_then_package_import_loads_every_traced_module():
    # perfbench/child.py imports hlab.cli, then tracer.install() runs
    # `import hlab` and reads each TARGETS module from sys.modules: a fresh
    # interpreter must hold all of them after those two imports
    spec = importlib.util.spec_from_file_location("perfbench_tracer", TRACER)
    tracer = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(tracer)
    src = Path(importlib.util.find_spec("hlab").origin).parents[1]
    code = "import json, sys; import hlab.cli; import hlab; print(json.dumps(sorted(sys.modules)))"
    env = {**os.environ, "PYTHONPATH": str(src)}
    out = subprocess.run([sys.executable, "-c", code], env=env, capture_output=True, text=True, check=True)
    loaded = set(json.loads(out.stdout))
    assert [module for module, _, _ in tracer.TARGETS if f"hlab.{module}" not in loaded] == []
