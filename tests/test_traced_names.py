"""Every name the benchmark's span tracer wraps must exist in the package.

``perfbench/tracer.py`` patches its ``FUNCTIONS`` and ``METHODS`` by name when
a run is traced, so a name that is renamed or deleted here breaks every
traced benchmark run. The tracer is loaded from its file, as it stands.
"""

import importlib
import importlib.util
import inspect
from pathlib import Path

TRACER = Path(__file__).resolve().parents[1] / "perfbench" / "tracer.py"


def load_tracer():
    spec = importlib.util.spec_from_file_location("perfbench_tracer", TRACER)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


def test_traced_functions_exist():
    tracer = load_tracer()
    missing = [f"{mod}.{name}" for mod, names in tracer.FUNCTIONS.items()
               for name in names
               if not callable(getattr(importlib.import_module(f"uavisac.{mod}"),
                                       name, None))]
    assert missing == []


def test_traced_methods_exist():
    tracer = load_tracer()
    missing = []
    for (mod, cls_name), names in tracer.METHODS.items():
        cls = getattr(importlib.import_module(f"uavisac.{mod}"), cls_name, None)
        for name in names:
            try:
                inspect.getattr_static(cls, name)
            except AttributeError:
                missing.append(f"{mod}.{cls_name}.{name}")
    assert missing == []
