"""Every name the benchmark's span tracer wraps must exist in the package,
and every call its workloads make into the package must still bind.

``perfbench/tracer.py`` patches its ``FUNCTIONS`` and ``METHODS`` by name when
a run is traced, so a name that is renamed or deleted here breaks every
traced benchmark run. The tracer is loaded from its file, as it stands;
``perfbench/workloads.py`` is read as source.
"""

import ast
import importlib
import importlib.util
import inspect
from pathlib import Path

TRACER = Path(__file__).resolve().parents[1] / "perfbench" / "tracer.py"
WORKLOADS = TRACER.with_name("workloads.py")


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


def workload_calls():
    """(module, name, call node) of each call in the workloads written as
    ``lib.<module>.<name>(...)`` or ``self.lib.<module>.<name>(...)``."""
    for node in ast.walk(ast.parse(WORKLOADS.read_text())):
        func = getattr(node, "func", None)
        if isinstance(func, ast.Attribute) and isinstance(func.value, ast.Attribute):
            lib = func.value.value
            if (isinstance(lib, ast.Name) and lib.id == "lib") or (
                    isinstance(lib, ast.Attribute) and lib.attr == "lib"):
                yield func.value.attr, func.attr, node


def test_workload_calls_bind():
    unbound, named = [], set()
    for mod, name, call in workload_calls():
        named.add(f"{mod}.{name}")
        target = getattr(importlib.import_module(f"uavisac.{mod}"), name)
        assert not any(isinstance(a, ast.Starred) for a in call.args)
        try:
            inspect.signature(target).bind(
                *call.args, **{kw.arg: kw.value for kw in call.keywords})
        except TypeError as exc:
            unbound.append(f"{mod}.{name} (line {call.lineno}): {exc}")
    assert {"drl_mappo.run_policy_episode", "drl_mappo.train",
            "planners.evaluate_plan", "mdp_env.CorridorEnv"} <= named
    assert unbound == []
    # transmit_design reads the env's per-slot solver options off its signature
    env = importlib.import_module("uavisac.mdp_env").CorridorEnv
    options = importlib.import_module("uavisac.isac_sdr").SdrOptions
    assert isinstance(inspect.signature(env).parameters["sdr_opts"].default, options)
