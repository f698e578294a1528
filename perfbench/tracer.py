"""Span tracing from outside the program: wrap module functions, record spans.

``Tracer.install`` replaces each target function with a wrapper in every
``uavisac`` module namespace that holds it (``from .x import f`` copies the
binding, so patching the defining module alone would miss most callers) and
on the classes whose methods are listed. Each call becomes one span
``(name, parent, start, end)`` held in memory; ``uninstall`` restores the
originals and ``write`` saves the spans once the run is over.

A layer is the module a span belongs to. Its busy time is the union of its
spans (outermost span of the layer on each call path); its self time is the
part of its spans not covered by child spans of any layer.
"""

import inspect
import sys
import time
from collections import defaultdict
from pathlib import Path

# Public functions of each module, plus the private entry points that the
# per-layer metrics need (_pdhg_margin iterations, the cached beampattern
# set-up solve, the PPO update and the grid's per-cell runner).
FUNCTIONS = {
    "scenario": ["build_scenario", "validate_config", "rng_stream",
                 "scenario_fingerprint"],
    "channel": ["elevation_angle", "los_probability", "expected_md_channel",
                "md_gain_matrix", "md_uplink_sinr", "steering_vector",
                "tbp_gain", "sample_rician_channel", "inter_uav_sinr",
                "effective_channel"],
    "energy": ["flight_power", "hover_power", "slot_energy"],
    "isac_sdr": ["solve_feasibility", "verify_design", "tbp_quadratic",
                 "extract_rank_one", "link_feasibility_sweep",
                 "separated_link_sweep", "_pdhg_margin", "_tbp_only_design"],
    "mdp_env": ["check_constraints", "write_trace_csv"],
    "planners": ["plan_fitness", "greedy_offline", "evaluate_plan",
                 "greedy_online", "pso_plan", "ga_plan"],
    "nn": ["orthogonal", "log_softmax_masked", "softplus"],
    "drl_mappo": ["actor_forward", "critic_forward", "sample_actions",
                  "greedy_actions", "joint_log_prob", "gae",
                  "actor_loss_and_grads", "critic_loss_and_grads",
                  "ppo_actor_update", "critic_update", "act_in_env", "train",
                  "run_policy_episode", "_update"],
    "config": ["load_config"],
    "harness": ["run_experiment", "train_checkpoint", "run_cell",
                "read_results", "_write_aggregates", "_write_manifest"],
}
METHODS = {
    ("mdp_env", "CorridorEnv"): ["reset", "observations", "critic_state",
                                 "predicted_sinr", "action_mask", "step"],
    ("nn", "Adam"): ["step"],
    ("drl_mappo", "MappoPolicy"): ["save", "load"],
}
LAYERS = tuple(FUNCTIONS)


class Tracer:
    def __init__(self, package="uavisac"):
        self.package = package
        self.names: list = []          # span name table
        self._name_id: dict = {}
        self.name_ix: list = []        # per span
        self.parent: list = []
        self.start: list = []
        self.end: list = []
        self._stack: list = []
        self.hooks: dict = {}          # span name -> fn(args, kwargs, result, seconds)
        self._saved: list = []         # (owner, attr, original)

    # -- wrapping -----------------------------------------------------------

    def _wrap(self, name, fn, is_static=False):
        ix = self._name_id.setdefault(name, len(self.names))
        if ix == len(self.names):
            self.names.append(name)
        name_ix, parent, start, end = self.name_ix, self.parent, self.start, self.end
        stack, hooks, clock = self._stack, self.hooks, time.perf_counter

        def traced(*args, **kwargs):
            sid = len(start)
            name_ix.append(ix)
            parent.append(stack[-1] if stack else -1)
            end.append(0.0)
            stack.append(sid)
            t0 = clock()
            start.append(t0)
            try:
                result = fn(*args, **kwargs)
            finally:
                t1 = clock()
                end[sid] = t1
                stack.pop()
            hook = hooks.get(name)
            if hook is not None:
                hook(args, kwargs, result, t1 - t0)
            return result

        traced.__wrapped__ = fn
        traced.__name__ = getattr(fn, "__name__", name)
        return traced

    def install(self):
        mods = {k[len(self.package) + 1:]: m for k, m in sys.modules.items()
                if k.startswith(self.package + ".") and m is not None}
        for mod_name, funcs in FUNCTIONS.items():
            mod = mods[mod_name]
            for fname in funcs:
                original = getattr(mod, fname)
                wrapper = self._wrap(f"{mod_name}.{fname}", original)
                for other in mods.values():
                    for attr, value in list(vars(other).items()):
                        if value is original:
                            self._saved.append((other, attr, original))
                            setattr(other, attr, wrapper)
        for (mod_name, cls_name), meths in METHODS.items():
            cls = getattr(mods[mod_name], cls_name)
            for meth in meths:
                raw = inspect.getattr_static(cls, meth)
                self._saved.append((cls, meth, raw))
                if isinstance(raw, classmethod):
                    wrapped = classmethod(self._wrap(f"{mod_name}.{cls_name}.{meth}",
                                                     raw.__func__))
                else:
                    wrapped = self._wrap(f"{mod_name}.{cls_name}.{meth}", raw)
                setattr(cls, meth, wrapped)

    def uninstall(self):
        for owner, attr, original in reversed(self._saved):
            setattr(owner, attr, original)
        self._saved.clear()

    def mark(self) -> int:
        """Span index to start a later summary from."""
        return len(self.start)

    # -- summaries ----------------------------------------------------------

    def summarize(self, first: int = 0, last: int | None = None):
        """Per-name (calls, total, self) and per-layer (busy, self) seconds
        over spans ``first..last``; spans must be closed."""
        last = len(self.start) if last is None else last
        layer_of_name = [n.split(".")[0] for n in self.names]
        layer_bit = {layer: 1 << k for k, layer in enumerate(LAYERS)}
        child_time = defaultdict(float)
        dur = [0.0] * (last - first)
        for s in range(first, last):
            d = self.end[s] - self.start[s]
            dur[s - first] = d
            p = self.parent[s]
            if p >= first:
                child_time[p] += d
        # bitmask of layers on each span's ancestor path (parents precede children)
        above = [0] * (last - first)
        calls = defaultdict(int)
        total = defaultdict(float)
        self_s = defaultdict(float)
        busy = defaultdict(float)
        layer_self = defaultdict(float)
        for s in range(first, last):
            name = self.names[self.name_ix[s]]
            layer = layer_of_name[self.name_ix[s]]
            p = self.parent[s]
            if p >= first:
                pl = layer_of_name[self.name_ix[p]]
                above[s - first] = above[p - first] | layer_bit[pl]
            d = dur[s - first]
            own = d - child_time.get(s, 0.0)
            calls[name] += 1
            total[name] += d
            self_s[name] += own
            layer_self[layer] += own
            if not above[s - first] & layer_bit[layer]:
                busy[layer] += d
        return {"calls": dict(calls), "total": dict(total), "self": dict(self_s),
                "busy": dict(busy), "layer_self": dict(layer_self)}

    def write(self, path):
        """Save every span as columns: name, parent index, start, end."""
        import numpy as np
        path = Path(path)
        path.parent.mkdir(parents=True, exist_ok=True)
        np.savez_compressed(
            path, names=np.array(self.names),
            name=np.asarray(self.name_ix, dtype=np.int32),
            parent=np.asarray(self.parent, dtype=np.int64),
            start=np.asarray(self.start, dtype=np.float64),
            end=np.asarray(self.end, dtype=np.float64))
        return path
