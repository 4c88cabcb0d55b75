"""Per-layer tracing for the drs-sim benchmark, applied from outside the program.

Run as a script, this module is the traced child process:

    python3 perfbench/tracing.py SPANS.json run --config ... --seed ... --out ...

It wraps each layer's public functions at the name the caller looks up
(``drs_sim.engine.select_rotation``, not ``drs_sim.nullsteer.select_rotation``),
runs ``drs_sim.cli.main`` on the remaining arguments in this process, and
writes the spans it kept in memory to SPANS.json when the command ends.
Functions called thousands of times per step are counted, not timed.

Imported, it turns a spans file into the benchmark's per-layer metrics.
"""

from __future__ import annotations

import functools
import importlib
import json
import statistics
import sys
import time
from collections import Counter, defaultdict

# (span name, module, attribute path) for every timed function.  A target
# that no longer exists is skipped and listed as missing in the spans file.
SPAN_TARGETS = [
    ("traffic.advance", "drs_sim.traffic", "TrafficModel.advance"),
    ("traffic.spawn_arrivals", "drs_sim.traffic", "TrafficModel.spawn_arrivals"),
    ("traffic.maybe_start_pair", "drs_sim.traffic", "TrafficModel.maybe_start_pair"),
    ("traffic.vehicle_by_id", "drs_sim.traffic", "TrafficModel.vehicle_by_id"),
    ("planner.optimal_location", "drs_sim.engine", "optimal_location"),
    ("planner.step_towards", "drs_sim.engine", "step_towards"),
    ("nullsteer.select_rotation", "drs_sim.engine", "select_rotation"),
    ("nullsteer.candidate_alphas", "drs_sim.nullsteer", "candidate_alphas"),
    ("geometry.angles_to", "drs_sim.engine", "angles_to"),
    ("channel.path_loss_far_field", "drs_sim.engine", "path_loss_far_field"),
    ("channel.psi", "drs_sim.engine", "psi"),
    ("channel.sinr", "drs_sim.engine", "sinr"),
    ("channel.rate", "drs_sim.engine", "rate"),
    ("engine.run_step", "drs_sim.engine", "run_step"),
    ("engine.constraints", "drs_sim.engine", "_check_constraints"),
    ("engine.summarize", "drs_sim.engine", "summarize"),
    ("engine.run_simulation", "drs_sim.engine", "run_simulation"),
    ("engine.run_simulation", "drs_sim.cli", "run_simulation"),
    ("engine.paired_sweep", "drs_sim.cli", "paired_sweep"),
    ("cli.write_steps_csv", "drs_sim.cli", "write_steps_csv"),
    ("cli.write_summary_json", "drs_sim.cli", "write_summary_json"),
    ("config.load_config", "drs_sim.cli", "load_config"),
]

COUNT_TARGETS = [
    ("planner.height_cost_evals", "drs_sim.planner", "relay_height_cost"),
    ("nullsteer.psi_interference.calls", "drs_sim.nullsteer", "psi_interference"),
    ("rng.draws", "drs_sim.rng", "SplitMix64.next_u64"),
]

# Module prefix of a span name -> layer whose self-time share is reported.
LAYERS = ("traffic", "planner", "nullsteer", "geometry", "channel", "engine", "cli", "config")

# Exact counts: identical across repeats and unchanged by tracing.
COUNT_METRICS = (
    "engine.records",
    "engine.run_step.calls",
    "rng.draws",
    "planner.height_cost_evals",
    "planner.optimal_location.calls",
    "traffic.vehicle_by_id.calls",
    "nullsteer.select_rotation.calls",
    "nullsteer.candidate_alphas.calls",
    "nullsteer.psi_interference.calls",
    "nullsteer.analytic.steps",
    "nullsteer.fallback.steps",
    "nullsteer.none.steps",
    "geometry.angles_to.calls",
)

# Null modes as the program names them -> metric name.
MODES = {"analytic-null": "analytic", "fallback-min": "fallback", "none": "none"}


class Tracer:
    """Spans and counts kept in memory; one instance per traced process.

    A span is [name, start_ns, end_ns, parent index or -1, tag].  Spans are
    appended when they start, so a parent always precedes its children.
    """

    def __init__(self) -> None:
        self.spans: list[list] = []
        self.counts: Counter[str] = Counter()
        self.samples: dict[str, list[float]] = defaultdict(list)
        self.missing: list[str] = []
        self._stack = [-1]

    def timed(self, name, fn, on_exit=None):
        spans, stack, clock = self.spans, self._stack, time.perf_counter_ns

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            span = [name, clock(), 0, stack[-1], None]
            stack.append(len(spans))
            spans.append(span)
            try:
                result = fn(*args, **kwargs)
            finally:
                stack.pop()
                span[2] = clock()
            if on_exit is not None:
                on_exit(span, args, result)
            return result

        return wrapper

    def counted(self, name, fn):
        counts = self.counts

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            counts[name] += 1
            return fn(*args, **kwargs)

        return wrapper

    def install(self) -> None:
        """Replace every target in the imported drs_sim modules with a wrapper."""
        hooks = {
            "traffic.advance": self._after_advance,
            "nullsteer.select_rotation": self._after_select_rotation,
            "nullsteer.candidate_alphas": self._after_candidates,
            "engine.run_step": self._after_run_step,
            "engine.run_simulation": self._after_run_simulation,
        }
        wrapped: dict[int, object] = {}  # one wrapper per original function
        for name, module, path in SPAN_TARGETS + COUNT_TARGETS:
            owner, attr = _resolve(module, path)
            if owner is None:
                self.missing.append(f"{module}.{path}")
                continue
            original = getattr(owner, attr)
            if id(original) not in wrapped:
                if (name, module, path) in COUNT_TARGETS:
                    wrapped[id(original)] = self.counted(name, original)
                else:
                    wrapped[id(original)] = self.timed(name, original, hooks.get(name))
            setattr(owner, attr, wrapped[id(original)])

    def _after_advance(self, span, args, result):
        self.samples["traffic.alive_vehicles"].append(len(args[0].vehicles))

    def _after_select_rotation(self, span, args, result):
        span[4] = result.mode

    def _after_candidates(self, span, args, result):
        self.samples["nullsteer.candidates"].append(len(result))

    def _after_run_step(self, span, args, result):
        if result is not None:
            self.counts["engine.records"] += 1

    def _after_run_simulation(self, span, args, result):
        span[4] = ["on" if result.control_on else "off", result.seed]

    def dump(self, path: str) -> None:
        names = sorted({span[0] for span in self.spans})
        index = {name: i for i, name in enumerate(names)}
        payload = {
            "names": names,
            "spans": [[index[s[0]], s[1], s[2], s[3], s[4]] for s in self.spans],
            "counts": dict(self.counts),
            "samples": self.samples,
            "missing": self.missing,
        }
        with open(path, "w", encoding="utf-8") as fh:
            json.dump(payload, fh, separators=(",", ":"))


def _resolve(module: str, path: str):
    owner = importlib.import_module(module)
    *parents, attr = path.split(".")
    for part in parents:
        owner = getattr(owner, part, None)
    if owner is None or not hasattr(owner, attr):
        return None, attr
    return owner, attr


def self_times(spans: list) -> list[int]:
    """Each span's duration minus the part of its interval its children cover.

    ``spans`` holds (name, start, end, parent, ...) rows; parent is an index
    into ``spans`` or -1.  Overlapping children are counted once.
    """
    children: dict[int, list[tuple[int, int]]] = defaultdict(list)
    for span in spans:
        if span[3] >= 0:
            children[span[3]].append((span[1], span[2]))
    result = []
    for i, span in enumerate(spans):
        start, end = span[1], span[2]
        covered, reach = 0, start
        for child_start, child_end in sorted(children.get(i, ())):
            lo, hi = max(child_start, reach), min(child_end, end)
            if hi > lo:
                covered += hi - lo
                reach = hi
        result.append(end - start - covered)
    return result


def layer_metrics(payload: dict) -> dict[str, float]:
    """Per-layer metrics of one traced command, from its spans file."""
    names = payload["names"]
    spans = [[names[s[0]], *s[1:]] for s in payload["spans"]]
    own = self_times(spans)
    calls: Counter[str] = Counter()
    self_ns: Counter[str] = Counter()
    total_ns: Counter[str] = Counter()
    step_ns: list[int] = []
    for span, self_time in zip(spans, own):
        name, duration = span[0], span[2] - span[1]
        calls[name] += 1
        self_ns[name] += self_time
        total_ns[name] += duration
        if name == "nullsteer.select_rotation" and span[4] in MODES:
            calls[f"nullsteer.{MODES[span[4]]}"] += 1
            total_ns[f"nullsteer.{MODES[span[4]]}"] += duration
        elif name == "engine.run_simulation":
            total_ns[f"engine.arm.{span[4][0]}"] += duration
        elif name == "engine.run_step":
            step_ns.append(duration)

    counts = payload["counts"]
    samples = payload["samples"]
    traced_ns = sum(own)
    s = 1e-9
    metrics = {
        "traffic.advance.self_s": self_ns["traffic.advance"] * s,
        "traffic.spawn_arrivals.self_s": self_ns["traffic.spawn_arrivals"] * s,
        "traffic.maybe_start_pair.self_s": self_ns["traffic.maybe_start_pair"] * s,
        "traffic.vehicle_by_id.calls": calls["traffic.vehicle_by_id"],
        "traffic.vehicle_by_id.self_s": self_ns["traffic.vehicle_by_id"] * s,
        "traffic.alive_vehicles.mean": _mean(samples.get("traffic.alive_vehicles")),
        "planner.optimal_location.calls": calls["planner.optimal_location"],
        "planner.optimal_location.self_s": self_ns["planner.optimal_location"] * s,
        "planner.height_cost_evals": counts.get("planner.height_cost_evals", 0),
        "planner.step_towards.self_s": self_ns["planner.step_towards"] * s,
        "nullsteer.select_rotation.calls": calls["nullsteer.select_rotation"],
        "nullsteer.select_rotation.self_s": self_ns["nullsteer.select_rotation"] * s,
        "nullsteer.candidate_alphas.calls": calls["nullsteer.candidate_alphas"],
        "nullsteer.candidate_alphas.self_s": self_ns["nullsteer.candidate_alphas"] * s,
        "nullsteer.candidates.mean": _mean(samples.get("nullsteer.candidates")),
        "nullsteer.psi_interference.calls": counts.get("nullsteer.psi_interference.calls", 0),
        "channel.path_loss_far_field.self_s": self_ns["channel.path_loss_far_field"] * s,
        "channel.psi.self_s": self_ns["channel.psi"] * s,
        "channel.sinr_rate.self_s": (self_ns["channel.sinr"] + self_ns["channel.rate"]) * s,
        "geometry.angles_to.calls": calls["geometry.angles_to"],
        "geometry.angles_to.self_s": self_ns["geometry.angles_to"] * s,
        "engine.run_step.calls": calls["engine.run_step"],
        "engine.run_step.self_s": self_ns["engine.run_step"] * s,
        "engine.run_step.p50_us": _quantile(step_ns, 0.50) * 1e-3,
        "engine.run_step.p99_us": _quantile(step_ns, 0.99) * 1e-3,
        "engine.constraints.self_s": self_ns["engine.constraints"] * s,
        "engine.records": counts.get("engine.records", 0),
        "engine.summarize.s": total_ns["engine.summarize"] * s,
        "engine.paired_sweep.s": total_ns["engine.paired_sweep"] * s,
        "engine.arm.on.s": total_ns["engine.arm.on"] * s,
        "engine.arm.off.s": total_ns["engine.arm.off"] * s,
        "cli.write_steps_csv.s": total_ns["cli.write_steps_csv"] * s,
        "cli.write_summary_json.s": total_ns["cli.write_summary_json"] * s,
        "config.load_config.s": total_ns["config.load_config"] * s,
        "rng.draws": counts.get("rng.draws", 0),
    }
    for mode in MODES.values():
        metrics[f"nullsteer.{mode}.steps"] = calls[f"nullsteer.{mode}"]
        metrics[f"nullsteer.{mode}.s"] = total_ns[f"nullsteer.{mode}"] * s
    for layer in LAYERS:
        layer_ns = sum(v for k, v in self_ns.items() if k.split(".")[0] == layer)
        metrics[f"share.{layer}_pct"] = 100.0 * layer_ns / traced_ns if traced_ns else 0.0
    return metrics


def arms_by_seed(payload: dict) -> dict[int, list[str]]:
    """Arms (on/off) of every traced run_simulation call, keyed by seed."""
    arms: dict[int, list[str]] = defaultdict(list)
    names = payload["names"]
    for span in payload["spans"]:
        if names[span[0]] == "engine.run_simulation":
            arm, seed = span[4]
            arms[seed].append(arm)
    return {seed: sorted(values) for seed, values in arms.items()}


def _mean(values) -> float:
    return statistics.fmean(values) if values else 0.0


def _quantile(values: list[int], q: float) -> float:
    if not values:
        return 0.0
    ordered = sorted(values)
    return float(ordered[min(len(ordered) - 1, int(q * len(ordered)))])


def main(argv: list[str]) -> int:
    spans_path, cli_args = argv[0], argv[1:]
    import drs_sim.cli

    tracer = Tracer()
    tracer.install()
    code = drs_sim.cli.main(cli_args)
    tracer.dump(spans_path)
    return code


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
