"""drs-sim benchmark: drives the `drs-sim` CLI as a child process and reports
host-time metrics.

    python3 perfbench/run.py --workload rsu_on --seed 1 --seconds 30 --trace 0

Run it from the root of a source checkout; the program is imported from
./src.  Commands run one at a time, in a closed loop: the next starts when
the previous one has exited.  With --trace 0 it prints the end-to-end
metrics, with --trace 1 the per-layer metrics of a separate traced run.
Every command's output is checked; a failed check counts toward `failed`.
The last line of standard output is one JSON object; a full report is
written to .bench_work/report-<workload>-trace<0|1>.json.

See perfbench/README.md for why each workload exists and what each metric
is expected to move.
"""

from __future__ import annotations

import argparse
import json
import math
import os
import platform
import random
import shutil
import statistics
import subprocess
import sys
import threading
import time
from dataclasses import asdict, dataclass, field
from pathlib import Path

import check
import tracing

ROOT = Path(__file__).resolve().parent.parent
BENCH = Path(__file__).resolve().parent
WORK = ROOT / ".bench_work"
CLI = [sys.executable, "-m", "drs_sim.cli"]
TRACED_CLI = [sys.executable, str(BENCH / "tracing.py")]

# Units and workload reasons are declared once, in BENCHMARK.json.
DECLARED = json.loads((ROOT / "BENCHMARK.json").read_text(encoding="utf-8"))
UNITS = {m["name"]: m["unit"] for m in DECLARED["end_to_end"] + DECLARED["per_layer"]}
WHY = {w["name"]: w["why"] for w in DECLARED["workloads"]}

# At least this many one-step commands per pass, spread evenly over it.
SETUP_REPEATS = 11
# The reference kernel takes REFERENCE_S on the machine the bounds were sized
# on (2-core Xeon, Python 3.11.7, median 0.039 s, rounded).  It runs before
# the first command and after every command.  Repeating one command on that
# machine, log(wall) rose 0.65-0.79 times as fast as log(kernel time), so a
# time is scaled by the kernel's speed to the power SPEED_EXPONENT.
REFERENCE_ITERATIONS = 50_000
REFERENCE_S = 0.04
SPEED_EXPONENT = 0.7
COMMAND_TIMEOUT_S = 100.0
JOBS = 2  # the machine's core count; the sweep never uses more workers


@dataclass(frozen=True)
class Workload:
    """One benchmark input: a pinned config and how many seeds one pass covers.

    One pass runs `commands` commands of `seeds_per_command` seeds each: a
    `run` takes one seed, a `sweep` several.  The traced run covers the
    first `trace_seeds` seeds.
    """

    name: str
    command: str  # "run" or "sweep"
    commands: int
    seeds_per_command: int
    trace_seeds: int
    # Whether end-to-end times are scaled by the machine's speed.  The
    # kernel runs on one core, so it does not track a sweep spread over two.
    scaled: bool

    @property
    def config(self) -> Path:
        return BENCH / "configs" / f"{self.name}.cfg"


WORKLOADS = {
    w.name: w
    for w in (
        Workload("rsu_on", "run", 11, 1, 1, scaled=True),
        Workload("dense_off", "run", 10, 1, 1, scaled=True),
        Workload("fallback_scan", "run", 7, 1, 1, scaled=True),
        Workload("sweep_paired", "sweep", 3, 4, 1, scaled=False),
    )
}


@dataclass
class Sample:
    """Host cost of one child process, from wait4."""

    wall_s: float
    cpu_s: float
    peak_rss_mb: float
    code: int
    # REFERENCE_S over the mean kernel time just before and just after the
    # command; 1.0 in a traced run, which samples no kernel.
    speed: float = 1.0


@dataclass
class Tally:
    """Invocations attempted and failed, with the reason for each failure."""

    attempted: int = 0
    failures: list[str] = field(default_factory=list)

    def fail(self, what: str) -> None:
        self.failures.append(what)
        print(f"FAILED: {what}", file=sys.stderr)


def sim_seeds(seed: int, count: int) -> list[int]:
    """The simulator seeds of one workload run, derived from the benchmark seed."""
    rng = random.Random(seed)
    return [rng.randrange(1, 2**31) for _ in range(count)]


class _Point:
    __slots__ = ("x", "y")

    def __init__(self, x: float, y: float) -> None:
        self.x, self.y = x, y


def reference_s() -> float:
    """Time a fixed pure-Python kernel: the machine's speed right now.

    Co-tenants on a shared host slow the interpreter by up to 2x, for
    moments and for tens of seconds at a time.  A command's host time is
    scaled by (REFERENCE_S / kernel time around it) ** SPEED_EXPONENT, which
    cancels most of that drift; the kernel is part of the benchmark, so it
    is the same for every commit measured.
    """
    start = time.perf_counter()
    acc = 0.0
    for i in range(REFERENCE_ITERATIONS):
        p = _Point(math.sin(i * 1e-3), math.cos(i * 1e-3))
        acc += math.hypot(p.x, p.y) + (i % 7)
    return time.perf_counter() - start


def invoke(argv: list[str], out_dir: Path) -> Sample:
    """Run one child process to completion and measure it."""
    shutil.rmtree(out_dir, ignore_errors=True)
    out_dir.mkdir(parents=True)
    env = dict(os.environ, PYTHONPATH=str(ROOT / "src"), DRS_SIM_LOG="warning")
    with open(out_dir / "stderr.txt", "wb") as err:
        start = time.perf_counter()
        proc = subprocess.Popen(argv, cwd=ROOT, env=env, stdout=subprocess.DEVNULL, stderr=err)
        timer = threading.Timer(COMMAND_TIMEOUT_S, proc.kill)
        timer.start()
        try:
            _, status, usage = os.wait4(proc.pid, 0)
        finally:
            timer.cancel()
        wall = time.perf_counter() - start
    proc.returncode = os.waitstatus_to_exitcode(status)
    # ru_maxrss is in KiB on Linux; for wait4 it is the largest of the
    # child and the descendants it waited for (the sweep's pool workers).
    return Sample(wall, usage.ru_utime + usage.ru_stime, usage.ru_maxrss / 1024.0, proc.returncode)


def input_key(command: str, steps: int, seeds: list[int]) -> str:
    """Names one input; it is also the name of the command's output directory."""
    return f"{command}-{steps}-" + "_".join(map(str, seeds))


def relative(path: Path) -> str:
    return str(path.relative_to(ROOT))


class Runner:
    """Runs and checks the commands of one workload run."""

    def __init__(self, workload: Workload, seed: int, traced: bool, steps: int | None = None) -> None:
        self.workload = workload
        self.pinned = check.read_pinned(workload.config)
        self.steps = steps if steps is not None else int(self.pinned["run.steps"])
        self.seeds = sim_seeds(seed, workload.commands * workload.seeds_per_command)
        self.tally = Tally()
        self.digests: dict[str, set[str]] = {}
        self.outputs: dict[str, check.RunOutput | check.SweepOutput] = {}
        self.samples: list[tuple[str, Sample]] = []
        # Every untraced command's speed is sampled, and kept in the report
        # even where the workload does not scale by it.
        self.sampled = not traced
        self.references: list[float] = []

    def execute(self, prefix: list[str], command: str, seeds: list[int], steps: int,
                jobs: int = JOBS) -> Sample | None:
        """Run and check one command; return its sample, or None if it failed.

        Every run of the same input must write byte-identical output.
        """
        key = input_key(command, steps, seeds)
        out = WORK / "out" / key
        argv = [command, "--config", relative(self.workload.config), "--steps", str(steps),
                "--out", relative(out)]
        if command == "run":
            argv += ["--seed", str(seeds[0])]
        else:
            # The trailing comma makes a single seed a list; "--seeds N" is a count.
            argv += ["--seeds", ",".join(map(str, seeds)) + ",", "--jobs", str(jobs)]
        if self.sampled and not self.references:
            self.references.append(reference_s())
        sample = invoke(prefix + argv, out)
        if self.sampled:
            self.references.append(reference_s())
            sample.speed = 2 * REFERENCE_S / (self.references[-2] + self.references[-1])
        self.samples.append((key if prefix is CLI else f"traced {key}", sample))
        self.tally.attempted += 1
        if sample.code != 0:
            err = (out / "stderr.txt").read_text(errors="replace").strip().splitlines()
            self.tally.fail(f"{key}: exit code {sample.code}: {err[-1] if err else ''}")
            return None
        try:
            if command == "run":
                overrides = {"scenario.seed": str(seeds[0]), "run.steps": str(steps),
                             "run.output_dir": relative(out)}
                output = check.check_run(out, self.pinned, overrides)
            else:
                output = check.check_sweep(out, seeds)
        except (check.CheckError, KeyError, ValueError) as exc:
            self.tally.fail(f"{key}: {exc}")
            return None
        digests = self.digests.setdefault(key, set())
        digests.add(output.digest)
        if len(digests) > 1:
            self.tally.fail(f"{key}: output differs between repeats of the same input")
            return None
        self.outputs[key] = output
        return sample

    def inputs(self) -> list[list[int]]:
        """The seeds of each command of one pass."""
        n = self.workload.seeds_per_command
        return [self.seeds[i:i + n] for i in range(0, len(self.seeds), n)]

    def end_to_end(self, seconds: float) -> tuple[dict[str, float], dict[str, float]]:
        """Pass over every input until the time is up, at least once.

        Each input's cost is the median over its passes; a metric is the
        mean of that over the inputs, so every seed weighs the same.
        `setup_s` is the median wall time of the same commands with one
        step, run before each input's full command, so that they are spread
        over the whole run.  Returns the metrics scaled by each command's
        speed, and unscaled.
        """
        command, inputs = self.workload.command, self.inputs()
        samples: list[list[Sample]] = [[] for _ in inputs]
        setup: list[Sample] = []
        setup_per_input = math.ceil(SETUP_REPEATS / len(inputs))
        start = time.perf_counter()
        if command == "sweep":
            # The sweep writes no config echo; a one-step run checks its pinned file.
            self.execute(CLI, "run", self.seeds[:1], 1)
        while True:
            pass_start = time.perf_counter()
            for seeds, kept in zip(inputs, samples):
                for _ in range(setup_per_input):
                    sample = self.execute(CLI, command, seeds, 1)
                    if sample is not None:
                        setup.append(sample)
                sample = self.execute(CLI, command, seeds, self.steps)
                if sample is not None:
                    kept.append(sample)
            now = time.perf_counter()
            if now - start + (now - pass_start) > seconds:
                break
        if not all(samples) or not setup:
            return {}, {}
        steps = self.steps * (1 if command == "run" else 2 * self.workload.seeds_per_command)

        def metrics(scale) -> dict[str, float]:
            m = {attr: statistics.fmean(statistics.median(getattr(x, attr) * scale(x) for x in kept)
                                        for kept in samples)
                 for attr in ("wall_s", "cpu_s")}
            m["peak_rss_mb"] = statistics.fmean(statistics.median(x.peak_rss_mb for x in kept) for kept in samples)
            m["steps_per_s"] = steps / m["wall_s"]
            m["setup_s"] = statistics.median(x.wall_s * scale(x) for x in setup)
            return m

        exponent = SPEED_EXPONENT if self.workload.scaled else 0.0
        return metrics(lambda x: x.speed ** exponent), metrics(lambda x: 1.0)

    def per_layer(self, seconds: float) -> tuple[dict[str, float], dict]:
        """Alternate untraced and traced commands on the trace seeds.

        Both run serially (`--jobs 1` for the sweep), so their wall-time
        ratio is the tracing overhead.  Counts must repeat exactly, and the
        traced output must equal the untraced output.
        """
        command, seeds = self.workload.command, self.seeds[: self.workload.trace_seeds]
        spans_path = WORK / "spans.json"
        plain, traced, layers, facts = [], [], [], {}
        start, round_s = time.perf_counter(), 0.0
        # At least two rounds, so that counts can be compared across repeats;
        # no round that would end after `seconds`.
        while len(layers) < 2 or time.perf_counter() - start + round_s <= seconds:
            round_start = time.perf_counter()
            sample = self.execute(CLI, command, seeds, self.steps, jobs=1)
            if sample is None:
                break
            plain.append(sample.wall_s)
            sample = self.execute(TRACED_CLI + [relative(spans_path)], command, seeds, self.steps, jobs=1)
            if sample is None:
                break
            traced.append(sample.wall_s)
            payload = json.loads(spans_path.read_text(encoding="utf-8"))
            layers.append(tracing.layer_metrics(payload))
            layers[-1]["cli.output_bytes"] = sum(
                p.stat().st_size for p in (WORK / "out" / input_key(command, self.steps, seeds)).iterdir()
                if p.name != "stderr.txt")
            facts = {"missing_targets": payload["missing"], "arms_by_seed": tracing.arms_by_seed(payload)}
            round_s = time.perf_counter() - round_start
        if not layers:
            return {}, facts
        for name in tracing.COUNT_METRICS:
            if len({m[name] for m in layers}) > 1:
                self.tally.fail(f"count {name} differs between traced repeats")
        key = input_key(command, self.steps, seeds)
        untraced = self.outputs.get(key)
        if isinstance(untraced, check.RunOutput) and layers[0]["engine.records"] != untraced.n_records:
            self.tally.fail(f"traced engine.records {layers[0]['engine.records']} != n_records {untraced.n_records}")
        metrics = {name: statistics.median(m[name] for m in layers) for name in layers[0]}
        metrics["trace.overhead_pct"] = 100.0 * (statistics.median(traced) / statistics.median(plain) - 1.0)
        facts["counts"] = {name: layers[0][name] for name in tracing.COUNT_METRICS}
        facts["repeats"] = len(layers)
        return metrics, facts


def purpose(workload: str, m: dict[str, float], facts: dict) -> list[str]:
    """Whether the traced run shows the workload doing the job it was chosen for.

    These are reported, not enforced: a later optimization may move a
    share without making any output wrong.
    """
    shares = {k: v for k, v in m.items() if k.startswith("share.")}
    if workload == "dense_off":
        return [f"traffic has the largest self-time share: {max(shares, key=shares.get) == 'share.traffic_pct'}",
                f"select_rotation calls = {m['nullsteer.select_rotation.calls']:.0f} (expected 0)"]
    if workload == "fallback_scan":
        others = [v for k, v in m.items() if not k.startswith("nullsteer.") and (k.endswith("self_s") or k in (
            "engine.summarize.s", "cli.write_steps_csv.s", "cli.write_summary_json.s", "config.load_config.s"))]
        return [f"nullsteer.fallback.s {m['nullsteer.fallback.s']:.3f} s exceeds every layer time "
                f"outside null steering: {m['nullsteer.fallback.s'] > max(others)}"]
    if workload == "rsu_on":
        ratio = m["nullsteer.analytic.steps"] / max(1.0, m["nullsteer.fallback.steps"])
        return [f"analytic steps / fallback steps = {ratio:.1f} (expected > 50)"]
    arms = facts.get("arms_by_seed", {})
    return [f"both arms traced for every seed: {bool(arms) and all(v == ['off', 'on'] for v in arms.values())}"]


def machine_facts(seed: int) -> dict:
    return {
        "nproc": os.cpu_count(),
        "python": platform.python_version(),
        "machine": platform.machine(),
        "system": f"{platform.system()} {platform.release()}",
        "seed": seed,
    }


def run(workload_name: str, seed: int, seconds: float, traced: bool,
        steps: int | None = None) -> dict:
    """One benchmark run; returns its report, which also holds the result line.

    `steps` replaces the pinned step count, for smoke tests only.
    """
    workload = WORKLOADS[workload_name]
    shutil.rmtree(WORK / "out", ignore_errors=True)  # keep only this run's outputs
    runner = Runner(workload, seed, traced, steps)
    facts: dict = {}
    if traced:
        values, facts = runner.per_layer(seconds)
        if values:
            values["error_rate"] = len(runner.tally.failures) / max(1, runner.tally.attempted)
    else:
        values, raw = runner.end_to_end(seconds)
        facts = {"raw": raw, "reference_s": runner.references}
    tally = runner.tally
    metrics = {name: {"value": values[name], "unit": UNITS[name]} for name in sorted(values)}
    report = {
        "workload": workload_name,
        "why": WHY[workload_name],
        "trace": int(traced),
        "machine": machine_facts(seed),
        "sim_seeds": runner.seeds,
        "steps": runner.steps,
        "facts": facts,
        "outputs": {key: asdict(out) for key, out in runner.outputs.items()},
        "samples": [[key, round(s.wall_s, 4), round(s.cpu_s, 4), round(s.peak_rss_mb, 2), s.code,
                     round(s.speed, 4)] for key, s in runner.samples],
        "failures": tally.failures,
        "result": {
            "correct": not tally.failures and bool(values),
            "attempted": max(1, tally.attempted),
            "failed": len(tally.failures),
            "metrics": metrics,
        },
    }
    if traced and values:
        report["purpose"] = purpose(workload_name, values, facts)
    (WORK / f"report-{workload_name}-trace{int(traced)}.json").write_text(
        json.dumps(report, indent=2) + "\n", encoding="utf-8")
    return report


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)

    if not (ROOT / "src" / "drs_sim" / "cli.py").is_file():
        print(f"error: no drs-sim source under {ROOT / 'src'}", file=sys.stderr)
        return 2
    WORK.mkdir(exist_ok=True)
    # The build: byte-compile the sources so that no timed command pays for it.
    subprocess.run([sys.executable, "-m", "compileall", "-q", str(ROOT / "src")],
                   check=True, stdout=subprocess.DEVNULL)

    report = run(args.workload, args.seed, args.seconds, bool(args.trace))
    result = report["result"]
    for line in report.get("purpose", []):
        print(f"purpose: {line}")
    for name, metric in result["metrics"].items():
        print(f"{name:40s} {metric['value']:.6g} {metric['unit']}")
    if WORKLOADS[args.workload].scaled and not args.trace:
        print("unscaled: " + ", ".join(
            f"{name} {value:.6g}" for name, value in sorted(report["facts"]["raw"].items())))
    for failure in report["failures"]:
        print(f"failed: {failure}")
    print(json.dumps(result))
    return 0 if result["correct"] else 1


if __name__ == "__main__":
    sys.exit(main())
