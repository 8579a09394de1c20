"""hankelpde benchmark: one workload, one seed, a fixed measuring time.

    python3 perfbench/run.py --workload kdv_soliton --seed 1 --seconds 35 --trace 0

Run from the root of a source checkout.  Each measured process is a
fresh interpreter running the real `hankelpde solve` / `hankelpde study`
command line on a scenario generated from the seed (see scengen.py), so
every run pays what a user pays.  Processes repeat until the next one
would end after --seconds; the metrics are medians over them.  Every
process is checked by gate.py; a failing one counts its samples as
failed and is never dropped.

--trace 0 prints the end-to-end metrics.  --trace 1 alternates an
untraced and a traced process (see spans.py) and prints the per-layer
metrics, with the tracing overhead.  The last line of standard output
is one JSON object: correct, attempted, failed, metrics.  The line
before it holds the detail: every figure with its unit, median, sample
count, values and high percentile, the wall-clock figures, and the
environment.  README.md describes the workloads and metrics.
"""

import argparse
import json
import math
import os
import platform
import shutil
import statistics
import subprocess
import sys
import time

HERE = os.path.dirname(os.path.abspath(__file__))
sys.path.insert(0, HERE)

import gate  # noqa: E402
import scengen  # noqa: E402
import spans  # noqa: E402

ROOT = os.path.dirname(HERE)
SRC = os.path.join(ROOT, "src")
WORK = os.path.join(HERE, "_work")
CHILD = os.path.join(HERE, "child.py")

# setup-only processes after each full process, so that setup samples
# spread over the whole run; one unmeasured warm-up comes first
SETUP_PER_PROCESS = 2
# a hung process is killed so that the whole run ends within 180 s
RUN_LIMIT_S = 165.0

# Bounded metrics count CPU seconds of the process (all threads).  The
# 2-core host the benchmark was defined on shares its cores with other
# machines: CPU steal moved wall times of identical runs by up to 60%
# within minutes.  The wall-clock figures a user sees are in the detail
# line.
END_TO_END_UNITS = {"setup_s": "s", "run_cpu_s": "s", "peak_rss_mb": "MB",
                    "error_digits": "digits"}
DETAIL_UNITS = {"setup_s": "s", "setup_wall_s": "s", "run_s": "s",
                "run_cpu_s": "s", "samples_per_s": "1/s", "peak_rss_mb": "MB",
                "error_max": "1", "error_digits": "digits"}
# per-layer metrics measured around the spans rather than from them
TRACE_UNITS = {"cli.import_s": "s", "cli.output_bytes": "bytes",
               "trace.accounted_frac": "ratio", "trace.overhead_frac": "ratio"}


def child_env():
    env = {k: v for k, v in os.environ.items() if not k.startswith("HANKELPDE_")}
    env["PYTHONPATH"] = os.pathsep.join(
        [SRC] + ([env["PYTHONPATH"]] if env.get("PYTHONPATH") else []))
    # --threads is the only concurrency; BLAS threads would oversubscribe
    # the cores (see README.md)
    env["OPENBLAS_NUM_THREADS"] = "1"
    env["OMP_NUM_THREADS"] = "1"
    return env


def _wait(proc, deadline):
    """Reap proc, killing it at the deadline; return (exit code or None,
    rusage).  os.wait4 gives this child's own peak RSS."""
    while True:
        pid, status, usage = os.wait4(proc.pid, os.WNOHANG)
        if pid == proc.pid:
            proc.returncode = os.waitstatus_to_exitcode(status)
            return proc.returncode, usage
        if time.monotonic() > deadline:
            proc.kill()
            _, status, usage = os.wait4(proc.pid, 0)
            proc.returncode = os.waitstatus_to_exitcode(status)
            return None, usage
        time.sleep(0.01)


def _dir_bytes(path):
    if not os.path.isdir(path):
        return 0
    return sum(os.path.getsize(os.path.join(path, f)) for f in os.listdir(path))


class Bench:
    """One run: its scratch directory, generated scenario and deadline."""

    def __init__(self, workload, seed, work, deadline):
        self.workload = workload
        self.spec = scengen.WORKLOADS[workload]
        self.work = work
        self.deadline = deadline
        self.env = child_env()
        self.scenario = scengen.GENERATORS[workload](seed)
        self.scenario_path = os.path.join(work, "scenario.yaml")
        scengen.write_scenario(self.scenario_path, workload, seed)

    def argv(self, out_dir):
        threads = ["--threads", str(self.spec["threads"])]
        if self.spec["command"] == "solve":
            return ["solve", self.scenario_path, "--out", out_dir] + threads
        return ["study", self.scenario_path, "--levels",
                str(self.spec["levels"])] + threads

    def spawn(self, tag, out_dir, spans_path=None, setup_only=False):
        """Run child.py once; return its stamps, exit code, rusage, stdout."""
        path = os.path.join(self.work, tag)
        cmd = [sys.executable, CHILD, "--times", path + ".times.json"]
        if spans_path:
            cmd += ["--spans", spans_path]
        if setup_only:
            cmd.append("--setup-only")
        cmd += ["--"] + self.argv(out_dir)
        with open(path + ".stdout", "w") as out, open(path + ".stderr", "w") as err:
            spawned = time.monotonic()
            proc = subprocess.Popen(cmd, stdout=out, stderr=err, env=self.env,
                                    cwd=self.work)
            try:
                code, usage = _wait(proc, self.deadline)
            finally:
                if proc.returncode is None:
                    proc.kill()
                    proc.wait()
        stamps = {}
        if os.path.exists(path + ".times.json"):
            with open(path + ".times.json") as fh:
                stamps = json.load(fh)
        with open(path + ".stdout") as fh:
            stdout = fh.read()
        return {"spawned": spawned, "stamps": stamps, "code": code,
                "maxrss_kb": usage.ru_maxrss, "stdout": stdout}

    def setup_times(self, count, tag):
        """Setup-only processes: (CPU, wall) seconds to the parsed scenario."""
        times = []
        for i in range(count):
            rec = self.spawn("setup-%s-%d" % (tag, i),
                             os.path.join(self.work, "unused"), setup_only=True)
            if rec["code"] == 0 and "parsed" in rec["stamps"]:
                times.append((rec["stamps"]["parsed_cpu"],
                              rec["stamps"]["parsed"] - rec["spawned"]))
        return times

    def measured(self, index, traced=False):
        """One full process, gated, with its spans when traced."""
        tag = "%s%03d" % ("traced" if traced else "plain", index)
        out_dir = os.path.join(self.work, tag + ".out")
        spans_path = os.path.join(self.work, tag + ".spans.json") if traced else None
        record = self.spawn(tag, out_dir, spans_path=spans_path)
        m = Measurement(self, record, out_dir)
        if traced and m.completed:
            m.spans = spans.load(spans_path)
        shutil.rmtree(out_dir, ignore_errors=True)
        return m


class Measurement:
    """One full hankelpde process, its timings and its gate verdict.

    A process that ran to the end has timings even when its outputs fail
    the gate, so a wrong answer still reports how long it took."""

    def __init__(self, bench, record, out_dir):
        self.record = record
        stamps = record["stamps"]
        self.samples = stamps.get("samples", scengen.sample_count(bench.workload))
        self.skipped = stamps.get("skipped", 0)
        self.output_bytes = _dir_bytes(out_dir)
        self.error_max = math.inf
        self.problems = []
        # exit 2 means patch-skipped samples: the run still went to the end
        self.completed = "end" in stamps and record["code"] in (0, 2)
        if record["code"] != 0:
            self.problems.append("hankelpde exited with %r" % (record["code"],))
        if self.skipped:
            self.problems.append("%d samples patch-skipped" % self.skipped)
        if self.completed:
            if bench.spec["command"] == "solve":
                result = gate.check_solve(bench.workload, bench.scenario, out_dir)
            else:
                result = gate.check_study(record["stdout"])
            self.problems += result.problems
            self.error_max = result.error_max
        self.ok = self.completed and not self.problems
        self.failed = 0 if self.ok else self.samples
        if self.completed:
            self.setup_s = stamps["parsed_cpu"]
            self.setup_wall_s = stamps["parsed"] - record["spawned"]
            self.import_s = stamps["imported"] - record["spawned"]
            self.run_s = stamps["end"] - stamps["parsed"]
            self.run_cpu_s = stamps["end_cpu"] - stamps["parsed_cpu"]
            self.peak_rss_mb = record["maxrss_kb"] / 1024.0


def error_digits(error):
    """-log10 of an error, held finite so the result stays valid JSON."""
    if not math.isfinite(error):
        return -300.0
    return -math.log10(min(max(error, 1e-300), 1e300))


def summary(values):
    """Median, sample count, the highest percentile with at least ten
    samples beyond it (None below 20 samples), and the values in order."""
    out = {"median": statistics.median(values), "n": len(values), "p": None,
           "p_value": None, "values": list(values)}
    values = sorted(values)
    n = len(values)
    if n >= 20:
        pct = math.floor(100.0 * (n - 10) / n)
        out["p"] = pct
        out["p_value"] = values[min(n - 1, math.ceil(pct / 100.0 * n) - 1)]
    return out


def environment(workload):
    import numpy
    blas = numpy.__config__.CONFIG.get("Build Dependencies", {}).get("blas", {})
    return {"nproc": os.cpu_count(), "machine": platform.machine(),
            "python": platform.python_version(), "numpy": numpy.__version__,
            "blas": "%s %s" % (blas.get("name"), blas.get("version")),
            "OPENBLAS_NUM_THREADS": "1",
            "threads": scengen.WORKLOADS[workload]["threads"]}


def main(argv=None):
    parser = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    parser.add_argument("--workload", required=True, choices=sorted(scengen.WORKLOADS))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    deadline = time.monotonic() + RUN_LIMIT_S

    if not os.path.isfile(os.path.join(SRC, "hankelpde", "cli.py")):
        print("error: no hankelpde sources under %s" % SRC, file=sys.stderr)
        return 2

    work = os.path.join(WORK, "%s-%d-%d" % (args.workload, args.seed, os.getpid()))
    os.makedirs(work)
    try:
        return measure(args, Bench(args.workload, args.seed, work, deadline))
    finally:
        shutil.rmtree(work, ignore_errors=True)


def measure(args, bench):
    setup_times, plain, traced = [], [], []
    if not args.trace:
        bench.setup_times(1, "warmup")
    start = time.monotonic()
    while True:
        t0 = time.monotonic()
        plain.append(bench.measured(len(plain)))
        if args.trace:
            traced.append(bench.measured(len(traced), traced=True))
        else:
            setup_times += bench.setup_times(SETUP_PER_PROCESS, len(plain))
        if time.monotonic() - start + (time.monotonic() - t0) > args.seconds:
            break

    everything = plain + traced
    done = [m for m in plain if m.completed]
    attempted = sum(m.samples for m in everything)
    failed = sum(m.failed for m in everything)
    detail = {"workload": args.workload, "seed": args.seed,
              "processes": len(plain), "traced_processes": len(traced),
              "failed_fraction": {"value": failed / attempted, "unit": "1"},
              "problems": sorted({p for m in everything for p in m.problems}),
              # wrapped attributes the program no longer has (a rename)
              "unwrapped": sorted({a for m in traced
                                   for a in m.record["stamps"].get("missing", [])}),
              "environment": environment(args.workload)}
    pairs_done = any(p.completed and t.completed for p, t in zip(plain, traced))
    if not done or (args.trace and not pairs_done):
        print(json.dumps(detail))
        print("error: no measured process ran to the end", file=sys.stderr)
        return 1

    samples = {
        "setup_s": [cpu for cpu, _ in setup_times] + [m.setup_s for m in done],
        "setup_wall_s": [w for _, w in setup_times] + [m.setup_wall_s for m in done],
        "run_s": [m.run_s for m in done],
        "run_cpu_s": [m.run_cpu_s for m in done],
        "samples_per_s": [(m.samples - m.skipped) / m.run_s for m in done],
        "peak_rss_mb": [m.peak_rss_mb for m in done],
        "error_max": [m.error_max for m in done],
        "error_digits": [error_digits(m.error_max) for m in done],
    }
    detail["end_to_end"] = {k: dict(summary(v), unit=DETAIL_UNITS[k])
                            for k, v in samples.items()}

    if args.trace:
        metrics = traced_metrics(plain, traced, bench.spec["threads"])
    else:
        metrics = {k: {"value": detail["end_to_end"][k]["median"],
                       "unit": END_TO_END_UNITS[k]} for k in END_TO_END_UNITS}
    print(json.dumps(detail))
    print(json.dumps({"correct": failed == 0, "attempted": attempted,
                      "failed": failed, "metrics": metrics}))
    return 0


def traced_metrics(plain, traced, threads):
    """Per-layer metrics: medians over the traced processes that ran to the end.

    The tracing overhead pairs each traced process with the untraced one
    run just before it and compares their CPU seconds, so drift in the
    host's speed between pairs cancels."""
    per_process = []
    for m in traced:
        if not m.completed:
            continue
        parsed = m.record["stamps"]["parsed"]
        run_spans = [s for s in m.spans if s.start >= parsed]
        vals = {k: v for k, (v, _) in spans.layer_metrics(m.spans, threads).items()}
        # self times partition the run; concurrent children count twice
        accounted = (sum(spans.self_times(run_spans).values())
                     - spans.overlap_excess(run_spans))
        vals["trace.accounted_frac"] = accounted / m.run_s
        vals["cli.import_s"] = m.import_s
        vals["cli.output_bytes"] = m.output_bytes
        per_process.append(vals)
    med = {k: statistics.median(v[k] for v in per_process) for k in per_process[0]}
    med["trace.overhead_frac"] = statistics.median(
        t.run_cpu_s / p.run_cpu_s - 1.0
        for p, t in zip(plain, traced) if p.completed and t.completed)
    units = per_layer_units()
    return {k: {"value": v, "unit": units[k]} for k, v in med.items()}


def per_layer_units():
    """Name -> unit of every metric a --trace 1 run prints."""
    units = {k: u for k, (_, u) in spans.layer_metrics([], 1).items()}
    units.update(TRACE_UNITS)
    return units


if __name__ == "__main__":
    sys.exit(main())
