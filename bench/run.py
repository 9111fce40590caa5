"""fracpn benchmark: chains of `fracpn` commands, measured from outside.

    python3 bench/run.py --workload standing|cell-grid|strong-branch \
        --seed N --seconds S --trace 0|1

Run from the root of a source checkout.  Each command of a workload's chain
is its own process, started through bench/launch.py with the checkout's
`src` on PYTHONPATH, BLAS/OpenMP threads capped at 1 and `--workers 2` for
tables.  A run repeats the chain until the next repetition would pass S
seconds (at least once), checks every output, hashes every result file and
prints the metrics; the last line of standard output is one JSON object.

--trace 0 reports the end-to-end metrics (medians over the repetitions),
with wall and set-up times scaled to the machine's reference speed (see
REF_NOMINAL_S).  A reference launch precedes every command, and REF_EDGE
more precede the first and follow the last, each followed by a set-up
probe while the run holds fewer than MIN_SETUPS set-up samples (see
launch.py).
--trace 1 alternates untraced and traced repetitions and reports per-layer
metrics from the spans the launcher records (see tracer.py), including the
spans of pool workers, and the tracing overhead.

Exit codes: 0 when every command succeeded and every check passed, 1 when
a command, a check or a result-file hash failed (the JSON line is still
printed), 2 on a usage error or a directory without the fracpn sources.
"""

from __future__ import annotations

import argparse
import compileall
import hashlib
import importlib.metadata
import json
import math
import os
import platform
import shutil
import signal
import statistics
import subprocess
import sys
import threading
import time
from dataclasses import dataclass

HERE = os.path.dirname(os.path.abspath(__file__))
sys.path.insert(0, HERE)

import workloads  # noqa: E402

FRAC_FLOOR = 1e-6  # check ratios below this are at roundoff
# The machine the benchmark was defined on drifts in speed by up to 50% over
# tens of minutes, and by 15% over seconds.  A reference launch imports only
# numpy and scipy (launch.REFERENCE_IMPORTS), no fracpn code, and its time
# from spawn to that point drifts with the machine.  Reference launches are
# interleaved with the commands, so they sample the machine's speed across
# the run, and wall and set-up times are scaled by
# REF_NOMINAL_S / min(reference time) to read as seconds at that machine's
# typical speed.  Interference only ever slows a launch down, so the
# fastest launch of a run tracks the machine's speed more steadily than the
# median does.
REF_NOMINAL_S = 0.45
REF_EDGE = 2  # extra reference launches before the first and after the last command
MIN_SETUPS = 5  # set-up samples per run, set-up probes included
DEADLINE_S = 170.0  # a run ends well within the 180 s a run may take
WORK_DIR = ".bench_work"
COMMANDS = ("layer", "corrector", "ansatz-residual", "orowan", "hbar-table", "homogenize")
THREAD_CAPS = ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS",
               "NUMEXPR_NUM_THREADS", "VECLIB_MAXIMUM_THREADS")


@dataclass
class Command:
    """One finished `fracpn` process."""

    step: workloads.Step
    code: int
    wall: float
    setup: float  # spawn to `fracpn` imported; nan if it never got there
    rss_mb: float
    digest: str | None  # sha256 of the result file


class Runner:
    def __init__(self, root, workload, work, deadline, sample_speed):
        self.root = root
        self.workload = workload
        self.work = work
        self.deadline = deadline
        self.src = os.path.join(root, "src")
        self.env = dict(os.environ, PYTHONPATH=self.src, PYTHONHASHSEED="0")
        self.env.update({k: "1" for k in THREAD_CAPS})
        self.cfg_dir = os.path.join(work, "cfg")
        os.makedirs(self.cfg_dir)
        self.cfg_text = {}
        for step in workload.steps:
            text = json.dumps(step.config, indent=2) + "\n"
            self.cfg_text[step.name] = text
            with open(os.path.join(self.cfg_dir, step.name + ".json"), "w",
                      encoding="utf-8") as f:
                f.write(text)
        self.reps = 0
        self.ref_times = []
        self.setup_times = []  # commands of untraced chains and set-up probes
        self.probes = 0
        self.sample_speed = sample_speed  # reference launches and set-up probes

    def _spawn(self, side, args, log_path):
        argv = [sys.executable, os.path.join(HERE, "launch.py"), side, *args]
        with open(log_path, "wb") as log:
            t0 = time.perf_counter()
            proc = subprocess.Popen(argv, cwd=self.root, env=self.env, stdout=log,
                                    stderr=subprocess.STDOUT, start_new_session=True)
        return proc, t0

    def _setup_time(self, side, t0):
        """Spawn to `fracpn` imported, from a launcher's sidecar; nan if the
        process never got there."""
        if not os.path.exists(side):
            return math.nan
        with open(side, encoding="utf-8") as f:
            info = json.load(f)
        if not os.path.abspath(info["fracpn"]).startswith(self.src + os.sep):
            raise SystemExit(f"error: fracpn was imported from {info['fracpn']}, "
                             f"not from {self.src}")
        return info["ready"] - t0

    def sample_reference(self):
        side = os.path.join(self.work, f"ref{len(self.ref_times)}.json")
        proc, t0 = self._spawn(side, ["--reference"], side + ".log")
        if proc.wait() != 0 or not os.path.exists(side):
            raise SystemExit("error: the reference process failed (numpy/scipy missing?)")
        with open(side, encoding="utf-8") as f:
            self.ref_times.append(json.load(f)["reference"] - t0)

    def sample_edge(self):
        for _ in range(REF_EDGE):
            self.sample_reference()
            if len(self.setup_times) < MIN_SETUPS:
                self.sample_setup()

    def sample_setup(self):
        self.probes += 1
        side = os.path.join(self.work, f"probe{self.probes}.json")
        proc, t0 = self._spawn(side, ["--setup"], side + ".log")
        code = proc.wait()
        setup = self._setup_time(side, t0)
        if code != 0 or math.isnan(setup):
            raise SystemExit("error: the set-up probe failed to import fracpn")
        self.setup_times.append(setup)

    def run_command(self, step, out_dir, side, trace):
        remaining = self.deadline - time.monotonic()
        if remaining <= 0:
            return Command(step, -1, 0.0, math.nan, 0.0, None)
        args = ["--trace", *trace] if trace is not None else []
        args += ["--", step.command, "--config",
                 os.path.join(self.cfg_dir, step.name + ".json"), "--out", out_dir]
        if step.workers is not None:
            args += ["--workers", str(step.workers)]
        proc, t0 = self._spawn(side, args, os.path.join(out_dir, step.name + ".log"))
        # kill the whole process group (pool workers too) at the deadline
        timer = threading.Timer(remaining, os.killpg, (proc.pid, signal.SIGKILL))
        timer.start()
        try:
            _, status, usage = os.wait4(proc.pid, 0)
        finally:
            timer.cancel()
        wall = time.perf_counter() - t0
        proc.returncode = os.waitstatus_to_exitcode(status)
        # ru_maxrss of a reaped child covers its reaped descendants (pool workers)
        rss_mb = usage.ru_maxrss / 1024.0
        setup = self._setup_time(side, t0)
        if trace is None and not math.isnan(setup):
            self.setup_times.append(setup)
        digest = None
        out = os.path.join(out_dir, step.output)
        if proc.returncode == 0 and os.path.exists(out):
            with open(out, "rb") as f:
                digest = hashlib.sha256(f.read()).hexdigest()
        return Command(step, proc.returncode, wall, setup, rss_mb, digest)

    def run_chain(self, traced):
        """Run the chain once into a fresh output directory."""
        self.reps += 1
        tag = f"rep{self.reps}"
        out_dir = os.path.join(self.work, tag)
        os.makedirs(out_dir)
        trace_dir = None
        if traced:
            trace_dir = os.path.join(self.work, tag + "-trace")
            os.makedirs(trace_dir)
        cmds = []
        for i, step in enumerate(self.workload.steps):
            if self.sample_speed:
                self.sample_reference()
            side = os.path.join(out_dir, step.name + ".ready.json")
            trace = (trace_dir, f"{i:02d}-{step.name}") if traced else None
            cmds.append(self.run_command(step, out_dir, side, trace))
        return Chain(tag, out_dir, cmds, trace_dir)


class Chain:
    def __init__(self, tag, out_dir, cmds, trace_dir):
        self.tag = tag
        self.out_dir = out_dir
        self.cmds = cmds
        self.trace_dir = trace_dir
        self.wall = sum(c.wall for c in cmds)
        self.failed = {c.step.name for c in cmds if c.code != 0}
        self.evaluation = None


# ---------------------------------------------------------------------------
# correctness: output checks and result-file identity
# ---------------------------------------------------------------------------


def evaluate(workload, chain, log):
    names = [s.name for s in workload.steps]
    try:
        ev = workload.evaluate(chain.out_dir)
    except (OSError, KeyError, ValueError, IndexError, ZeroDivisionError) as exc:
        log(f"  {chain.tag}: outputs could not be evaluated: {exc!r}")
        chain.failed.update(names)
        return
    for step, name, ok, detail in ev.checks:
        if not ok:
            chain.failed.add(step)
            log(f"  {chain.tag}: check {name} FAILED ({step}): {detail}")
    chain.evaluation = ev


def source_digest(src):
    """sha256 over the paths and bytes of every source file under `src`."""
    h = hashlib.sha256()
    for dirpath, dirnames, filenames in os.walk(src):
        dirnames[:] = sorted(d for d in dirnames if d != "__pycache__")
        for name in sorted(filenames):
            path = os.path.join(dirpath, name)
            h.update(os.path.relpath(path, src).encode() + b"\0")
            with open(path, "rb") as f:
                h.update(hashlib.sha256(f.read()).digest())
    return h.hexdigest()


class HashRegistry:
    """First digest of each result file per (source tree, command, config
    text), kept in the checkout across runs; a different digest later from
    the same code and config is a failed command."""

    def __init__(self, path, src_digest):
        self.path = path
        self.src_digest = src_digest
        self.known = {}
        if os.path.exists(path):
            with open(path, encoding="utf-8") as f:
                self.known = json.load(f)

    def check(self, chain, cfg_text, log):
        for c in chain.cmds:
            if c.digest is None:
                continue
            key = hashlib.sha256("\0".join(
                (self.src_digest, c.step.command, cfg_text[c.step.name])).encode()).hexdigest()
            first = self.known.setdefault(key, c.digest)
            if first != c.digest:
                chain.failed.add(c.step.name)
                log(f"  {chain.tag}: {c.step.output} differs from the first run "
                    f"of its config ({c.digest[:12]} != {first[:12]})")

    def save(self):
        tmp = self.path + f".{os.getpid()}.tmp"
        with open(tmp, "w", encoding="utf-8") as f:
            json.dump(self.known, f, indent=0, sort_keys=True)
        os.replace(tmp, self.path)


# ---------------------------------------------------------------------------
# per-layer metrics from the traces of one chain
# ---------------------------------------------------------------------------


def _load_traces(trace_dir):
    out = []
    for name in sorted(os.listdir(trace_dir)):
        if name.endswith(".json"):
            with open(os.path.join(trace_dir, name), encoding="utf-8") as f:
                out.append(json.load(f))
    return out


def layer_metrics(chain, untraced_wall):
    """(counts, times): deterministic counts and measured times."""
    traces = _load_traces(chain.trace_dir)
    totals, counters, records = {}, {}, []
    for t in traces:
        for name, (calls, total, self_s) in t["totals"].items():
            acc = totals.setdefault(name, [0, 0.0, 0.0])
            acc[0] += calls
            acc[1] += total
            acc[2] += self_s
        for name, v in t["counters"].items():
            if name == "layer.solve.dt":
                counters[name] = min(counters.get(name, v), v)
            else:
                counters[name] = counters.get(name, 0) + v
        records += t["records"]

    def calls(name):
        return totals.get(name, [0, 0.0, 0.0])[0]

    def self_s(name):
        return totals.get(name, [0, 0.0, 0.0])[2]

    counts = {
        "fracop.line_apply.calls": calls("fracop.line_apply"),
        "fracop.periodic_apply.calls": calls("fracop.periodic_apply"),
        "fracop.plan_build.calls": calls("fracop.plan_build"),
        "potential.eval.calls": calls("potential.eval"),
        "layer.solve.steps": counters.get("layer.solve.steps", 0),
        "layer.corrector.cg_iters": counters.get("layer.corrector.cg_iters", 0),
        "cell.evolve.calls": calls("cell.evolve"),
        "cell.evolve.steps": counters.get("cell.evolve.steps", 0),
        "homog.eps.steps": counters.get("homog.eps.steps", 0),
        "runio.write.bytes": counters.get("runio.write.bytes", 0),
    }
    times = {
        "layer.solve.dt": counters.get("layer.solve.dt", 0.0),
    }
    for layer in ("fracop.line_apply", "fracop.periodic_apply"):
        n = calls(layer)
        times[layer + ".self_s"] = self_s(layer)
        times[layer + ".us_per_call"] = 1e6 * self_s(layer) / n if n else 0.0
    for layer in ("fracop.plan_build", "potential.eval", "layer.solve",
                  "layer.corrector", "cell.evolve", "cell.fit", "homog.eps",
                  "homog.effective", "hull.build_ansatz", "hull.nl_residual",
                  "hull.orowan", "runio.config", "runio.write", "runio.read"):
        times[layer + ".self_s"] = self_s(layer)
    steps = counts["cell.evolve.steps"]
    evolve_total = totals.get("cell.evolve", [0, 0.0, 0.0])[1]
    times["cell.evolve.us_per_step"] = 1e6 * evolve_total / steps if steps else 0.0

    # pool: worker job spans against the wall time of the table that ran them
    tables = {r["id"]: r for r in records
              if r["name"] == "cell.table" and r["attrs"].get("workers", 1) > 1}
    capacity = sum((r["attrs"]["workers"] * (r["end"] - r["start"]) for r in tables.values()),
                   0.0)
    busy = sum((r["end"] - r["start"] for r in records
                if r["name"] == "cell.job" and r["parent"] in tables), 0.0)
    times["cell.pool.busy_frac"] = busy / capacity if capacity else 0.0
    times["cell.pool.wait_s"] = capacity - busy

    for cmd in COMMANDS:
        times[f"cli.{cmd}.wall_s"] = sum((r["end"] - r["start"] for r in records
                                          if r["name"] == f"cli.{cmd}"), 0.0)
    times["trace.overhead_frac"] = chain.wall / untraced_wall - 1.0
    return counts, times


UNITS = {"calls": "count", "steps": "count", "cg_iters": "count", "bytes": "bytes",
         "self_s": "s", "wall_s": "s", "wait_s": "s", "us_per_call": "us",
         "us_per_step": "us", "dt": "model-time", "busy_frac": "ratio",
         "overhead_frac": "ratio"}


def unit_of(name):
    return UNITS[name.rsplit(".", 1)[1]]


# ---------------------------------------------------------------------------
# main
# ---------------------------------------------------------------------------


def environment():
    def version(pkg):
        try:
            return importlib.metadata.version(pkg)
        except importlib.metadata.PackageNotFoundError:
            return "missing"

    return {
        "nproc": os.cpu_count(),
        "machine": platform.machine(),
        "python": platform.python_version(),
        "numpy": version("numpy"),
        "scipy": version("scipy"),
        "threads_per_process": 1,
        "table_workers": 2,
    }


def parse_args(argv):
    p = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    p.add_argument("--workload", required=True, choices=sorted(workloads.WORKLOADS))
    p.add_argument("--seed", type=int, default=0)
    p.add_argument("--seconds", type=float, default=10.0)
    p.add_argument("--trace", type=int, choices=(0, 1), default=0)
    return p.parse_args(argv)


def main(argv=None):
    args = parse_args(argv)
    started = time.monotonic()
    root = os.getcwd()
    if not os.path.isfile(os.path.join(root, "src", "fracpn", "cli.py")):
        print(f"error: {root} holds no fracpn sources (src/fracpn); run the "
              f"benchmark from the root of a source checkout", file=sys.stderr)
        return 2

    def log(msg):
        print(msg, flush=True)

    # byte-compile once, so no measured command pays for it
    compileall.compile_dir(os.path.join(root, "src"), quiet=1)

    wl = workloads.build(args.workload, args.seed)
    os.makedirs(os.path.join(root, WORK_DIR), exist_ok=True)
    work = os.path.join(root, WORK_DIR, f"{args.workload}-seed{args.seed}-{os.getpid()}")
    runner = Runner(root, wl, work, started + DEADLINE_S, sample_speed=not args.trace)
    registry = HashRegistry(os.path.join(root, WORK_DIR, "result-hashes.json"),
                            source_digest(os.path.join(root, "src")))
    log(f"environment: {json.dumps(environment(), sort_keys=True)}")
    log(f"workload {wl.name}, seed {args.seed}: "
        + " -> ".join(s.name for s in wl.steps))

    untraced, traced = [], []
    try:
        if runner.sample_speed:
            runner.sample_edge()
        t_measure = time.monotonic()
        while True:
            pair_start = time.monotonic()
            untraced.append(runner.run_chain(traced=False))
            if args.trace:
                traced.append(runner.run_chain(traced=True))
            last = time.monotonic() - pair_start
            if time.monotonic() - t_measure + last > args.seconds:
                break
        if runner.sample_speed:
            runner.sample_edge()
        chains = untraced + traced
        for ch in chains:
            for c in ch.cmds:
                log(f"  {ch.tag}{'*' if ch.trace_dir else ''} {c.step.name:<18} "
                    f"exit {c.code}  wall {c.wall:8.3f} s  setup {c.setup:.3f} s  "
                    f"rss {c.rss_mb:7.1f} MB")
            evaluate(wl, ch, log)
            registry.check(ch, runner.cfg_text, log)
        registry.save()
        scale = None
        if runner.ref_times:
            ref = min(runner.ref_times)
            scale = REF_NOMINAL_S / ref
            log(f"reference: min {ref:.4f} s over {len(runner.ref_times)} samples "
                f"{[round(t, 4) for t in runner.ref_times]}; wall and set-up times "
                f"are scaled by {scale:.4f}")
        result = report(args, wl, untraced, traced, runner.setup_times, scale, log)
    finally:
        shutil.rmtree(work, ignore_errors=True)
    print(json.dumps(result))
    return 0 if result["correct"] else 1


def report(args, wl, untraced, traced, setup_times, scale, log):
    chains = untraced + traced
    attempted = sum(len(ch.cmds) for ch in chains)
    failed = sum(len(ch.failed) for ch in chains)
    correct = failed == 0
    ev = untraced[0].evaluation
    if ev is not None:
        for step, name, ok, detail in ev.checks:
            log(f"check {name:<26} {'ok ' if ok else 'FAIL'} {detail}")
        for name, (value, unit) in ev.values.items():
            log(f"result {name} = {value:.6g} {unit}")

    metrics = {}
    if args.trace:
        per_rep = [layer_metrics(t, u.wall) for u, t in zip(untraced, traced)]
        counts = per_rep[0][0]
        if any(c != counts for c, _ in per_rep):
            log("error: traced repetitions disagree on counts")
            correct = False
        if counts["cell.evolve.calls"] != wl.evolve_calls:
            log(f"error: cell.evolve.calls = {counts['cell.evolve.calls']}, "
                f"expected {wl.evolve_calls}")
            correct = False
        for name, value in counts.items():
            metrics[name] = {"value": value, "unit": unit_of(name)}
        for name in per_rep[0][1]:
            value = statistics.median(t[name] for _, t in per_rep)
            metrics[name] = {"value": value, "unit": unit_of(name)}
    else:
        wall = statistics.median(ch.wall for ch in untraced)
        # every command runs the same set-up code (fracpn is imported before
        # the command is parsed), so the chain's set-up is estimated as its
        # length times the median over all set-ups of the run
        setup = statistics.median(setup_times) * len(wl.steps)
        log(f"unscaled: wall {wall!r} s, setup {setup!r} s "
            f"({len(setup_times)} set-up samples)")
        metrics["wall_s"] = {"value": wall * scale, "unit": "s"}
        metrics["setup_s"] = {"value": setup * scale, "unit": "s"}
        metrics["peak_rss_mb"] = {
            "value": statistics.median(max(c.rss_mb for c in ch.cmds) for ch in untraced),
            "unit": "MB"}
        fracs = list(ev.fracs.values()) if ev is not None else []
        metrics["check_frac_max"] = {"value": max(fracs) if fracs else None,
                                     "unit": "ratio"}
        # a check within FRAC_FLOOR of its tolerance is at roundoff: clamped,
        # so roundoff-level changes (and exact zeros) do not move the mean
        logs = [math.log(max(f, FRAC_FLOOR)) for f in fracs]
        metrics["check_frac_gmean"] = {
            "value": math.exp(statistics.fmean(logs)) if logs else None,
            "unit": "ratio"}
        if None in (m["value"] for m in metrics.values()):
            correct = False
    for name, m in metrics.items():
        log(f"metric {name} = {m['value']} {m['unit']}")
    log(f"{attempted} commands attempted, {failed} failed, "
        f"{len(untraced)} untraced and {len(traced)} traced repetitions")
    return {"correct": correct, "attempted": attempted, "failed": failed,
            "metrics": metrics}


if __name__ == "__main__":
    sys.exit(main())
