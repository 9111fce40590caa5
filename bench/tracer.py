"""Outside-in span tracer for one `fracpn` command process.

The tracer wraps public entry points of the package from the benchmark's
launcher; the package itself is not modified.  Every wrapped call opens a
span with a name, a start, an end and a parent; all spans of one command
share the command's trace id.  Self time is span time minus the time its
child spans cover (calls are sequential within a process, so the covered
time is the sum of the children's durations).

Hot leaf spans (operator applications, potential evaluations) are too many
to keep one by one: they are aggregated into per-name totals and charged to
their parent, but not stored as records.  Counters (steps, CG iterations,
bytes written) are read off the wrapped calls' results.  The trace of one
command is written to files named after its trace id.

Pool workers are forked from the command process and never run `atexit`
handlers, so their spans are written out at the end of every job.
"""

from __future__ import annotations

import contextlib
import functools
import importlib
import itertools
import json
import math
import os
import sys
import time

_clock = time.perf_counter


class Tracer:
    def __init__(self, trace_id: str, out_dir: str):
        self.trace_id = trace_id
        self.out_dir = out_dir
        self.pid = os.getpid()
        self.worker = False
        self.base_parent = None
        self.job_seq = 0
        self._ids = itertools.count(1)
        self.stack = []  # open frames: [span_id, start, child_s, parent_id]
        self.records = []  # stored spans
        self.totals = {}  # name -> [calls, total_s, self_s]
        self.counters = {}  # name -> number

    # -- span bookkeeping -------------------------------------------------

    def _new_id(self) -> int:
        return self.pid * 1_000_000_000 + next(self._ids)

    def _close(self, name, frame, end, keep, attrs):
        dur = end - frame[1]
        self_s = dur - frame[2]
        stack = self.stack
        if stack:
            stack[-1][2] += dur
        tot = self.totals.get(name)
        if tot is None:
            self.totals[name] = [1, dur, self_s]
        else:
            tot[0] += 1
            tot[1] += dur
            tot[2] += self_s
        if keep:
            record = {"id": frame[0], "parent": frame[3], "name": name,
                      "start": frame[1], "end": end}
            if attrs:
                record["attrs"] = attrs
            self.records.append(record)

    def wrap(self, name, fn, hot=False, after=None):
        """Return `fn` wrapped in a span.  `after(tracer, args, kwargs,
        result)` may add counters and may return the span's attributes."""
        tracer = self

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            stack = tracer.stack
            parent = stack[-1][0] if stack else tracer.base_parent
            frame = [tracer._new_id(), _clock(), 0.0, parent]
            stack.append(frame)
            try:
                result = fn(*args, **kwargs)
            finally:
                end = _clock()
                stack.pop()
            attrs = after(tracer, args, kwargs, result) if after else None
            tracer._close(name, frame, end, not hot, attrs)
            return result

        return traced

    @contextlib.contextmanager
    def root(self, name):
        """The command's root span."""
        frame = [self._new_id(), _clock(), 0.0, None]
        self.stack.append(frame)
        try:
            yield
        finally:
            end = _clock()
            self.stack.pop()
            self._close(name, frame, end, True, None)

    def add(self, name, value):
        self.counters[name] = self.counters.get(name, 0) + value

    def minimum(self, name, value):
        old = self.counters.get(name)
        self.counters[name] = value if old is None else min(old, value)

    # -- worker processes -------------------------------------------------

    def enter_job(self) -> bool:
        """Called at the start of every pool job.  Returns False when the job
        runs in the command process itself (a serial table).  In a freshly
        forked worker, the state inherited from the parent is dropped and the
        parent's open span (the table) becomes the parent of the worker's
        job spans."""
        pid = os.getpid()
        if pid == self.pid and not self.worker:
            return False
        if pid != self.pid:
            self.base_parent = self.stack[-1][0] if self.stack else None
            self.pid = pid
            self.worker = True
            self._ids = itertools.count(1)
            self.job_seq = 0
        self.stack = []
        self.records = []
        self.totals = {}
        self.counters = {}
        return True

    def flush_job(self):
        self.job_seq += 1
        path = os.path.join(
            self.out_dir, f"{self.trace_id}-w{self.pid}-{self.job_seq}.json"
        )
        self._write(path)

    def dump(self):
        self._write(os.path.join(self.out_dir, f"{self.trace_id}-main.json"))

    def _write(self, path):
        payload = {
            "records": self.records,
            "totals": self.totals,
            "counters": self.counters,
        }
        tmp = path + ".tmp"
        with open(tmp, "w", encoding="utf-8") as f:
            json.dump(payload, f)
        os.replace(tmp, path)


# ---------------------------------------------------------------------------
# what to wrap
# ---------------------------------------------------------------------------


def _layer_after(tr, args, kwargs, sol):
    tr.add("layer.solve.steps", sol.steps)
    tr.minimum("layer.solve.dt", sol.dt)


def _corrector_after(tr, args, kwargs, psi):
    tr.add("layer.corrector.cg_iters", int(psi.cg_info.get("iterations", 0)))


def _evolve_after(tr, args, kwargs, trace):
    tr.add("cell.evolve.steps", int(trace.times.size - 1))


def _eps_after(tr, args, kwargs, traj):
    spec = args[0] if args else kwargs["spec"]
    tr.add("homog.eps.steps", int(math.ceil(spec.horizon / traj.dt)))


def _table_after(tr, args, kwargs, rows):
    # the pool metrics weigh a table's wall time by its worker count
    return {"workers": int(kwargs.get("workers", args[5] if len(args) > 5 else 1))}


def _write_after(tr, args, kwargs, _):
    path = args[0] if args else kwargs["path"]
    tr.add("runio.write.bytes", os.path.getsize(path))


# (span name, module, attribute, hot, after); methods are given as
# "Class.method".  A module-level function is re-bound in every fracpn
# module that imported it by name.
SPANS = (
    ("fracop.line_apply", "fracpn.fracop", "LinePlan.apply", True, None),
    ("fracop.periodic_apply", "fracpn.fracop", "PeriodicPlan.apply", True, None),
    ("fracop.plan_build", "fracpn.fracop", "LinePlan.__init__", False, None),
    ("fracop.plan_build", "fracpn.fracop", "PeriodicPlan.__init__", False, None),
    ("potential.eval", "fracpn.potential", "eval_potential", True, None),
    ("layer.solve", "fracpn.layer", "solve_layer", False, _layer_after),
    ("layer.corrector", "fracpn.layer", "solve_corrector_psi", False, _corrector_after),
    ("cell.table", "fracpn.cell", "hbar_table", False, _table_after),
    ("cell.evolve", "fracpn.cell", "solve_cell_evolution", False, _evolve_after),
    ("cell.fit", "fracpn.cell", "estimate_lambda", False, None),
    ("homog.eps", "fracpn.homog", "solve_eps_problem", False, _eps_after),
    ("homog.effective", "fracpn.homog", "solve_effective", False, None),
    ("hull.build_ansatz", "fracpn.hull", "build_ansatz", False, None),
    ("hull.nl_residual", "fracpn.hull", "nl_residual", False, None),
    ("hull.orowan", "fracpn.hull", "orowan_check", False, None),
    ("runio.config", "fracpn.runio", "parse_config", False, None),
    ("runio.write", "fracpn.runio", "write_json_result", False, _write_after),
    ("runio.write", "fracpn.runio", "write_csv", False, _write_after),
    ("runio.read", "fracpn.runio", "read_json_result", False, None),
    ("runio.read", "fracpn.runio", "read_csv", False, None),
)


def _rebind(original, replacement):
    """Replace every fracpn module attribute bound to `original`."""
    count = 0
    for mod_name, mod in list(sys.modules.items()):
        if mod is None or not (mod_name == "fracpn" or mod_name.startswith("fracpn.")):
            continue
        for attr, value in list(vars(mod).items()):
            if value is original:
                setattr(mod, attr, replacement)
                count += 1
    return count


def install(tracer: Tracer) -> None:
    """Wrap every entry point in SPANS, plus the pool job function."""
    for name, mod_name, attr, hot, after in SPANS:
        mod = importlib.import_module(mod_name)
        if "." in attr:
            cls_name, meth = attr.split(".")
            cls = getattr(mod, cls_name)
            setattr(cls, meth, tracer.wrap(name, getattr(cls, meth), hot, after))
        else:
            original = getattr(mod, attr)
            if _rebind(original, tracer.wrap(name, original, hot, after)) == 0:
                raise RuntimeError(f"no binding of {mod_name}.{attr} found")

    cell = importlib.import_module("fracpn.cell")
    job = tracer.wrap("cell.job", cell._table_worker)

    @functools.wraps(cell._table_worker)
    def table_worker(args):
        in_worker = tracer.enter_job()
        try:
            return job(args)
        finally:
            if in_worker:
                tracer.flush_job()

    # module global, so ex.map pickles it by name and workers resolve it
    cell._table_worker = table_worker
