"""The benchmark's three workloads: generated configs, chains, output checks.

A workload is a chain of `fracpn` commands.  Each step names its config and
its one result file; the configs are generated here from the seed, and
`fracpn` only ever receives these generated files.  Seed 0 writes exactly
the README configs and the acceptance-test fixtures; other seeds change
only what the checks do not depend on: the order of independent steps and
the listing order of table axes (tables are sorted on output).

Every output check mirrors an acceptance tolerance.  A tolerance check
reports `observed / tolerance`, which must be at most 1.
"""

from __future__ import annotations

import csv
import io
import json
import math
import os
import random
from dataclasses import dataclass, field

A1 = 0.025330295910584444  # 1 / (4 pi^2): the curvature-one standard well
POTENTIAL = {"cosine": [A1]}
FIT_TOL = 1e-3  # the CLI's default fit tolerance for speed tables

_OUT_NAMES = {
    "layer": "{p}-layer.json",
    "corrector": "{p}-corrector.json",
    "hbar-table": "{p}-hbar-table.csv",
    "homogenize": "{p}-homog.json",
    "ansatz-residual": "{p}-ansatz.json",
    "orowan": "{p}-orowan.csv",
}


@dataclass
class Step:
    name: str  # config file stem, unique in the chain
    config: dict
    workers: int | None = None

    @property
    def command(self) -> str:
        return self.config["command"]

    @property
    def output(self) -> str:
        return _OUT_NAMES[self.command].format(p=self.config["output"]["prefix"])


@dataclass
class Evaluation:
    checks: list = field(default_factory=list)  # (step name, check name, ok, detail)
    fracs: dict = field(default_factory=dict)  # check name -> observed / tolerance
    values: dict = field(default_factory=dict)  # name -> (value, unit)

    def check(self, step, name, ok, detail):
        self.checks.append((step, name, bool(ok), detail))

    def tolerance(self, step, name, observed, tol):
        frac = observed / tol
        self.fracs[name] = frac
        self.check(step, name, frac <= 1.0, f"{observed:.4g} (tolerance {tol:.4g})")


@dataclass
class Workload:
    name: str
    steps: list
    evaluate: object  # callable(out_dir) -> Evaluation
    evolve_calls: int  # cell evolutions per chain, checked in traced runs


def _cfg(command, s, numeric, prefix, inputs=None):
    cfg = {"command": command, "operator": {"s": s}, "potential": POTENTIAL,
           "numeric": numeric}
    if inputs:
        cfg["inputs"] = inputs
    cfg["output"] = {"prefix": prefix}
    return cfg


# ---------------------------------------------------------------------------
# standing: layers, correctors, hull residuals, Orowan sweep
# ---------------------------------------------------------------------------

FIXTURES = (("s075", 0.75), ("s03", 0.3))
HULL_DELTAS = (("d02", 0.2), ("d005", 0.05))


def _standing_steps(rng):
    """Three independent branches, each a head (layer, corrector) and tail
    groups that only read the head's artifacts."""
    lay = {"layer": "half-layer.json"}
    both = {"layer": "half-layer.json", "corrector": "half-corrector.json"}
    branches = [(
        [Step("layer-half", _cfg("layer", 0.5, {"n": 2048, "half_width": 20.0}, "half")),
         Step("corrector-half", _cfg("corrector", 0.5, {"L0": 1.0}, "half", lay))],
        [[Step("ansatz-half", _cfg("ansatz-residual", 0.5,
                                   {"delta": 0.1, "p0": 1.0, "L0": 1.0}, "half", both))],
         [Step("orowan-half", _cfg("orowan", 0.5, {
             "delta_list": [0.2, 0.1, 0.05], "p0": 1.0, "L0": 1.0, "n": 512,
             "horizon": 200.0}, "half", lay))]],
    )]
    for tag, s in FIXTURES:
        inputs = {"layer": f"{tag}-layer.json", "corrector": f"{tag}-corrector.json"}
        head = [
            Step(f"layer-{tag}", _cfg("layer", s, {"n": 4096, "half_width": 40.0}, tag)),
            Step(f"corrector-{tag}", _cfg(
                "corrector", s, {"L0": 1.0}, tag, {"layer": f"{tag}-layer.json"})),
        ]
        tail = [[Step(f"ansatz-{tag}-{dtag}", _cfg(
            "ansatz-residual", s,
            {"delta": d, "p0": 1.0, "L0": 1.0, "n_terms": 64, "n_grid": 1024,
             "cauchy_tol": 1e-6},
            f"{tag}-{dtag}", inputs))] for dtag, d in HULL_DELTAS]
        branches.append((head, tail))
    if rng is not None:
        rng.shuffle(branches)
        for _, tail in branches:
            rng.shuffle(tail)
    return [step for head, tail in branches for step in head + sum(tail, [])]


def _read_json(out_dir, name):
    with open(os.path.join(out_dir, name), encoding="utf-8") as f:
        return json.load(f)["result"]


def _read_csv(out_dir, name):
    """Rows of a fracpn CSV table (after its '# key: value' lines), and meta."""
    meta, body = {}, []
    with open(os.path.join(out_dir, name), encoding="utf-8") as f:
        for line in f:
            if line.startswith("#"):
                k, _, v = line[1:].partition(":")
                meta[k.strip()] = json.loads(v)
            else:
                body.append(line)
    rows = []
    for r in csv.DictReader(io.StringIO("".join(body))):
        rows.append({k: (v == "true") if v in ("true", "false") else float(v)
                     for k, v in r.items()})
    return meta, rows


def _evaluate_standing(out_dir):
    ev = Evaluation()

    half = _read_json(out_dir, "half-layer.json")
    c0_rel = abs(half["c0"] - 2.0 * math.pi) / (2.0 * math.pi)
    ev.tolerance("layer-half", "c0_vs_2pi", c0_rel, 0.01)
    n = len(half["values"])
    h = 2.0 * half["half_width"] / n
    prof = max(abs(v - (0.5 + math.atan(h * (i - n // 2)) / math.pi))
               for i, v in enumerate(half["values"]))
    ev.tolerance("layer-half", "arctan_profile", prof, 1e-3)

    meta, rows = _read_csv(out_dir, "half-orowan.csv")
    errs = [r["abs_err"] for r in rows]
    ev.check("orowan-half", "orowan_nonincreasing",
             all(b <= a for a, b in zip(errs, errs[1:])), f"abs errors {errs}")
    orowan_rel = errs[-1] / meta["target"]
    ev.tolerance("orowan-half", "orowan_final", orowan_rel, 0.15)

    # layer and corrector residuals: the unit tests' bounds on the same fixtures
    residuals = {}
    for tag in ("half",) + tuple(t for t, _ in FIXTURES):
        lay = _read_json(out_dir, f"{tag}-layer.json")
        ev.tolerance(f"layer-{tag}", f"layer_residual_{tag}", lay["residual_sup_inner"], 1e-5)
        residuals[tag] = _read_json(out_dir, f"{tag}-corrector.json")["residual_sup_inner"]
    ev.tolerance("corrector-s03", "corrector_residual_s03", residuals["s03"], 1e-3)

    ratios = []
    for tag, s in FIXTURES:
        over = {}
        for dtag, d in HULL_DELTAS:
            r = _read_json(out_dir, f"{tag}-{dtag}-ansatz.json")
            kind = "cutoff" if s < 0.5 else "series"
            ev.check(f"ansatz-{tag}-{dtag}", f"hull_branch_{tag}_{dtag}",
                     (r["cutoff_R"] is not None) == (kind == "cutoff"),
                     f"cutoff_R = {r['cutoff_R']} ({kind} branch expected)")
            over[d] = r["over_d2s"]
        ratio = over[0.2] / over[0.05]
        ratios.append(ratio)
        ev.tolerance(f"ansatz-{tag}-d005", f"hull_decay_{tag}", 2.0 / ratio, 1.0)

    ev.values = {
        "c0_rel_err": (c0_rel, "ratio"),
        "orowan_rel_err": (orowan_rel, "ratio"),
        "corrector_residual": (max(residuals.values()), "abs"),
        "hull_decay_ratio": (min(ratios), "ratio"),
    }
    return ev


# ---------------------------------------------------------------------------
# speed tables (cell-grid, strong-branch) and homogenization
# ---------------------------------------------------------------------------


def _envelope(potential):
    """sup |W'| of a cosine series sum a_k (1 - cos 2 pi k u) (exact for one
    term, an upper bound otherwise); no forcing in these workloads."""
    return sum(abs(a) * 2.0 * math.pi * k for k, a in enumerate(potential["cosine"], 1))


def _check_table(ev, step, rows, env):
    bad = [(r["slope_num"], r["drive"]) for r in rows if not r["converged"]]
    ev.check(step, "table_converged", not bad, f"unconverged rows {bad}")
    unc = max(r["uncertainty"] for r in rows)
    ev.tolerance(step, "fit_uncertainty", unc, FIT_TOL)
    ev.tolerance(step, "speed_envelope",
                 max(abs(r["speed"] - r["drive"]) for r in rows), env + 1e-9)

    by_slope = {}
    for r in rows:
        by_slope.setdefault(r["slope_num"] / r["slope_den"], {})[r["drive"]] = r["speed"]
    monotone = True
    antisym = 0.0
    for speeds in by_slope.values():
        drives = sorted(speeds)
        monotone &= all(speeds[a] <= speeds[b] for a, b in zip(drives, drives[1:]))
        for F, v in speeds.items():
            if F == 0.0:
                antisym = max(antisym, abs(v))
            elif -F in speeds:
                antisym = max(antisym, abs(v + speeds[-F]))
    ev.check(step, "speeds_monotone_in_drive", monotone, "per slope")
    ev.tolerance(step, "speed_antisymmetry", antisym, 2e-3)
    return unc


GRID_SLOPES = [0.5, 1.0, 2.0]
GRID_DRIVES = [-1.0, 0.0, 1.0]


def _cell_grid_steps(rng):
    slopes, drives = list(GRID_SLOPES), list(GRID_DRIVES)
    if rng is not None:
        rng.shuffle(slopes)
        rng.shuffle(drives)
    numeric = {"slopes": slopes, "drives": drives, "n": 512, "horizon": 200.0,
               "workers": 2}
    return [Step("hbar-grid", _cfg("hbar-table", 0.5, numeric, "grid"), workers=2)]


def _evaluate_cell_grid(out_dir):
    ev = Evaluation()
    _, rows = _read_csv(out_dir, "grid-hbar-table.csv")
    ev.check("hbar-grid", "table_rows", len(rows) == 9, f"{len(rows)} rows (9 expected)")
    _check_table(ev, "hbar-grid", rows, _envelope(POTENTIAL))
    return ev


STRONG_DRIVES = [round(-2.0 + 0.2 * k, 10) for k in range(21)]


def _strong_branch_steps(rng):
    drives = list(STRONG_DRIVES)
    if rng is not None:
        rng.shuffle(drives)
    table = _cfg("hbar-table", 0.3, {"slopes": [0.0], "drives": drives, "n": 256,
                                     "horizon": 150.0, "workers": 2}, "s03")
    homog = _cfg("homogenize", 0.3, {
        "branch": "sub", "eps_list": [0.5, 0.25], "slope": 0.0, "horizon": 0.3,
        "n": 256, "profile": [[0.35, 1, "sin"]]}, "s03",
        {"hbar_table": "s03-hbar-table.csv"})
    return [Step("hbar-drive-s03", table, workers=2), Step("homogenize-sub", homog)]


def _evaluate_strong_branch(out_dir):
    ev = Evaluation()
    _, rows = _read_csv(out_dir, "s03-hbar-table.csv")
    ev.check("hbar-drive-s03", "table_rows", len(rows) == 21, f"{len(rows)} rows (21 expected)")
    unc = _check_table(ev, "hbar-drive-s03", rows, _envelope(POTENTIAL))
    rep = _read_json(out_dir, "s03-homog.json")
    ev.check("homogenize-sub", "homog_monotone_decreasing", rep["monotone_decreasing"],
             f"errors {rep['errors']}")
    ratio = rep["errors"][1] / rep["errors"][0]
    ev.tolerance("homogenize-sub", "homog_error_ratio", ratio, 1.0)
    ev.values = {
        "homog_err_ratio": (ratio, "ratio"),
        "speed_max_unc": (unc, "speed"),
    }
    return ev


WORKLOADS = {
    "standing": (_standing_steps, _evaluate_standing, 3),
    "cell-grid": (_cell_grid_steps, _evaluate_cell_grid, 9),
    "strong-branch": (_strong_branch_steps, _evaluate_strong_branch, 21),
}


def build(name: str, seed: int) -> Workload:
    steps_fn, evaluate, evolve_calls = WORKLOADS[name]
    rng = random.Random(seed) if seed else None
    return Workload(name=name, steps=steps_fn(rng), evaluate=evaluate,
                    evolve_calls=evolve_calls)
