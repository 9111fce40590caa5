"""Batch front door: `fracpn <command> --config cfg.json [--out DIR] [--workers N]`.

Exit codes: 0 success, 1 failed check / unconverged solve / missing input
artifact, 2 config schema violation or usage error.  Outputs are written
atomically and are byte-identical across repeated runs of the same config.
"""

from __future__ import annotations

import argparse
import os
import sys

from . import cell, homog, hull, layer, runio
from .fracop import kernel_constant
from .potential import sup_norms

_OUT_NAMES = {
    "layer": "{p}-layer.json",
    "corrector": "{p}-corrector.json",
    "hbar": "{p}-hbar.csv",
    "hbar-table": "{p}-hbar-table.csv",
    "homogenize": "{p}-homog.json",
    "ansatz-residual": "{p}-ansatz.json",
    "orowan": "{p}-orowan.csv",
}


def _resolve(path: str, base: str) -> str:
    """Relative input paths are looked up in the output directory first
    (where a prior pipeline step wrote them), then next to the config."""
    if os.path.isabs(path):
        return path
    out_dir, cfg_dir = base
    primary = os.path.join(out_dir, path)
    if os.path.exists(primary):
        return primary
    fallback = os.path.join(cfg_dir, path)
    return fallback if os.path.exists(fallback) else primary


def _load_layer(path: str) -> layer.LayerSolution:
    if not os.path.exists(path):
        raise runio.MissingArtifactError(path, "layer")
    return layer.layer_from_dict(runio.read_json_result(path)["result"])


def _load_corrector(path: str) -> layer.CorrectorSolution:
    if not os.path.exists(path):
        raise runio.MissingArtifactError(path, "corrector")
    return layer.corrector_from_dict(runio.read_json_result(path)["result"])


# ---------------------------------------------------------------------------
# command handlers: each returns (exit_code, list of written paths)
# ---------------------------------------------------------------------------


def _run_layer(cfg, out_dir, base, workers):
    W = runio.build_potential(cfg)
    if W is None or W.curvature_at_zero <= 0.0:
        raise runio.ConfigError(
            ["potential: layer command needs a potential with positive "
             "curvature at the wells"]
        )
    num = cfg.numeric
    tol = float(num.get("tol", 1e-7))
    sol = layer.solve_layer(
        cfg.s, W,
        R_dom=float(num.get("half_width", 20.0)),
        n=int(num.get("n", 2048)),
        flow_time=float(num.get("flow_time", 60.0)),
        tol=tol,
        g=cfg.g_const,
    )
    meta = runio.make_meta(cfg, sol.g_const, {"flow_tol": tol})
    path = os.path.join(out_dir, _OUT_NAMES["layer"].format(p=cfg.prefix))
    runio.write_json_result(path, meta, layer.layer_to_dict(sol))
    print(f"wrote {path}  (c0 = {sol.c0:.6f}, residual = {sol.residual_sup_inner:.2e})")
    return 0, [path]


def _run_corrector(cfg, out_dir, base, workers):
    lay = _load_layer(_resolve(cfg.inputs["layer"], base))
    num = cfg.numeric
    tol = float(num.get("tol", 1e-9))
    psi = layer.solve_corrector_psi(lay, float(num["L0"]), tol=tol)
    meta = runio.make_meta(cfg, lay.g_const, {"cg_tol": tol})
    path = os.path.join(out_dir, _OUT_NAMES["corrector"].format(p=cfg.prefix))
    runio.write_json_result(path, meta, layer.corrector_to_dict(psi))
    print(f"wrote {path}  (c = {psi.c:.6f}, residual = {psi.residual_sup_inner:.2e})")
    return 0, [path]


def _cell_spec(cfg, slope, drive):
    num = cfg.numeric
    return cell.CellProblemSpec(
        s=cfg.s,
        slope=cell.as_rational(slope),
        drive=float(drive),
        potential=runio.build_potential(cfg),
        forcing=runio.build_forcing(cfg),
        n=int(num.get("n", 512)),
        horizon=float(num.get("horizon", 200.0)),
        g_const=cfg.g_const,
    )


def _run_hbar(cfg, out_dir, base, workers):
    num = cfg.numeric
    fit_tol = float(num.get("fit_tol", 1e-3))
    spec = _cell_spec(cfg, num["slope"], num["drive"])
    [row] = cell.hbar_table(spec, [spec.slope], [spec.drive], tol=fit_tol)
    meta = runio.make_meta(cfg, kernel_constant(cfg.s, cfg.g_const), {"fit_tol": fit_tol})
    path = os.path.join(out_dir, _OUT_NAMES["hbar"].format(p=cfg.prefix))
    runio.write_csv(path, cell.TABLE_COLUMNS, [row], meta)
    print(f"wrote {path}  (speed = {row['speed']:.6g}, converged = {row['converged']})")
    return (0 if row["converged"] else 1), [path]


def _run_hbar_table(cfg, out_dir, base, workers):
    num = cfg.numeric
    fit_tol = float(num.get("fit_tol", 1e-3))
    nworkers = workers if workers is not None else int(num.get("workers", 1))
    base_spec = _cell_spec(cfg, num["slopes"][0], 0.0)
    rows = cell.hbar_table(
        base_spec,
        slopes=[cell.as_rational(p) for p in num["slopes"]],
        drives=[float(F) for F in num["drives"]],
        tol=fit_tol,
        workers=nworkers,
    )
    meta = runio.make_meta(cfg, kernel_constant(cfg.s, cfg.g_const), {"fit_tol": fit_tol})
    path = os.path.join(out_dir, _OUT_NAMES["hbar-table"].format(p=cfg.prefix))
    runio.write_csv(path, cell.TABLE_COLUMNS, rows, meta)
    bad = sum(1 for r in rows if not r["converged"])
    print(f"wrote {path}  ({len(rows)} rows, {bad} unconverged)")
    return (0 if bad == 0 else 1), [path]


def _run_homogenize(cfg, out_dir, base, workers):
    num = cfg.numeric
    table_path = _resolve(cfg.inputs["hbar_table"], base)
    if not os.path.exists(table_path):
        raise runio.MissingArtifactError(table_path, "hbar-table")
    _, _, rows = runio.read_csv(table_path)
    branch = num["branch"]
    if branch == homog.BRANCH_WEAK:
        law = homog.SlopeLaw.from_rows(rows, drive=0.0)
    else:
        law = homog.DriveLaw.from_rows(rows, slope_num=0, slope_den=1)
    profile = homog.InitialProfile(
        terms=tuple((float(a), int(m), k) for a, m, k in num.get("profile", []))
    )
    specs = [
        homog.EpsProblemSpec(
            branch=branch,
            eps=float(e),
            s=cfg.s,
            slope=float(num["slope"]),
            profile=profile,
            potential=runio.build_potential(cfg),
            forcing=runio.build_forcing(cfg),
            n=int(num.get("n", 256)),
            horizon=float(num.get("horizon", 1.0)),
            g_const=cfg.g_const,
        )
        for e in num["eps_list"]
    ]
    report = homog.convergence_report(
        specs, law, checkpoints=int(num.get("checkpoints", 33))
    )
    meta = runio.make_meta(
        cfg, kernel_constant(cfg.s, cfg.g_const), {"law_coverage": law.coverage}
    )
    path = os.path.join(out_dir, _OUT_NAMES["homogenize"].format(p=cfg.prefix))
    runio.write_json_result(path, meta, report)
    ok = report["monotone_decreasing"]
    print(f"wrote {path}  (errors = {report['errors']}, monotone = {ok})")
    return (0 if ok else 1), [path]


def _run_ansatz_residual(cfg, out_dir, base, workers):
    num = cfg.numeric
    lay = _load_layer(_resolve(cfg.inputs["layer"], base))
    L0 = float(num["L0"])
    psi = None
    if L0 != 0.0:
        psi = _load_corrector(_resolve(cfg.inputs["corrector"], base))
    ans = hull.build_ansatz(
        float(num["delta"]), float(num["p0"]), L0, lay, psi=psi,
        n_terms=int(num.get("n_terms", 64)),
        n_grid=int(num.get("n_grid", 1024)),
        cauchy_tol=float(num.get("cauchy_tol", 1e-8)),
    )
    rep = hull.nl_residual(ans)
    meta = runio.make_meta(
        cfg, lay.g_const, {"cauchy_tol": float(num.get("cauchy_tol", 1e-8))}
    )
    result = {
        "delta": ans.delta, "p0": ans.p0, "L0": ans.L0, "s": ans.s,
        "kind": ans.kind, "n_terms": ans.n_terms,
        "cauchy_diff": ans.cauchy_diff,
        "cutoff_R": None if ans.cutoff is None else ans.cutoff.R,
        "lam": rep.lam, "sup_abs": rep.sup_abs, "over_d2s": rep.over_d2s,
        "grid": ans.grid.tolist(),
        "h_minus_x": ans.g_values.tolist(),
        "residual": rep.field.values.tolist(),
    }
    path = os.path.join(out_dir, _OUT_NAMES["ansatz-residual"].format(p=cfg.prefix))
    runio.write_json_result(path, meta, result)
    print(f"wrote {path}  (sup|NL| = {rep.sup_abs:.3e}, /d^2s = {rep.over_d2s:.4f})")
    return 0, [path]


def _run_orowan(cfg, out_dir, base, workers):
    num = cfg.numeric
    lay = _load_layer(_resolve(cfg.inputs["layer"], base))
    fit_tol = float(num.get("fit_tol", 1e-3))
    rep = hull.orowan_check(
        [float(d) for d in num["delta_list"]],
        float(num["p0"]), float(num["L0"]), lay,
        n=int(num.get("n", 512)),
        horizon=float(num.get("horizon", 200.0)),
        fit_tol=fit_tol,
    )
    meta = runio.make_meta(cfg, lay.g_const, {"fit_tol": fit_tol})
    meta["target"] = rep.target
    path = os.path.join(out_dir, _OUT_NAMES["orowan"].format(p=cfg.prefix))
    runio.write_csv(path, hull.OROWAN_COLUMNS, rep.rows, meta)
    for w in rep.warnings:
        print(f"warning: {w}", file=sys.stderr)
    print(f"wrote {path}  (final ratio = {rep.rows[-1]['ratio']:.4f}, "
          f"target = {rep.target:.4f})")
    return (0 if not rep.warnings else 1), [path]


_HANDLERS = {
    "layer": _run_layer,
    "corrector": _run_corrector,
    "hbar": _run_hbar,
    "hbar-table": _run_hbar_table,
    "homogenize": _run_homogenize,
    "ansatz-residual": _run_ansatz_residual,
    "orowan": _run_orowan,
}


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="fracpn",
        description="Fractional layer dynamics: profiles, effective speeds, "
                    "hull residuals, and homogenization checks.",
    )
    sub = parser.add_subparsers(dest="command", required=True)
    for name in runio.COMMANDS:
        p = sub.add_parser(name, help=f"run the '{name}' pipeline")
        p.add_argument("--config", required=True, help="JSON run configuration")
        p.add_argument("--out", default=".", help="output directory (default: .)")
        p.add_argument("--workers", type=int, default=None,
                       help="worker processes (tables only)")
    return parser


def main(argv=None) -> int:
    args = build_parser().parse_args(argv)
    try:
        cfg = runio.parse_config(args.config)
    except FileNotFoundError:
        print(f"error: config file not found: {args.config}", file=sys.stderr)
        return 2
    except runio.ConfigError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    if cfg.command != args.command:
        print(
            f"error: config command '{cfg.command}' does not match CLI "
            f"subcommand '{args.command}'",
            file=sys.stderr,
        )
        return 2

    os.makedirs(args.out, exist_ok=True)
    base = (args.out, os.path.dirname(os.path.abspath(args.config)))
    try:
        code, _ = _HANDLERS[cfg.command](cfg, args.out, base, args.workers)
    except runio.ConfigError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    except runio.MissingArtifactError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1
    except (layer.LayerConvergenceError, hull.HullTailError,
            cell.CellStabilityError, homog.OutsideTableError,
            homog.StepBudgetError, RuntimeError, ValueError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1
    return code


if __name__ == "__main__":
    sys.exit(main())
