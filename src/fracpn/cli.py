"""Batch front door: `fracpn <command> --config cfg.json [--out DIR] [--workers N]`.

Exit codes: 0 success, 1 failed check / unconverged solve / missing input
artifact, 2 config schema violation or usage error.  Outputs are written
atomically and are byte-identical across repeated runs of the same config.
"""

from __future__ import annotations

import argparse
import gc
import os
import sys

# no command calls LAPACK, so an OpenBLAS thread pool only costs start-up
# (~65 ms at import numpy); set before the first numpy import, and a value
# the user set wins
os.environ.setdefault("OPENBLAS_NUM_THREADS", "1")

from . import layer, runio  # noqa: E402
from .fracop import kernel_constant  # noqa: E402


def _input(cfg, name: str, base) -> str:
    """Path of the input artifact `name`.  A relative path is looked up in
    the output directory first (where a prior pipeline step wrote it), then
    next to the config; a missing file names the command that writes it."""
    path = cfg.inputs[name]
    if not os.path.isabs(path):
        out_dir, cfg_dir = base
        fallback = os.path.join(cfg_dir, path)
        path = os.path.join(out_dir, path)
        if not os.path.exists(path) and os.path.exists(fallback):
            path = fallback
    if not os.path.exists(path):
        raise runio.MissingArtifactError(path, runio.PRODUCERS[name])
    return path


def _load_layer(cfg, base) -> layer.LayerSolution:
    return layer.layer_from_dict(runio.read_json_result(_input(cfg, "layer", base))["result"])


def _slope(value, key: str):
    """A slope as an exact Fraction; a config slope it cannot represent is
    a config error naming `numeric.<key>`."""
    from .cell import as_rational
    try:
        return as_rational(value)
    except ValueError as exc:
        raise runio.ConfigError([f"numeric.{key}: {exc}"]) from exc


# ---------------------------------------------------------------------------
# command handlers: each writes `path` and returns its exit code, and imports
# the modules beyond runio and layer that it runs, so a process loads only those
# ---------------------------------------------------------------------------


def _run_layer(cfg, path, base, workers):
    W = runio.build_potential(cfg)
    if W is None or W.curvature_at_zero <= 0.0:
        raise runio.ConfigError(
            ["potential: layer command needs a potential with positive "
             "curvature at the wells"]
        )
    tol = cfg.option("tol")
    sol = layer.solve_layer(cfg.s, W, R_dom=cfg.option("half_width"), n=cfg.option("n"),
                            tol=tol, g=cfg.g_const)
    runio.write_json_result(path, runio.make_meta(cfg, sol.g_const, {"tol": tol}),
                            layer.layer_to_dict(sol))
    print(f"wrote {path}  (c0 = {sol.c0:.6f}, residual = {sol.residual_sup_inner:.2e})")
    return 0


def _run_corrector(cfg, path, base, workers):
    lay = _load_layer(cfg, base)
    psi = layer.solve_corrector_psi(lay, float(cfg.numeric["L0"]))
    meta = runio.make_meta(cfg, lay.g_const, {"cg_tol": layer.CORRECTOR_RTOL})
    runio.write_json_result(path, meta, layer.corrector_to_dict(psi))
    print(f"wrote {path}  (c = {psi.c:.6f}, residual = {psi.residual_sup_inner:.2e})")
    return 0


def _cell_spec(cfg, slope, drive):
    from .cell import CellProblemSpec
    return CellProblemSpec(
        s=cfg.s,
        slope=slope,
        drive=float(drive),
        potential=runio.build_potential(cfg),
        forcing=runio.build_forcing(cfg),
        n=cfg.option("n"),
        horizon=cfg.option("horizon"),
        g_const=cfg.g_const,
    )


def _run_hbar(cfg, path, base, workers):
    from . import cell
    spec = _cell_spec(cfg, _slope(cfg.numeric["slope"], "slope"), cfg.numeric["drive"])
    [row] = cell.hbar_table(spec, [spec.slope], [spec.drive])
    meta = runio.make_meta(cfg, kernel_constant(cfg.s, cfg.g_const), {"fit_tol": cell.FIT_TOL})
    runio.write_csv(path, cell.TABLE_COLUMNS, [row], meta)
    print(f"wrote {path}  (speed = {row['speed']:.6g}, converged = {row['converged']})")
    return 0 if row["converged"] else 1


def _run_hbar_table(cfg, path, base, workers):
    from . import cell
    slopes = [_slope(p, "slopes") for p in cfg.numeric["slopes"]]
    rows = cell.hbar_table(
        _cell_spec(cfg, slopes[0], 0.0),
        slopes=slopes,
        drives=[float(F) for F in cfg.numeric["drives"]],
        workers=workers if workers is not None else cfg.option("workers"),
    )
    meta = runio.make_meta(cfg, kernel_constant(cfg.s, cfg.g_const), {"fit_tol": cell.FIT_TOL})
    runio.write_csv(path, cell.TABLE_COLUMNS, rows, meta)
    bad = sum(1 for r in rows if not r["converged"])
    print(f"wrote {path}  ({len(rows)} rows, {bad} unconverged)")
    return 0 if bad == 0 else 1


def _run_homogenize(cfg, path, base, workers):
    from . import homog
    num = cfg.numeric
    table_path = _input(cfg, "hbar_table", base)
    _, _, rows = runio.read_csv(table_path)
    branch = num["branch"]
    if branch == homog.BRANCH_WEAK:
        if not any(r["drive"] == 0.0 for r in rows):
            raise runio.ConfigError([f"inputs.hbar_table: {table_path} has no rows at drive 0.0"])
        law = homog.SlopeLaw.from_rows(rows)
    else:
        p = _slope(num["slope"], "slope")
        if not any(r["slope_num"] == p.numerator and r["slope_den"] == p.denominator
                   for r in rows):
            raise runio.ConfigError(
                [f"numeric.slope: {table_path} has no rows at slope {p}"])
        law = homog.DriveLaw.from_rows(rows, slope_num=p.numerator, slope_den=p.denominator)
    profile = homog.InitialProfile(
        terms=tuple((float(a), int(m), k) for a, m, k in cfg.option("profile"))
    )
    try:  # validation leaves only the periodicity rules, which each eps must meet
        specs = [homog.EpsProblemSpec(
            branch=branch, eps=float(e), s=cfg.s, slope=float(num["slope"]), profile=profile,
            potential=runio.build_potential(cfg), forcing=runio.build_forcing(cfg),
            n=cfg.option("n"), horizon=cfg.option("horizon"), g_const=cfg.g_const,
        ) for e in num["eps_list"]]
    except ValueError as exc:
        raise runio.ConfigError([f"numeric.eps_list: {exc}"]) from exc
    report = homog.convergence_report(specs, law)
    meta = runio.make_meta(
        cfg, kernel_constant(cfg.s, cfg.g_const), {"law_coverage": law.coverage}
    )
    runio.write_json_result(path, meta, report)
    ok = report["monotone_decreasing"]
    print(f"wrote {path}  (errors = {report['errors']}, monotone = {ok})")
    return 0 if ok else 1


def _run_ansatz_residual(cfg, path, base, workers):
    from . import hull
    num = cfg.numeric
    lay = _load_layer(cfg, base)
    L0 = float(num["L0"])
    psi = None
    if L0 != 0.0:
        psi_path = _input(cfg, "corrector", base)
        psi = layer.corrector_from_dict(runio.read_json_result(psi_path)["result"])
    cauchy_tol = cfg.option("cauchy_tol")
    ans = hull.build_ansatz(
        float(num["delta"]), float(num["p0"]), L0, lay, psi=psi,
        n_terms=cfg.option("n_terms"), n_grid=cfg.option("n_grid"), cauchy_tol=cauchy_tol,
    )
    rep = hull.nl_residual(ans)
    meta = runio.make_meta(cfg, lay.g_const, {"cauchy_tol": cauchy_tol})
    result = {
        "delta": ans.delta, "p0": ans.p0, "L0": ans.L0, "s": ans.s,
        "n_terms": ans.n_terms,
        "cauchy_diff": ans.cauchy_diff,
        "cutoff_R": None if ans.cutoff is None else ans.cutoff.R,
        "lam": rep.lam, "sup_abs": rep.sup_abs, "over_d2s": rep.over_d2s,
        "grid": ans.grid.tolist(),
        "h_minus_x": ans.g_values.tolist(),
        "residual": rep.values.tolist(),
    }
    runio.write_json_result(path, meta, result)
    print(f"wrote {path}  (sup|NL| = {rep.sup_abs:.3e}, /d^2s = {rep.over_d2s:.4f})")
    return 0


def _run_orowan(cfg, path, base, workers):
    from . import cell, hull
    num = cfg.numeric
    for d in num["delta_list"]:  # each cell row runs at slope delta p0
        _slope(float(d) * float(num["p0"]), "delta_list")
    lay = _load_layer(cfg, base)
    rep = hull.orowan_check(
        [float(d) for d in num["delta_list"]],
        float(num["p0"]), float(num["L0"]), lay,
        n=cfg.option("n"), horizon=cfg.option("horizon"),
    )
    meta = runio.make_meta(cfg, lay.g_const, {"fit_tol": cell.FIT_TOL})
    meta["target"] = rep.target
    runio.write_csv(path, hull.OROWAN_COLUMNS, rep.rows, meta)
    for w in rep.warnings:
        print(f"warning: {w}", file=sys.stderr)
    print(f"wrote {path}  (final ratio = {rep.rows[-1]['ratio']:.4f}, "
          f"target = {rep.target:.4f})")
    return 0 if not rep.warnings else 1


_HANDLERS = {
    "layer": _run_layer,
    "corrector": _run_corrector,
    "hbar": _run_hbar,
    "hbar-table": _run_hbar_table,
    "homogenize": _run_homogenize,
    "ansatz-residual": _run_ansatz_residual,
    "orowan": _run_orowan,
}


def _positive_int(text: str) -> int:
    """``--workers``: a positive integer, as the config key ``workers`` is."""
    if not (text.isdigit() and int(text) >= 1):
        raise argparse.ArgumentTypeError(f"must be a positive integer (got {text!r})")
    return int(text)


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
        p.add_argument("--workers", type=_positive_int, default=None,
                       help="worker processes (tables only)")
    return parser


def _error(message, code: int) -> int:
    print(f"error: {message}", file=sys.stderr)
    return code


def main(argv=None) -> int:
    # the import-time heap lives until exit: keep it out of every collection,
    # the interpreter's final one and those of forked table workers included;
    # once per process, so a later in-process call freezes none of its caller's garbage
    if not gc.get_freeze_count():
        gc.freeze()
    args = build_parser().parse_args(argv)
    try:
        cfg = runio.parse_config(args.config)
    except FileNotFoundError:
        return _error(f"config file not found: {args.config}", 2)
    except OSError as exc:  # a directory, say
        return _error(f"cannot read config file {args.config}: {exc.strerror}", 2)
    except UnicodeDecodeError as exc:
        return _error(f"config file {args.config} is not UTF-8 text "
                      f"({exc.reason} at byte {exc.start})", 2)
    except runio.ConfigError as exc:
        return _error(exc, 2)
    if cfg.command != args.command:
        return _error(f"config command '{cfg.command}' does not match CLI "
                      f"subcommand '{args.command}'", 2)

    try:
        os.makedirs(args.out, exist_ok=True)
    except OSError as exc:  # an existing file, say
        return _error(f"cannot use --out {args.out} as a directory: {exc.strerror}", 2)
    base = (args.out, os.path.dirname(os.path.abspath(args.config)))
    path = os.path.join(args.out, runio.COMMANDS[cfg.command].out.format(p=cfg.prefix))
    try:
        code = _HANDLERS[cfg.command](cfg, path, base, args.workers)
    except runio.ConfigError as exc:
        return _error(exc, 2)
    except (runio.MissingArtifactError, RuntimeError, ValueError) as exc:
        return _error(exc, 1)
    return code


if __name__ == "__main__":
    sys.exit(main())
