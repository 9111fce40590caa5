import argparse
import dataclasses
import gc
import hashlib
import inspect
import json
import math
import os
import stat
from pathlib import Path

import numpy as np
import pytest

from fracpn import cell, cli, homog, hull, layer, runio
from fracpn.cell import TABLE_COLUMNS

A1 = 0.025330295910584444  # 1/(4 pi^2): curvature-one single-cosine well
ROOT = Path(__file__).parents[1]
SHIPPED_CONFIGS = sorted((ROOT / "scripts" / "configs").glob("*.json"))


def layer_cfg_dict(**numeric):
    base = {"n": 1024, "half_width": 20.0, "tol": 1e-6}
    base.update(numeric)
    return {
        "command": "layer",
        "operator": {"s": 0.5},
        "potential": {"cosine": [A1]},
        "numeric": base,
        "output": {"prefix": "t"},
    }


def hbar_cfg_dict():
    return {
        "command": "hbar",
        "operator": {"s": 0.5},
        "potential": None,
        "numeric": {"slope": 0.5, "drive": 0.7, "n": 64, "horizon": 40.0},
        "output": {"prefix": "free"},
    }


def write_cfg(tmp_path, d, name="cfg.json"):
    p = tmp_path / name
    p.write_text(json.dumps(d))
    return p


# ---------------------------------------------------------------------------
# config parsing and validation
# ---------------------------------------------------------------------------


def test_config_round_trip():
    cfg = runio.parse_config_text(json.dumps(layer_cfg_dict()))
    text = runio.serialize_config(cfg)
    cfg2 = runio.parse_config_text(text)
    assert runio.serialize_config(cfg2) == text
    assert runio.config_sha256(cfg) == runio.config_sha256(cfg2)


@pytest.mark.parametrize("path", SHIPPED_CONFIGS, ids=lambda p: p.name)
def test_config_sha256_is_hashlib_sha256(path):
    """The built-in SHA-256 gives hashlib's digest of the canonical text."""
    cfg = runio.parse_config(path)
    canonical = json.dumps(json.loads(runio.serialize_config(cfg)), sort_keys=True,
                           separators=(",", ":"))
    assert runio.config_sha256(cfg) == hashlib.sha256(canonical.encode()).hexdigest()


def test_shipped_configs_parse_and_chain():
    """Every config in scripts/configs is valid, and every input it names
    is the output of another shipped config."""
    assert SHIPPED_CONFIGS
    cfgs = [runio.parse_config(p) for p in SHIPPED_CONFIGS]
    assert all(c.command in runio.COMMANDS for c in cfgs)
    produced = {runio.COMMANDS[c.command].out.format(p=c.prefix) for c in cfgs}
    for c in cfgs:
        assert set(c.inputs.values()) <= produced, c.command


def test_shipped_weak_branch_chain(tmp_path):
    """`hbar-slope-s075` -> `homogenize-super`: every drive-0 speed is a
    certified zero, stopped well before the cap, and the weak-branch error
    is the one recorded when the chain was shipped."""
    configs = SHIPPED_CONFIGS[0].parent
    out = str(tmp_path)
    assert cli.main(["hbar-table", "--config", str(configs / "hbar-slope-s075.json"),
                     "--out", out, "--workers", "2"]) == 0
    _, _, rows = runio.read_csv(tmp_path / "s075-hbar-table.csv")
    assert len(rows) == 9
    assert all(r["speed"] == 0.0 and r["horizon"] < 150.0 for r in rows)
    assert cli.main(["homogenize", "--config", str(configs / "homogenize-super.json"),
                     "--out", out]) == 0
    errors = runio.read_json_result(tmp_path / "s075-homog.json")["result"]["errors"]
    assert all(b < a for a, b in zip(errors, errors[1:]))
    assert [round(e, 4) for e in errors] == [0.2083, 0.1717, 0.1418]


# ---------------------------------------------------------------------------
# the command table
# ---------------------------------------------------------------------------


def test_handlers_and_subcommands_match_table():
    assert set(cli._HANDLERS) == set(runio.COMMANDS)
    [sub] = [a for a in cli.build_parser()._actions
             if isinstance(a, argparse._SubParsersAction)]
    assert set(sub.choices) == set(runio.COMMANDS)
    inputs = {k for c in runio.COMMANDS.values() for k in c.inputs} | {"corrector"}
    assert inputs == set(runio.PRODUCERS)
    assert set(runio.PRODUCERS.values()) <= set(runio.COMMANDS)


def _arg(fn, name):
    return inspect.signature(fn).parameters[name].default


def _field(cls, name):
    return {f.name: f.default for f in dataclasses.fields(cls)}[name]


def test_table_defaults_are_library_defaults():
    """Each CLI default is the default of the library call it feeds, with
    the same type, so the API and the CLI cannot drift apart."""
    cell_defaults = {"n": _field(cell.CellProblemSpec, "n"),
                     "horizon": _field(cell.CellProblemSpec, "horizon")}
    library = {
        "layer": {"n": _arg(layer.solve_layer, "n"),
                  "half_width": _arg(layer.solve_layer, "R_dom"),
                  "tol": _arg(layer.solve_layer, "tol")},
        "corrector": {},
        "hbar": cell_defaults,
        "hbar-table": {**cell_defaults, "workers": _arg(cell.hbar_table, "workers")},
        "homogenize": {"n": _field(homog.EpsProblemSpec, "n"),
                       "horizon": _field(homog.EpsProblemSpec, "horizon"),
                       "profile": _field(homog.InitialProfile, "terms")},
        "ansatz-residual": {k: _arg(hull.build_ansatz, k)
                            for k in ("n_terms", "n_grid", "cauchy_tol")},
        "orowan": {k: _arg(hull.orowan_check, k) for k in ("n", "horizon")},
    }
    table = {name: c.optional for name, c in runio.COMMANDS.items()}
    assert table == library
    for name, defaults in library.items():
        for key, value in defaults.items():
            assert type(table[name][key]) is type(value), (name, key)


def test_option_casts_to_the_default_type_and_leaves_config_as_given():
    d = layer_cfg_dict(half_width=20)
    del d["numeric"]["n"]
    cfg = runio.parse_config_text(json.dumps(d))
    sha = runio.config_sha256(cfg)
    assert type(cfg.option("half_width")) is float and cfg.option("half_width") == 20.0
    assert cfg.option("n") == runio.COMMANDS["layer"].optional["n"]
    assert "n" not in cfg.numeric and runio.config_sha256(cfg) == sha


def test_readme_command_table_lists_the_table():
    """The README "Command line" table has one row per command naming its
    required keys, optional keys with defaults, inputs and output file."""
    lines = (ROOT / "README.md").read_text(encoding="utf-8").splitlines()
    for name, c in runio.COMMANDS.items():
        [row] = [ln for ln in lines if ln.startswith(f"| `{name}` |")]
        cells = [x.strip() for x in row.strip("|").split("|")]
        assert len(cells) == 5, row
        _, required, optional, inputs, out = cells
        for key in c.required:
            assert f"`{key}`" in required, (name, key)
        for key, value in c.optional.items():
            assert f"`{key}` = {json.dumps(value)}" in optional, (name, key)
        for key in c.inputs:
            assert f"`{key}`" in inputs, (name, key)
        assert out == f"`{c.out.format(p='<prefix>')}`"


def test_config_sha_ignores_formatting():
    a = json.dumps(layer_cfg_dict())
    b = json.dumps(layer_cfg_dict(), indent=4, sort_keys=True)
    sa = runio.config_sha256(runio.parse_config_text(a))
    sb = runio.config_sha256(runio.parse_config_text(b))
    assert sa == sb
    assert len(sa) == 64


def test_s_out_of_range_diagnostic():
    d = layer_cfg_dict()
    d["operator"]["s"] = 1.5
    with pytest.raises(runio.ConfigError) as exc:
        runio.parse_config_text(json.dumps(d))
    msg = str(exc.value)
    assert "operator.s" in msg
    assert "(0, 1)" in msg
    assert "1.5" in msg


def test_unknown_top_key_rejected():
    d = layer_cfg_dict()
    d["extra"] = 1
    with pytest.raises(runio.ConfigError) as exc:
        runio.parse_config_text(json.dumps(d))
    assert "extra" in str(exc.value)


def test_missing_required_numeric():
    d = {
        "command": "corrector",
        "operator": {"s": 0.75},
        "potential": {"cosine": [A1]},
        "numeric": {},
        "inputs": {"layer": "x.json"},
    }
    with pytest.raises(runio.ConfigError) as exc:
        runio.parse_config_text(json.dumps(d))
    assert "L0" in str(exc.value)


def test_eps_list_must_decrease():
    d = {
        "command": "homogenize",
        "operator": {"s": 0.75},
        "potential": {"cosine": [A1]},
        "numeric": {"branch": "super", "eps_list": [0.25, 0.5], "slope": 0.5},
        "inputs": {"hbar_table": "t.csv"},
    }
    with pytest.raises(runio.ConfigError) as exc:
        runio.parse_config_text(json.dumps(d))
    assert "eps_list" in str(exc.value)


def test_forcing_term_validation():
    d = layer_cfg_dict()
    d["forcing"] = {"terms": [{"amp": 0.1, "mode_t": 1, "mode_x": 1,
                               "kind_t": "tan", "kind_x": "cos"}]}
    with pytest.raises(runio.ConfigError) as exc:
        runio.parse_config_text(json.dumps(d))
    assert "kind_t" in str(exc.value)


_TABLE = "t-hbar-table.csv"


def _hbar_bad(**edits):
    d = hbar_cfg_dict()
    for key, value in edits.items():
        d[key] = value
    return d


@pytest.mark.parametrize("edits, field", [
    ({"forcing": {"terms": 5}}, "forcing.terms"),
    ({"forcing": {"terms": None}}, "forcing.terms"),
    ({"forcing": {"terms": [{"amp": 0.1, "mode_t": -1, "mode_x": 1,
                             "kind_t": "cos", "kind_x": "cos"}]}}, "forcing.terms[0].mode_t"),
    ({"forcing": {"terms": [{"amp": 0.1, "mode_t": 1, "mode_x": -2,
                             "kind_t": "cos", "kind_x": "cos"}]}}, "forcing.terms[0].mode_x"),
    ({"forcing": {"terms": [{"amp": 0.1, "mode_t": 1, "mode_x": 10**6,
                             "kind_t": "cos", "kind_x": "cos"}]}}, "forcing.terms[0].mode_x"),
    ({"potential": {"cosine": []}}, "potential.cosine"),
    ({"potential": {"cosine": [0.0]}}, "potential.cosine"),
    ({"command": ["hbar"]}, "command"),
    ({"numeric": {"slope": 0.5, "drive": 0.7, "horizon": -1.0}}, "numeric.horizon"),
    ({"numeric": {"slope": 0.5, "drive": 0.7, "horizon": 0}}, "numeric.horizon"),
    ({"command": "layer", "numeric": {"half_width": 5.0}}, "numeric.half_width"),
    ({"command": "layer", "numeric": {"n": 1000}}, "numeric.n"),
    ({"command": "layer", "numeric": {"n": 4}}, "numeric.n"),
    ({"command": "layer", "numeric": {"tol": 0.0}}, "numeric.tol"),
    ({"command": "ansatz-residual", "inputs": {"layer": "half-layer.json"},
      "numeric": {"delta": 0.25, "p0": 1.0, "L0": 0.0, "cauchy_tol": -1e-8}},
     "numeric.cauchy_tol"),
    ({"command": "ansatz-residual", "inputs": {"layer": "half-layer.json"},
      "numeric": {"delta": 0.25, "p0": 1.0, "L0": 0.0, "n_grid": 2}}, "numeric.n_grid"),
    ({"command": "ansatz-residual", "inputs": {"layer": "half-layer.json"},
      "numeric": {"delta": 0.25, "p0": 1.0, "L0": 0.0, "n_grid": 4}}, "numeric.n_grid"),
    ({"numeric": {"slope": 0.5, "drive": 0.7, "n": 8}}, "numeric.n"),
    ({"command": "hbar-table", "numeric": {"slopes": [0.5], "drives": [0.7], "n": 8}},
     "numeric.n"),
    ({"command": "orowan", "inputs": {"layer": "half-layer.json"},
      "numeric": {"delta_list": [0.2, 0.1], "p0": 1.0, "L0": 1.0, "n": 8}}, "numeric.n"),
    ({"command": "homogenize", "inputs": {"hbar_table": _TABLE},
      "numeric": {"branch": "super", "eps_list": [0.5, 0.25], "slope": 0.5, "n": 8}},
     "numeric.n"),
    ({"command": "homogenize", "inputs": {"hbar_table": _TABLE},
      "numeric": {"branch": "super", "eps_list": [0.5], "slope": 0.5}}, "numeric.eps_list"),
    ({"command": "homogenize", "inputs": {"hbar_table": _TABLE},
      "numeric": {"branch": "super", "eps_list": [2.0, 0.5], "slope": 0.5}},
     "numeric.eps_list"),
    ({"command": "homogenize", "operator": {"s": 0.75}, "inputs": {"hbar_table": _TABLE},
      "numeric": {"branch": "sub", "eps_list": [0.5, 0.25], "slope": 0.5}}, "numeric.branch"),
    ({"command": "homogenize", "inputs": {"hbar_table": _TABLE},
      "forcing": {"terms": [{"amp": 0.1, "mode_t": 1, "mode_x": 1,
                             "kind_t": "cos", "kind_x": "cos"}]},
      "numeric": {"branch": "super", "eps_list": [0.4, 0.2], "slope": 0.4}},
     "numeric.eps_list"),
    ({"command": "orowan", "inputs": {"layer": "half-layer.json"},
      "numeric": {"delta_list": [0.2, 0.013], "p0": 1.0, "L0": 1.0}}, "numeric.delta_list"),
    ({"command": "ansatz-residual", "inputs": {"layer": "half-layer.json"},
      "numeric": {"delta": 0.25, "p0": 0.0, "L0": 0.0}}, "numeric.p0"),
    ({"command": "ansatz-residual", "inputs": {"layer": "half-layer.json"},
      "numeric": {"delta": 0.75, "p0": 1.0, "L0": 0.0}}, "numeric.delta"),
    ({"command": "ansatz-residual", "inputs": {"layer": "half-layer.json"},
      "numeric": {"delta": 0.0, "p0": 1.0, "L0": 0.0}}, "numeric.delta"),
], ids=["terms-int", "terms-null", "mode_t", "mode_x", "mode-cap", "cosine-empty", "cosine-zero",
        "command-list", "horizon-negative", "horizon-zero", "layer-half-width", "layer-n-1000",
        "layer-n-4", "layer-tol", "cauchy-tol", "ansatz-n-grid-2", "ansatz-n-grid-4",
        "hbar-n-8", "hbar-table-n-8", "orowan-n-8", "homogenize-n-8", "eps-list-one",
        "eps-list-above-1", "sub-branch-s075", "forcing-eps", "orowan-slope", "ansatz-p0-zero",
        "ansatz-delta-p0", "ansatz-delta-0"])
def test_cli_config_errors_exit_2(tmp_path, capsys, edits, field):
    # the weak-branch law a homogenize config reads once it passes validation
    _write_drive_table(tmp_path / _TABLE, [((0, 1), [0.0], 1.0), ((1, 2), [0.0], 1.0)])
    d = _hbar_bad(**edits)
    cfg = write_cfg(tmp_path, d)
    command = d["command"] if isinstance(d["command"], str) else "hbar"
    rc = cli.main([command, "--config", str(cfg), "--out", str(tmp_path)])
    assert rc == 2
    assert f"{field}:" in capsys.readouterr().err


@pytest.mark.parametrize("error", [
    layer.LayerConvergenceError, hull.HullTailError, cell.CellStabilityError,
    homog.OutsideTableError, homog.StepBudgetError,
], ids=lambda e: e.__name__)
def test_solver_errors_are_caught_as_runtime_or_value_errors(error):
    """cli.main exits 1 on RuntimeError and ValueError without importing the
    modules that define the solver and check errors, so each must be one."""
    assert issubclass(error, (RuntimeError, ValueError))


def test_cli_negative_profile_mode_exits_2(tmp_path, capsys):
    d = _homog_sub_cfg_dict(0.0)
    d["numeric"]["profile"] = [[0.1, -1, "sin"]]
    rc = cli.main(["homogenize", "--config", str(write_cfg(tmp_path, d)),
                   "--out", str(tmp_path)])
    assert rc == 2
    assert "numeric.profile:" in capsys.readouterr().err


@pytest.mark.parametrize("command, numeric, field", [
    ("hbar", {"slope": 0.123456789, "drive": 0.7}, "numeric.slope"),
    ("hbar-table", {"slopes": [0.5, 0.123456789], "drives": [0.7]}, "numeric.slopes"),
], ids=["hbar", "hbar-table"])
def test_cli_unrepresentable_slope_exits_2(tmp_path, capsys, command, numeric, field):
    d = hbar_cfg_dict()
    d["command"] = command
    d["numeric"] = {**numeric, "n": 64, "horizon": 40.0}
    rc = cli.main([command, "--config", str(write_cfg(tmp_path, d)), "--out", str(tmp_path)])
    assert rc == 2
    assert f"{field}:" in capsys.readouterr().err


def test_corrector_input_required():
    d = {
        "command": "corrector",
        "operator": {"s": 0.75},
        "potential": {"cosine": [A1]},
        "numeric": {"L0": 1.0},
    }
    with pytest.raises(runio.ConfigError) as exc:
        runio.parse_config_text(json.dumps(d))
    assert "inputs.layer" in str(exc.value)


# ---------------------------------------------------------------------------
# file I/O helpers
# ---------------------------------------------------------------------------


def test_atomic_write_and_byte_identity(tmp_path):
    p = tmp_path / "out.json"
    runio.atomic_write_text(p, "hello\n")
    assert p.read_text() == "hello\n"
    runio.write_json_result(p, {"b": 1, "a": 2}, {"z": [1.5], "y": "q"})
    first = p.read_bytes()
    runio.write_json_result(p, {"a": 2, "b": 1}, {"y": "q", "z": [1.5]})
    assert p.read_bytes() == first
    # no stray temp files left behind
    assert sorted(q.name for q in tmp_path.iterdir()) == ["out.json"]


def test_result_files_get_the_umask_mode(tmp_path):
    """Result files are created as open(path, "w") would create them, not
    with the 0600 of the temporary file they are renamed from."""
    old = os.umask(0o022)
    try:
        runio.write_json_result(tmp_path / "r.json", {"a": 1}, {"b": 2})
        runio.write_csv(tmp_path / "r.csv", ["x"], [[1.5]], {"a": 1})
        runio.atomic_write_text(tmp_path / "r.txt", "hello\n")
    finally:
        os.umask(old)
    for name in ("r.json", "r.csv", "r.txt"):
        assert stat.S_IMODE((tmp_path / name).stat().st_mode) == 0o644


def test_streamed_json_result_has_the_joined_bytes(tmp_path):
    """A layer-sized result is written byte for byte as json.dumps with
    sorted keys and indent 2, plus a newline."""
    rng = np.random.default_rng(3)
    meta = {"quantity": "layer-profile", "tolerances": {"tol": 1e-7}, "s": 0.3,
            "potential_coeffs": [A1]}
    result = {
        "values": (rng.normal(size=4096) * 10.0 ** rng.integers(-300, 300, 4096)).tolist(),
        "tail": {"c_minus": 0.0, "c_plus": 1.0, "slope": -0.0,
                 "powers_minus": [[0.37, 0.6]], "powers_plus": [[-0.37, 0.6]]},
        "half_width": 40.0, "c0": 8.115645404024807, "flags": [True, False, None],
        "label": "x\u00b2 \"quoted\"", "count": 4096, "empty": {}, "none": [],
        "special": [float("inf"), -float("inf")],
    }
    p = tmp_path / "t-layer.json"
    runio.write_json_result(p, meta, result)
    want = json.dumps({"meta": meta, "result": result}, sort_keys=True, indent=2) + "\n"
    assert p.read_bytes() == want.encode("utf-8")


def test_failed_json_result_keeps_the_previous_file(tmp_path):
    """A value the encoder rejects deep in the result raises, leaves the
    previous file byte-identical and leaves no temporary file behind."""
    p = tmp_path / "t-layer.json"
    runio.write_json_result(p, {"a": 1}, {"values": [0.5, 1.5]})
    before = p.read_bytes()
    bad = {"values": list(range(5000)), "tail": {"zz": [1.0, {"deep": object()}]}}
    with pytest.raises(TypeError):
        runio.write_json_result(p, {"a": 1}, bad)
    assert p.read_bytes() == before
    assert sorted(q.name for q in tmp_path.iterdir()) == ["t-layer.json"]


def test_csv_round_trip(tmp_path):
    p = tmp_path / "table.csv"
    cols = ("name", "count", "value", "flag")
    rows = [
        {"name": "a", "count": 3, "value": 0.1 + 0.2, "flag": True},
        {"name": "b", "count": -1, "value": 1.0 / 3.0, "flag": False},
    ]
    meta = {"quantity": "demo", "s": 0.5}
    runio.write_csv(p, cols, rows, meta)
    meta2, cols2, rows2 = runio.read_csv(p)
    assert meta2 == meta
    assert tuple(cols2) == cols
    assert rows2[0]["value"] == rows[0]["value"]  # repr/parse exact for floats
    assert rows2[1]["count"] == -1
    assert rows2[0]["flag"] is True and rows2[1]["flag"] is False
    text = p.read_text()
    assert text.splitlines()[0].startswith("# ")
    assert "name,count,value,flag" in text


def test_csv_numpy_floats_are_plain_literals(tmp_path):
    p = tmp_path / "table.csv"
    rows = [{"speed": np.float64(0.1) + np.float64(0.2), "uncertainty": np.float64(-2.5e-7)}]
    runio.write_csv(p, ("speed", "uncertainty"), rows, {})
    data = p.read_text().splitlines()[-1]
    assert data == f"{0.1 + 0.2!r},-2.5e-07"
    _, _, [row] = runio.read_csv(p)
    assert row == {"speed": 0.1 + 0.2, "uncertainty": -2.5e-7}
    assert all(type(v) is float for v in row.values())


# ---------------------------------------------------------------------------
# CLI end to end
# ---------------------------------------------------------------------------


def test_cli_layer_run(tmp_path, capsys):
    cfg = write_cfg(tmp_path, layer_cfg_dict())
    out = tmp_path / "out"
    rc = cli.main(["layer", "--config", str(cfg), "--out", str(out)])
    assert rc == 0
    payload = runio.read_json_result(out / "t-layer.json")
    meta, result = payload["meta"], payload["result"]
    assert meta["quantity"] == "layer-profile"
    assert meta["command"] == "layer"
    assert meta["s"] == 0.5
    assert meta["normalization_constant"] == pytest.approx(1.0 / math.pi)
    assert len(meta["config_sha256"]) == 64
    assert result["c0"] == pytest.approx(2.0 * math.pi, rel=0.01)


def test_cli_hbar_free_case_and_byte_identity(tmp_path, capsys):
    cfg = write_cfg(tmp_path, hbar_cfg_dict())
    out1 = tmp_path / "a"
    out2 = tmp_path / "b"
    assert cli.main(["hbar", "--config", str(cfg), "--out", str(out1)]) == 0
    assert cli.main(["hbar", "--config", str(cfg), "--out", str(out2)]) == 0
    b1 = (out1 / "free-hbar.csv").read_bytes()
    b2 = (out2 / "free-hbar.csv").read_bytes()
    assert b1 == b2
    meta, cols, rows = runio.read_csv(out1 / "free-hbar.csv")
    assert meta["quantity"] == "effective-speed"
    assert len(rows) == 1
    assert rows[0]["speed"] == pytest.approx(0.7, abs=1e-9)
    assert rows[0]["converged"] is True


def test_second_in_process_main_freezes_nothing(tmp_path, capsys):
    """main freezes the import-time heap once per process: a later call in
    the same process leaves its caller's objects to the collector."""
    cfg = write_cfg(tmp_path, hbar_cfg_dict())
    assert cli.main(["hbar", "--config", str(cfg), "--out", str(tmp_path / "a")]) == 0
    frozen = gc.get_freeze_count()
    made_between = [[k] for k in range(1000)]
    assert cli.main(["hbar", "--config", str(cfg), "--out", str(tmp_path / "b")]) == 0
    assert gc.get_freeze_count() == frozen
    assert len(made_between) == 1000


# numpy's LAPACK-backed solvers
LAPACK = ("solve", "lstsq", "inv", "pinv", "det", "slogdet", "eig", "eigh", "eigvals",
          "eigvalsh", "svd", "qr", "cholesky")


def test_readme_chain_calls_no_lapack(tmp_path, capsys, monkeypatch):
    """With numpy's LAPACK entry points patched to raise, the six commands
    of the README chain (the standing workload's layer, corrector,
    ansatz-residual and Orowan steps among them) all run and exit 0."""
    def refuse(*args, **kwargs):
        raise AssertionError("a command called LAPACK")

    for name in LAPACK:
        monkeypatch.setattr(np.linalg, name, refuse)
    configs = SHIPPED_CONFIGS[0].parent
    for stem in ("layer-half", "corrector-half", "ansatz-half", "orowan-half",
                 "hbar-drive-s03", "homogenize-sub"):
        path = configs / f"{stem}.json"
        command = json.loads(path.read_text())["command"]
        assert cli.main([command, "--config", str(path), "--out", str(tmp_path)]) == 0, stem


def test_cli_hbar_with_forcing_constant_in_t(tmp_path, capsys):
    """sigma = 0.1 cos(2 pi y) has mean zero over the slope-1/2 torus, so the
    free flow's mean drifts at exactly the drive."""
    d = hbar_cfg_dict()
    d["forcing"] = {"terms": [{"amp": 0.1, "mode_t": 0, "mode_x": 1,
                               "kind_t": "cos", "kind_x": "cos"}]}
    cfg = write_cfg(tmp_path, d)
    assert cli.main(["hbar", "--config", str(cfg), "--out", str(tmp_path)]) == 0
    _, _, [row] = runio.read_csv(tmp_path / "free-hbar.csv")
    assert row["converged"] is True
    assert row["speed"] == pytest.approx(0.7, abs=1e-6)


def test_cli_hbar_with_empty_forcing_is_forcing_free(tmp_path, capsys):
    """"forcing": {"terms": []} is no forcing: the row takes the direct route
    and writes the forcing-free row."""
    d = hbar_cfg_dict()
    rows = []
    for forcing in (None, {"terms": []}):
        d["forcing"] = forcing
        out = tmp_path / str(len(rows))
        assert cli.main(["hbar", "--config", str(write_cfg(tmp_path, d)), "--out", str(out)]) == 0
        rows.append(runio.read_csv(out / "free-hbar.csv")[2])
    assert rows[0] == rows[1]
    assert rows[1][0]["horizon"] == 0.0


def test_cli_command_mismatch(tmp_path, capsys):
    cfg = write_cfg(tmp_path, layer_cfg_dict())
    rc = cli.main(["hbar", "--config", str(cfg), "--out", str(tmp_path)])
    assert rc == 2
    assert "layer" in capsys.readouterr().err


def test_cli_schema_error_exit_code(tmp_path, capsys):
    d = layer_cfg_dict()
    d["operator"]["s"] = 1.5
    cfg = write_cfg(tmp_path, d)
    rc = cli.main(["layer", "--config", str(cfg), "--out", str(tmp_path)])
    assert rc == 2
    err = capsys.readouterr().err
    assert "operator.s" in err and "(0, 1)" in err


# the required numeric keys of each command, at valid values
_REQUIRED = {
    "layer": {},
    "corrector": {"L0": 1.0},
    "hbar": {"slope": 0.5, "drive": 0.7},
    "hbar-table": {"slopes": [0.5], "drives": [0.7]},
    "homogenize": {"branch": "sub", "eps_list": [0.5, 0.25], "slope": 0.0},
    "orowan": {"delta_list": [0.2], "p0": 1.0, "L0": 1.0},
}


@pytest.mark.parametrize("command, key, value", [
    ("layer", "flow_time", 40.0),  # the layer solve has no time stepping
    # options fixed as module constants, at the values they defaulted to
    ("corrector", "tol", 1e-9),
    ("hbar", "fit_tol", 1e-3),
    ("hbar-table", "fit_tol", 1e-3),
    ("orowan", "fit_tol", 1e-3),
    ("homogenize", "checkpoints", 33),
])
def test_cli_rejects_unknown_numeric_keys(tmp_path, capsys, command, key, value):
    """A numeric key the command does not take exits 2 and is named; the
    config without it is valid."""
    d = {"command": command, "operator": {"s": 0.5}, "potential": {"cosine": [A1]},
         "numeric": dict(_REQUIRED[command]),
         "inputs": {k: f"t-{k}.json" for k in runio.COMMANDS[command].inputs}}
    runio.parse_config_text(json.dumps(d))
    d["numeric"][key] = value
    rc = cli.main([command, "--config", str(write_cfg(tmp_path, d)), "--out", str(tmp_path)])
    assert rc == 2
    assert f"numeric: unknown keys ['{key}']" in capsys.readouterr().err


def test_cli_missing_artifact(tmp_path, capsys):
    d = {
        "command": "corrector",
        "operator": {"s": 0.5},
        "potential": {"cosine": [A1]},
        "numeric": {"L0": 1.0},
        "inputs": {"layer": "does-not-exist.json"},
    }
    cfg = write_cfg(tmp_path, d)
    rc = cli.main(["corrector", "--config", str(cfg), "--out", str(tmp_path)])
    assert rc == 1
    err = capsys.readouterr().err
    assert "does-not-exist.json" in err
    assert "'layer'" in err


def test_cli_missing_config_file(tmp_path, capsys):
    rc = cli.main(["layer", "--config", str(tmp_path / "nope.json"),
                   "--out", str(tmp_path)])
    assert rc == 2


def _one_error_line(capsys):
    err = capsys.readouterr().err
    assert err.startswith("error: ") and err.count("\n") == 1, err
    return err


def test_cli_config_that_is_not_utf8_exits_2(tmp_path, capsys):
    cfg = tmp_path / "cfg.json"
    cfg.write_bytes(json.dumps(hbar_cfg_dict()).encode().replace(b"free", b"fr\xe9e"))
    assert cli.main(["hbar", "--config", str(cfg), "--out", str(tmp_path)]) == 2
    assert "not UTF-8" in _one_error_line(capsys)


def test_cli_config_that_is_a_directory_exits_2(tmp_path, capsys):
    assert cli.main(["hbar", "--config", str(tmp_path), "--out", str(tmp_path)]) == 2
    assert str(tmp_path) in _one_error_line(capsys)


def test_cli_out_that_is_a_file_exits_2(tmp_path, capsys):
    out = tmp_path / "taken"
    out.write_text("")
    cfg = write_cfg(tmp_path, hbar_cfg_dict())
    assert cli.main(["hbar", "--config", str(cfg), "--out", str(out)]) == 2
    assert "--out" in _one_error_line(capsys)
    assert out.read_text() == ""


@pytest.mark.parametrize("workers", ["0", "-1"])
def test_cli_workers_below_one_is_a_usage_error(tmp_path, capsys, workers):
    d = hbar_cfg_dict()
    d["command"] = "hbar-table"
    d["numeric"] = {"slopes": [0.5], "drives": [0.7, 0.8], "n": 64, "horizon": 40.0}
    cfg = write_cfg(tmp_path, d)
    with pytest.raises(SystemExit) as exc:
        cli.main(["hbar-table", "--config", str(cfg), "--out", str(tmp_path),
                  "--workers", workers])
    assert exc.value.code == 2
    assert "--workers: must be a positive integer" in capsys.readouterr().err
    assert not (tmp_path / "free-hbar-table.csv").exists()


def _ansatz_cfg_dict(**numeric):
    return {
        "command": "ansatz-residual",
        "operator": {"s": 0.5},
        "potential": {"cosine": [A1]},
        "numeric": numeric,
        "inputs": {"layer": "half-layer.json"},
        "output": {"prefix": "single"},
    }


@pytest.mark.parametrize("numeric", [
    {"delta": 1.0, "p0": 1.0, "L0": 0.0, "n_terms": 0},
    {"delta": 0.1, "p0": 1.0, "L0": 0.0, "n_terms": 0},
    {"delta": 0.1, "p0": 1.0, "L0": 0.0, "n_terms": -1},
])
def test_cli_single_transition_needs_unit_scale(tmp_path, capsys, numeric):
    """n_terms must be a positive integer like the other counts.  The name
    is kept on purpose from the removed single-transition mode (n_terms = 0):
    its unit-scale config (delta |p0| = 1, L0 = 0, the first case) now exits
    2 like any other n_terms below 1."""
    cfg = write_cfg(tmp_path, _ansatz_cfg_dict(**numeric))
    rc = cli.main(["ansatz-residual", "--config", str(cfg), "--out", str(tmp_path)])
    assert rc == 2
    assert "numeric.n_terms: must be a positive integer" in capsys.readouterr().err


def _write_drive_table(path, laws):
    """hbar-table CSV with rows speed = gain * drive at each (slope, drives, gain)."""
    rows = [
        {"slope_num": num, "slope_den": den, "drive": F, "speed": gain * F,
         "uncertainty": 0.0, "corrector_amplitude": 0.0, "converged": True,
         "horizon": 1.0, "n": 64}
        for (num, den), drives, gain in laws for F in drives
    ]
    runio.write_csv(path, TABLE_COLUMNS, rows, {"command": "hbar-table"})


def _homog_sub_cfg_dict(slope):
    """Strong branch at s = 1/2, where slope / eps must be an integer."""
    return {
        "command": "homogenize",
        "operator": {"s": 0.5},
        "potential": {"cosine": [A1]},
        "numeric": {"branch": "sub", "eps_list": [0.5, 0.25], "slope": slope,
                    "horizon": 0.05, "n": 64, "profile": [[0.1, 1, "sin"]]},
        "inputs": {"hbar_table": "t-hbar-table.csv"},
        "output": {"prefix": "t"},
    }


def test_cli_homogenize_sub_uses_rows_at_config_slope(tmp_path, capsys):
    _write_drive_table(tmp_path / "t-hbar-table.csv", [
        ((0, 1), [-1.0, 0.0, 1.0], 1.0),
        ((1, 2), [-3.0, 0.0, 3.0], 2.0),
    ])
    cfg = write_cfg(tmp_path, _homog_sub_cfg_dict(0.5))
    # the exit code reports the error trend of this short run, not the law
    cli.main(["homogenize", "--config", str(cfg), "--out", str(tmp_path)])
    meta = runio.read_json_result(tmp_path / "t-homog.json")["meta"]
    assert meta["tolerances"]["law_coverage"] == [-3.0, 3.0]  # the slope-1/2 drives


def test_cli_homogenize_sub_missing_slope_exits_2(tmp_path, capsys):
    _write_drive_table(tmp_path / "t-hbar-table.csv", [((0, 1), [-1.0, 0.0, 1.0], 1.0)])
    cfg = write_cfg(tmp_path, _homog_sub_cfg_dict(0.25))
    rc = cli.main(["homogenize", "--config", str(cfg), "--out", str(tmp_path)])
    assert rc == 2
    err = capsys.readouterr().err
    assert "numeric.slope" in err and "slope 1/4" in err


def test_cli_homogenize_super_without_drive_0_exits_2(tmp_path, capsys):
    """The weak branch reads the table's drive-0 rows; a table with none
    exits 2 and names the table, as the strong branch does for its slope."""
    _write_drive_table(tmp_path / "t-hbar-table.csv", [((1, 2), [-0.5, 0.5], 1.0)])
    d = _homog_sub_cfg_dict(0.5)
    d["operator"]["s"] = 0.75
    d["numeric"]["branch"] = "super"
    rc = cli.main(["homogenize", "--config", str(write_cfg(tmp_path, d)),
                   "--out", str(tmp_path)])
    assert rc == 2
    err = capsys.readouterr().err
    assert "inputs.hbar_table" in err and "t-hbar-table.csv" in err and "drive 0.0" in err
