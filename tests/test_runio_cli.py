import json
import math
from pathlib import Path

import numpy as np
import pytest

from fracpn import cli, runio

A1 = 0.025330295910584444  # 1/(4 pi^2): curvature-one single-cosine well
SHIPPED_CONFIGS = sorted((Path(__file__).parents[1] / "scripts" / "configs").glob("*.json"))


def layer_cfg_dict(**numeric):
    base = {"n": 1024, "half_width": 20.0, "flow_time": 40.0, "tol": 1e-6}
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


def test_shipped_configs_parse_and_chain():
    """Every config in scripts/configs is valid, and every input it names
    is the output of another shipped config."""
    assert SHIPPED_CONFIGS
    cfgs = [runio.parse_config(p) for p in SHIPPED_CONFIGS]
    assert all(c.command in runio.COMMANDS for c in cfgs)
    produced = {cli._OUT_NAMES[c.command].format(p=c.prefix) for c in cfgs}
    for c in cfgs:
        assert set(c.inputs.values()) <= produced, c.command


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
    {"delta": 1.0, "p0": 1.0, "L0": 1.0, "n_terms": 0},
    {"delta": 0.5, "p0": 1.0, "L0": 0.0, "n_terms": 0},
    {"delta": 1.0, "p0": 1.0, "L0": 0.0, "n_terms": -1},
])
def test_cli_single_transition_needs_unit_scale(tmp_path, capsys, numeric):
    cfg = write_cfg(tmp_path, _ansatz_cfg_dict(**numeric))
    rc = cli.main(["ansatz-residual", "--config", str(cfg), "--out", str(tmp_path)])
    assert rc == 2
    assert "numeric.n_terms" in capsys.readouterr().err


def test_cli_single_transition_residual_is_layer_residual(tmp_path, capsys):
    """n_terms = 0 with L0 = 0 and delta |p0| = 1 reduces the hull residual to
    the layer equation, evaluated on the README s = 1/2 layer."""
    [layer_cfg] = [p for p in SHIPPED_CONFIGS if p.name == "layer-half.json"]
    assert cli.main(["layer", "--config", str(layer_cfg), "--out", str(tmp_path)]) == 0
    cfg = write_cfg(tmp_path, _ansatz_cfg_dict(delta=1.0, p0=1.0, L0=0.0, n_terms=0))
    rc = cli.main(["ansatz-residual", "--config", str(cfg), "--out", str(tmp_path)])
    assert rc == 0
    lay = runio.read_json_result(tmp_path / "half-layer.json")["result"]
    ans = runio.read_json_result(tmp_path / "single-ansatz.json")["result"]
    assert ans["kind"] == "single" and ans["n_terms"] == 0
    assert ans["sup_abs"] == pytest.approx(lay["residual_sup_inner"], rel=1e-12, abs=0.0)
