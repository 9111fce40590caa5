"""Run configurations and deterministic result files.

Configs are UTF-8 JSON with six blocks: command, operator, potential,
forcing, numeric, inputs, output.  Validation is hand-rolled so the error
messages can name the offending field and constraint (argparse-style exit
code 2 is left to the CLI).  Parse -> serialize -> parse is the identity.

Outputs are written atomically (temp file + os.replace in the same
directory) and are byte-identical across repeated runs of the same config:
JSON is dumped with sorted keys, CSV rows are formatted with repr floats in
a fixed column order, and table rows are merged in sorted key order
regardless of worker count.  Every output embeds a metadata block: a tag
for the quantity, the sha256 of the canonical config, the tolerances used,
and the operator normalization constant.
"""

from __future__ import annotations

import hashlib
import json
import math
import os
import tempfile
from dataclasses import dataclass, field

from .potential import Forcing, ForcingTerm, PeriodicPotential

__all__ = [
    "COMMANDS",
    "ConfigError",
    "MissingArtifactError",
    "RunConfig",
    "parse_config",
    "parse_config_text",
    "serialize_config",
    "config_sha256",
    "build_potential",
    "build_forcing",
    "make_meta",
    "write_json_result",
    "write_csv",
    "read_json_result",
    "atomic_write_text",
]

COMMANDS = (
    "layer",
    "corrector",
    "hbar",
    "hbar-table",
    "homogenize",
    "ansatz-residual",
    "orowan",
)

# quantity tags embedded in output metadata, keyed by command
QUANTITY_TAGS = {
    "layer": "layer-profile",
    "corrector": "layer-corrector",
    "hbar": "effective-speed",
    "hbar-table": "effective-speed-table",
    "homogenize": "homogenization-error",
    "ansatz-residual": "hull-residual",
    "orowan": "small-slope-speed-law",
}

TOOL_VERSION = "0.1.0"


class ConfigError(ValueError):
    """Schema violation; .errors lists 'field: message' diagnostics."""

    def __init__(self, errors):
        self.errors = list(errors)
        super().__init__("invalid run config:\n  " + "\n  ".join(self.errors))


class MissingArtifactError(FileNotFoundError):
    """A referenced input artifact does not exist; .producer names the
    command that writes it."""

    def __init__(self, path, producer):
        self.path = path
        self.producer = producer
        super().__init__(
            f"missing input artifact '{path}' — produce it first with the "
            f"'{producer}' command"
        )


@dataclass(frozen=True)
class RunConfig:
    command: str
    operator: dict
    potential: dict | None
    forcing: dict | None
    numeric: dict
    inputs: dict = field(default_factory=dict)
    output: dict = field(default_factory=dict)

    @property
    def s(self) -> float:
        return float(self.operator["s"])

    @property
    def g_const(self):
        return self.operator.get("g")

    @property
    def prefix(self) -> str:
        return self.output.get("prefix", self.command)

    def numeric_get(self, key, default=None):
        return self.numeric.get(key, default)


# ---------------------------------------------------------------------------
# validation
# ---------------------------------------------------------------------------

_TOP_KEYS = {"command", "operator", "potential", "forcing", "numeric", "inputs",
             "output"}

_NUMERIC_KEYS = {
    "layer": {"n", "half_width", "flow_time", "tol"},
    "corrector": {"L0", "tol"},
    "hbar": {"slope", "drive", "n", "horizon", "fit_tol"},
    "hbar-table": {"slopes", "drives", "n", "horizon", "fit_tol", "workers"},
    "homogenize": {"branch", "eps_list", "slope", "horizon", "n", "profile",
                   "checkpoints"},
    "ansatz-residual": {"delta", "p0", "L0", "n_terms", "n_grid", "cauchy_tol"},
    "orowan": {"delta_list", "p0", "L0", "n", "horizon", "fit_tol"},
}

_NUMERIC_REQUIRED = {
    "layer": set(),
    "corrector": {"L0"},
    "hbar": {"slope", "drive"},
    "hbar-table": {"slopes", "drives"},
    "homogenize": {"branch", "eps_list", "slope"},
    "ansatz-residual": {"delta", "p0", "L0"},
    "orowan": {"delta_list", "p0", "L0"},
}

_INPUTS_REQUIRED = {
    "corrector": {"layer": "layer"},
    "ansatz-residual": {"layer": "layer"},
    "orowan": {"layer": "layer"},
    "homogenize": {"hbar_table": "hbar-table"},
}


def _is_num(v) -> bool:
    return isinstance(v, (int, float)) and not isinstance(v, bool) and math.isfinite(v)


def _validate_forcing(forcing, errors):
    if forcing is None:
        return
    if not isinstance(forcing, dict) or set(forcing) != {"terms"}:
        errors.append("forcing: must be null or an object with a 'terms' list")
        return
    for j, t in enumerate(forcing["terms"]):
        tag = f"forcing.terms[{j}]"
        if not isinstance(t, dict):
            errors.append(f"{tag}: must be an object")
            continue
        if not _is_num(t.get("amp")):
            errors.append(f"{tag}.amp: must be a finite number")
        for k in ("mode_t", "mode_x"):
            if not isinstance(t.get(k), int) or isinstance(t.get(k), bool):
                errors.append(f"{tag}.{k}: must be an integer")
        for k in ("kind_t", "kind_x"):
            if t.get(k) not in ("cos", "sin"):
                errors.append(f"{tag}.{k}: must be 'cos' or 'sin'")
        extra = set(t) - {"amp", "mode_t", "mode_x", "kind_t", "kind_x"}
        if extra:
            errors.append(f"{tag}: unknown keys {sorted(extra)}")


def validate_raw(raw: dict) -> list:
    """Return a list of 'field: message' diagnostics (empty if valid)."""
    errors = []
    if not isinstance(raw, dict):
        return ["config: top level must be a JSON object"]
    unknown = set(raw) - _TOP_KEYS
    if unknown:
        errors.append(f"config: unknown top-level keys {sorted(unknown)}")

    command = raw.get("command")
    if command not in COMMANDS:
        errors.append(
            f"command: must be one of {list(COMMANDS)} (got {command!r})"
        )
        return errors

    op = raw.get("operator")
    if not isinstance(op, dict) or "s" not in op:
        errors.append("operator: must be an object with at least the key 's'")
    else:
        extra = set(op) - {"s", "g"}
        if extra:
            errors.append(f"operator: unknown keys {sorted(extra)}")
        s = op["s"]
        if not _is_num(s) or not 0.0 < float(s) < 1.0:
            errors.append(
                f"operator.s: must lie in the open interval (0, 1) (got {s!r})"
            )
        g = op.get("g")
        if g is not None and (not _is_num(g) or float(g) <= 0.0):
            errors.append(f"operator.g: must be null or a positive number (got {g!r})")

    pot = raw.get("potential")
    if pot is not None:
        if not isinstance(pot, dict) or set(pot) != {"cosine"}:
            errors.append("potential: must be null or an object {'cosine': [...]}")
        elif not isinstance(pot["cosine"], list) or not all(
            _is_num(a) for a in pot["cosine"]
        ):
            errors.append("potential.cosine: must be a list of finite numbers")

    _validate_forcing(raw.get("forcing"), errors)

    numeric = raw.get("numeric", {})
    if not isinstance(numeric, dict):
        errors.append("numeric: must be an object")
        numeric = {}
    allowed = _NUMERIC_KEYS[command]
    unknown = set(numeric) - allowed
    if unknown:
        errors.append(
            f"numeric: unknown keys {sorted(unknown)} for command '{command}' "
            f"(allowed: {sorted(allowed)})"
        )
    missing = _NUMERIC_REQUIRED[command] - set(numeric)
    if missing:
        errors.append(
            f"numeric: missing required keys {sorted(missing)} for command "
            f"'{command}'"
        )

    for key in ("n", "n_terms", "n_grid", "workers", "checkpoints"):
        if key in numeric and (
            not isinstance(numeric[key], int) or isinstance(numeric[key], bool)
            or numeric[key] < (0 if key == "n_terms" else 1)
        ):
            kind = "nonnegative" if key == "n_terms" else "positive"
            errors.append(f"numeric.{key}: must be a {kind} integer")
    for key in ("half_width", "flow_time", "tol", "drive", "horizon", "fit_tol",
                "L0", "delta", "p0", "cauchy_tol", "slope"):
        if key in numeric and not _is_num(numeric[key]):
            errors.append(f"numeric.{key}: must be a finite number")
    for key in ("eps_list", "delta_list", "drives", "slopes"):
        if key in numeric:
            v = numeric[key]
            if not isinstance(v, list) or not v or not all(_is_num(a) for a in v):
                errors.append(f"numeric.{key}: must be a nonempty list of numbers")
            elif key in ("eps_list", "delta_list") and any(
                b >= a for a, b in zip(v, v[1:])
            ):
                errors.append(f"numeric.{key}: must be strictly decreasing")
    if command == "homogenize":
        if numeric.get("branch") not in ("super", "sub", None):
            errors.append(
                f"numeric.branch: must be 'super' or 'sub' (got {numeric.get('branch')!r})"
            )
        prof = numeric.get("profile")
        if prof is not None and (
            not isinstance(prof, list)
            or not all(
                isinstance(t, list) and len(t) == 3 and _is_num(t[0])
                and isinstance(t[1], int) and t[2] in ("cos", "sin")
                for t in prof
            )
        ):
            errors.append(
                "numeric.profile: must be a list of [amp, mode, 'cos'|'sin'] triples"
            )

    inputs = raw.get("inputs", {})
    if not isinstance(inputs, dict) or not all(
        isinstance(v, str) for v in inputs.values()
    ):
        errors.append("inputs: must be an object mapping names to file paths")
        inputs = {}
    for key in _INPUTS_REQUIRED.get(command, {}):
        if key not in inputs:
            errors.append(f"inputs.{key}: required for command '{command}'")
    if (
        command == "ansatz-residual"
        and isinstance(numeric.get("L0"), (int, float))
        and numeric["L0"] != 0
        and "corrector" not in inputs
    ):
        errors.append("inputs.corrector: required for ansatz-residual with L0 != 0")
    # n_terms = 0 is the single-transition diagnostic of hull.build_ansatz
    if (
        command == "ansatz-residual"
        and type(numeric.get("n_terms")) is int and numeric["n_terms"] == 0
        and all(_is_num(numeric.get(k)) for k in ("L0", "delta", "p0"))
        and (numeric["L0"] != 0 or numeric["delta"] * abs(numeric["p0"]) != 1.0)
    ):
        errors.append(
            "numeric.n_terms: 0 (single transition) needs L0 = 0 and delta*|p0| = 1"
        )

    out = raw.get("output", {})
    if not isinstance(out, dict) or not all(isinstance(v, str) for v in out.values()):
        errors.append("output: must be an object with string values")
    elif set(out) - {"prefix"}:
        errors.append(f"output: unknown keys {sorted(set(out) - {'prefix'})}")

    return errors


def parse_config_text(text: str) -> RunConfig:
    try:
        raw = json.loads(text)
    except json.JSONDecodeError as exc:
        raise ConfigError([f"config: not valid JSON ({exc})"]) from exc
    errors = validate_raw(raw)
    if errors:
        raise ConfigError(errors)
    return RunConfig(
        command=raw["command"],
        operator=dict(raw["operator"]),
        potential=None if raw.get("potential") is None else dict(raw["potential"]),
        forcing=None if raw.get("forcing") is None else dict(raw["forcing"]),
        numeric=dict(raw.get("numeric", {})),
        inputs=dict(raw.get("inputs", {})),
        output=dict(raw.get("output", {})),
    )


def parse_config(path) -> RunConfig:
    with open(path, encoding="utf-8") as f:
        return parse_config_text(f.read())


def serialize_config(cfg: RunConfig) -> str:
    raw = {
        "command": cfg.command,
        "operator": cfg.operator,
        "potential": cfg.potential,
        "forcing": cfg.forcing,
        "numeric": cfg.numeric,
        "inputs": cfg.inputs,
        "output": cfg.output,
    }
    return json.dumps(raw, sort_keys=True, indent=2) + "\n"


def config_sha256(cfg: RunConfig) -> str:
    canonical = json.dumps(
        json.loads(serialize_config(cfg)), sort_keys=True, separators=(",", ":")
    )
    return hashlib.sha256(canonical.encode()).hexdigest()


# ---------------------------------------------------------------------------
# physics blocks
# ---------------------------------------------------------------------------


def build_potential(cfg: RunConfig) -> PeriodicPotential | None:
    if cfg.potential is None:
        return None
    return PeriodicPotential(tuple(float(a) for a in cfg.potential["cosine"]))


def build_forcing(cfg: RunConfig) -> Forcing | None:
    if cfg.forcing is None:
        return None
    terms = tuple(
        ForcingTerm(
            amp=float(t["amp"]),
            mode_t=t["mode_t"],
            mode_x=t["mode_x"],
            kind_t=t["kind_t"],
            kind_x=t["kind_x"],
        )
        for t in cfg.forcing["terms"]
    )
    return Forcing(terms)


# ---------------------------------------------------------------------------
# output files
# ---------------------------------------------------------------------------


def make_meta(cfg: RunConfig, g_const: float, tolerances: dict) -> dict:
    meta = {
        "quantity": QUANTITY_TAGS[cfg.command],
        "command": cfg.command,
        "config_sha256": config_sha256(cfg),
        "tool_version": TOOL_VERSION,
        "s": cfg.s,
        "normalization_constant": g_const,
        "tolerances": dict(sorted(tolerances.items())),
    }
    if cfg.potential is not None:
        meta["potential_coeffs"] = [float(a) for a in cfg.potential["cosine"]]
    return meta


def atomic_write_text(path, text: str) -> None:
    path = os.fspath(path)
    d = os.path.dirname(path) or "."
    fd, tmp = tempfile.mkstemp(dir=d, prefix=".tmp-", suffix=os.path.basename(path))
    try:
        with os.fdopen(fd, "w", encoding="utf-8", newline="\n") as f:
            f.write(text)
        os.replace(tmp, path)
    except BaseException:
        if os.path.exists(tmp):
            os.unlink(tmp)
        raise


def write_json_result(path, meta: dict, result: dict) -> None:
    text = json.dumps({"meta": meta, "result": result}, sort_keys=True, indent=2)
    atomic_write_text(path, text + "\n")


def read_json_result(path) -> dict:
    with open(path, encoding="utf-8") as f:
        return json.load(f)


def _csv_cell(v) -> str:
    if isinstance(v, bool):
        return "true" if v else "false"
    if isinstance(v, float):
        return repr(v)
    return str(v)


def write_csv(path, columns, rows, meta: dict) -> None:
    """CSV with '#'-prefixed metadata lines, then a header row, then data.
    rows: iterables or mappings matching the column order."""
    lines = [f"# {k}: {json.dumps(v, sort_keys=True)}" for k, v in sorted(meta.items())]
    lines.append(",".join(columns))
    for row in rows:
        if isinstance(row, dict):
            row = [row[c] for c in columns]
        lines.append(",".join(_csv_cell(v) for v in row))
    atomic_write_text(path, "\n".join(lines) + "\n")


def read_csv(path):
    """Inverse of write_csv: returns (meta, columns, rows as dicts of parsed
    values)."""
    meta = {}
    columns = None
    rows = []
    with open(path, encoding="utf-8") as f:
        for line in f:
            line = line.rstrip("\n")
            if not line:
                continue
            if line.startswith("#"):
                k, _, v = line[1:].partition(":")
                meta[k.strip()] = json.loads(v.strip())
                continue
            cells = line.split(",")
            if columns is None:
                columns = cells
                continue
            parsed = []
            for c in cells:
                if c == "true":
                    parsed.append(True)
                elif c == "false":
                    parsed.append(False)
                else:
                    try:
                        parsed.append(int(c))
                    except ValueError:
                        try:
                            parsed.append(float(c))
                        except ValueError:
                            parsed.append(c)
            rows.append(dict(zip(columns, parsed)))
    return meta, columns, rows
