"""Run configurations and deterministic result files.

Configs are UTF-8 JSON with six blocks: command, operator, potential,
forcing, numeric, inputs, output.  Validation is hand-rolled so the error
messages can name the offending field and constraint (argparse-style exit
code 2 is left to the CLI).  Parse -> serialize -> parse is the identity.

Outputs are written atomically (temp file + os.replace in the same
directory) and are byte-identical across repeated runs of the same config:
JSON is encoded with sorted keys straight into the temp file, CSV rows are
formatted with repr floats in a fixed column order, and table rows are
merged in sorted key order regardless of worker count.  Every output embeds
a metadata block: a tag for the quantity, the sha256 of the canonical
config, the tolerances used, and the operator normalization constant.
"""

from __future__ import annotations

import importlib
import json
import math
import os
import tempfile
from contextlib import contextmanager
from dataclasses import asdict, dataclass, field

from .fracop import MIN_TORUS_N
from .layer import MIN_HALF_WIDTH, MIN_N, _power_of_two
from .potential import MAX_FORCING_MODE, Forcing, ForcingTerm, PeriodicPotential

__all__ = [
    "COMMANDS",
    "PRODUCERS",
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


@dataclass(frozen=True)
class Command:
    """What a CLI command is: its metadata tag, its output file name ("{p}"
    is the prefix), its required numeric keys, its optional numeric keys
    with their defaults, and the input artifacts it needs."""

    quantity: str
    out: str
    required: tuple = ()
    optional: dict = field(default_factory=dict)
    inputs: tuple = ()


_CELL_DEFAULTS = {"n": 512, "horizon": 200.0}

COMMANDS = {
    "layer": Command("layer-profile", "{p}-layer.json", (),
                     {"n": 2048, "half_width": 20.0, "tol": 1e-7}),
    "corrector": Command("layer-corrector", "{p}-corrector.json", ("L0",), {}, ("layer",)),
    "hbar": Command("effective-speed", "{p}-hbar.csv", ("slope", "drive"),
                    _CELL_DEFAULTS),
    "hbar-table": Command("effective-speed-table", "{p}-hbar-table.csv",
                          ("slopes", "drives"), {**_CELL_DEFAULTS, "workers": 1}),
    "homogenize": Command("homogenization-error", "{p}-homog.json",
                          ("branch", "eps_list", "slope"),
                          {"n": 256, "horizon": 1.0, "profile": ()},
                          ("hbar_table",)),
    "ansatz-residual": Command("hull-residual", "{p}-ansatz.json", ("delta", "p0", "L0"),
                               {"n_terms": 64, "n_grid": 1024, "cauchy_tol": 1e-8},
                               ("layer",)),
    "orowan": Command("small-slope-speed-law", "{p}-orowan.csv", ("delta_list", "p0", "L0"),
                      _CELL_DEFAULTS, ("layer",)),
}

# input name -> the command that writes it
PRODUCERS = {"layer": "layer", "corrector": "corrector", "hbar_table": "hbar-table"}

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

    def option(self, key: str):
        """Optional numeric value: the config's, else the command's default,
        cast to the default's type.  The config itself is left as given."""
        default = COMMANDS[self.command].optional[key]
        return type(default)(self.numeric.get(key, default))


# ---------------------------------------------------------------------------
# validation
# ---------------------------------------------------------------------------

_TOP_KEYS = {"command", "operator", "potential", "forcing", "numeric", "inputs",
             "output"}


def _is_num(v) -> bool:
    return isinstance(v, (int, float)) and not isinstance(v, bool) and math.isfinite(v)


def _is_count(v) -> bool:
    return isinstance(v, int) and not isinstance(v, bool) and v >= 1


def _validate_forcing(forcing, errors):
    if forcing is None:
        return
    if not isinstance(forcing, dict) or set(forcing) != {"terms"}:
        errors.append("forcing: must be null or an object with a 'terms' list")
        return
    if not isinstance(forcing["terms"], list):
        errors.append("forcing.terms: must be a list of term objects")
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
            elif not 0 <= t[k] <= MAX_FORCING_MODE:
                errors.append(f"{tag}.{k}: must lie in [0, {MAX_FORCING_MODE}] (got {t[k]})")
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
    if not isinstance(command, str) or command not in COMMANDS:
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
        elif not any(pot["cosine"]):
            errors.append("potential.cosine: must have a nonzero coefficient")

    _validate_forcing(raw.get("forcing"), errors)

    numeric = raw.get("numeric", {})
    if not isinstance(numeric, dict):
        errors.append("numeric: must be an object")
        numeric = {}
    spec = COMMANDS[command]
    allowed = set(spec.required) | set(spec.optional)
    unknown = set(numeric) - allowed
    if unknown:
        errors.append(
            f"numeric: unknown keys {sorted(unknown)} for command '{command}' "
            f"(allowed: {sorted(allowed)})"
        )
    missing = set(spec.required) - set(numeric)
    if missing:
        errors.append(
            f"numeric: missing required keys {sorted(missing)} for command "
            f"'{command}'"
        )

    for key in ("n", "n_terms", "n_grid", "workers"):
        if key in numeric and not _is_count(numeric[key]):
            errors.append(f"numeric.{key}: must be a positive integer")
    for key in ("half_width", "tol", "drive", "horizon", "L0", "delta", "p0",
                "cauchy_tol", "slope"):
        if key in numeric and not _is_num(numeric[key]):
            errors.append(f"numeric.{key}: must be a finite number")
    for key in ("horizon", "tol", "cauchy_tol"):
        if _is_num(numeric.get(key)) and numeric[key] <= 0:
            errors.append(f"numeric.{key}: must be positive (got {numeric[key]!r})")
    if command == "layer":  # the bounds solve_layer enforces
        hw = numeric.get("half_width")
        if _is_num(hw) and hw < MIN_HALF_WIDTH:
            errors.append(f"numeric.half_width: must be at least {MIN_HALF_WIDTH:g} "
                          f"(got {hw!r})")
        if _is_count(numeric.get("n")) and not _power_of_two(numeric["n"]):
            errors.append(f"numeric.n: must be a power of two >= {MIN_N} (got {numeric['n']})")
    elif _is_count(numeric.get("n")) and numeric["n"] < MIN_TORUS_N:  # a cell command's torus
        errors.append(f"numeric.n: must be at least {MIN_TORUS_N} (got {numeric['n']})")
    if command == "ansatz-residual":  # nl_residual's plan needs 2 cells in a quarter period
        if _is_count(numeric.get("n_grid")) and numeric["n_grid"] < 8:
            errors.append(f"numeric.n_grid: must be at least 8 (got {numeric['n_grid']})")
        delta, p0 = numeric.get("delta"), numeric.get("p0")
        if _is_num(p0) and p0 == 0:
            errors.append("numeric.p0: must be nonzero")
        elif _is_num(delta) and _is_num(p0) and not 0 < delta * abs(p0) <= 0.5:
            errors.append(f"numeric.delta: delta |p0| must lie in (0, 1/2], a lattice "
                          f"spacing of at least 2 (got {delta * abs(p0)!r})")
    for key in ("eps_list", "delta_list", "drives", "slopes"):
        if key in numeric:
            v = numeric[key]
            if not isinstance(v, list) or not v or not all(_is_num(a) for a in v):
                errors.append(f"numeric.{key}: must be a nonempty list of numbers")
            elif key in ("eps_list", "delta_list") and any(
                b >= a for a, b in zip(v, v[1:])
            ):
                errors.append(f"numeric.{key}: must be strictly decreasing")
            elif key == "eps_list" and (len(v) < 2 or v[-1] <= 0 or v[0] > 1):
                errors.append("numeric.eps_list: needs at least two values in (0, 1]")
    if command == "homogenize":
        branch = numeric.get("branch")
        s = op.get("s") if isinstance(op, dict) else None
        if branch not in ("super", "sub", None):
            errors.append(f"numeric.branch: must be 'super' or 'sub' (got {branch!r})")
        elif _is_num(s) and (branch == "super" and s < 0.5 or branch == "sub" and s > 0.5):
            bound = ">=" if branch == "super" else "<="
            errors.append(f"numeric.branch: '{branch}' needs s {bound} 1/2 (got s = {s!r})")
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
        elif prof is not None and any(t[1] < 0 for t in prof):
            errors.append("numeric.profile: modes must be nonnegative")

    inputs = raw.get("inputs", {})
    if not isinstance(inputs, dict) or not all(
        isinstance(v, str) for v in inputs.values()
    ):
        errors.append("inputs: must be an object mapping names to file paths")
        inputs = {}
    for key in spec.inputs:
        if key not in inputs:
            errors.append(f"inputs.{key}: required for command '{command}'")
    if (
        command == "ansatz-residual"
        and isinstance(numeric.get("L0"), (int, float))
        and numeric["L0"] != 0
        and "corrector" not in inputs
    ):
        errors.append("inputs.corrector: required for ansatz-residual with L0 != 0")

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
    return json.dumps(asdict(cfg), sort_keys=True, indent=2) + "\n"


def _sha256():
    """The interpreter's built-in SHA-256, which maps no OpenSSL: ``_sha2`` on
    CPython >= 3.12, ``_sha256`` on 3.10-3.11.  ``hashlib`` (OpenSSL) only
    where neither is built, e.g. a FIPS build."""
    for name in ("_sha2", "_sha256"):
        try:
            return importlib.import_module(name).sha256
        except ImportError:
            pass
    import hashlib

    return hashlib.sha256


def config_sha256(cfg: RunConfig) -> str:
    canonical = json.dumps(
        json.loads(serialize_config(cfg)), sort_keys=True, separators=(",", ":")
    )
    return _sha256()(canonical.encode()).hexdigest()


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
    # validation leaves exactly the five ForcingTerm fields in each term
    return Forcing(tuple(ForcingTerm(**dict(t, amp=float(t["amp"])))
                         for t in cfg.forcing["terms"]))


# ---------------------------------------------------------------------------
# output files
# ---------------------------------------------------------------------------


def make_meta(cfg: RunConfig, g_const: float, tolerances: dict) -> dict:
    meta = {
        "quantity": COMMANDS[cfg.command].quantity,
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


@contextmanager
def _atomic_open(path):
    """A text file to write ``path`` through: a temporary file in the same
    directory, renamed over ``path`` once the block exits cleanly and
    removed if it raises, so ``path`` holds either its old bytes or all of
    the new ones.  The file gets the mode open(path, "w") would give it,
    not mkstemp's 0600."""
    path = os.fspath(path)
    d = os.path.dirname(path) or "."
    fd, tmp = tempfile.mkstemp(dir=d, prefix=".tmp-", suffix=os.path.basename(path))
    try:
        umask = os.umask(0)  # the only way to read it
        os.umask(umask)
        os.chmod(tmp, 0o666 & ~umask)
        with os.fdopen(fd, "w", encoding="utf-8", newline="\n") as f:
            yield f
        os.replace(tmp, path)
    except BaseException:
        if os.path.exists(tmp):
            os.unlink(tmp)
        raise


def atomic_write_text(path, text: str) -> None:
    with _atomic_open(path) as f:
        f.write(text)


def write_json_result(path, meta: dict, result: dict) -> None:
    """The bytes of json.dumps({"meta": meta, "result": result},
    sort_keys=True, indent=2) + "\n", encoded straight into the file: the
    encoder's pieces are written as they come, never joined into one text."""
    with _atomic_open(path) as f:
        json.dump({"meta": meta, "result": result}, f, sort_keys=True, indent=2)
        f.write("\n")


def read_json_result(path) -> dict:
    with open(path, encoding="utf-8") as f:
        return json.load(f)


def _csv_cell(v) -> str:
    if isinstance(v, bool):
        return "true" if v else "false"
    if isinstance(v, float):
        return repr(float(v))  # a np.float64 is a float, but its numpy 2 repr is not
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
