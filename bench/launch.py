"""Run one `fracpn` command in this process, as the `fracpn` script would.

    python3 bench/launch.py SIDECAR [--trace DIR ID] -- COMMAND ARGS...
    python3 bench/launch.py SIDECAR --setup
    python3 bench/launch.py SIDECAR --reference

Imports fracpn cold, as the `fracpn` script does, and writes SIDECAR (JSON)
with the clock reading taken once it is imported.  The benchmark subtracts
the moment it spawned this process from it: that is the set-up time.  With
`--setup` the process stops there (a set-up probe).  With `--reference` it
imports only the third-party modules fracpn's start-up rests on, and no
fracpn code, and stops: a sample of the machine's current speed.  With
`--trace`, the package's entry points are wrapped in spans (see tracer.py)
and the spans are written to DIR under trace id ID.  The exit code is the
command's.
"""

import importlib
import json
import sys
import time

REFERENCE_IMPORTS = ("numpy", "scipy.interpolate", "scipy.optimize",
                     "scipy.sparse.linalg", "scipy.special")


def _write(path, info):
    with open(path, "w", encoding="utf-8") as f:
        json.dump(info, f)


def main(argv):
    sidecar = argv[0]
    if argv[1:] == ["--reference"]:
        for name in REFERENCE_IMPORTS:
            importlib.import_module(name)
        _write(sidecar, {"reference": time.perf_counter()})
        return 0

    import fracpn
    import fracpn.cli

    _write(sidecar, {"ready": time.perf_counter(), "fracpn": fracpn.__file__})
    if argv[1:] == ["--setup"]:
        return 0

    sep = argv.index("--")
    opts, command = argv[1:sep], argv[sep + 1:]
    trace = opts[1:3] if opts[:1] == ["--trace"] else None
    if trace is None:
        return fracpn.cli.main(command)

    import tracer

    tr = tracer.Tracer(trace_id=trace[1], out_dir=trace[0])
    tracer.install(tr)
    try:
        with tr.root(f"cli.{command[0]}"):
            return fracpn.cli.main(command)
    finally:
        tr.dump()


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
