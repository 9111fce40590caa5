"""Numerical laboratory for fractional-operator layer dynamics.

Modules:
    fracop    -- fractional-operator plans (line / periodic / spectral)
    potential -- periodic multi-well potentials and space-time forcing
    layer     -- standing transition profiles and their drive correctors
    cell      -- cell evolutions on the torus and effective speeds
    homog     -- oscillatory problems, effective laws, convergence reports
    hull      -- hull-function ansatz, residual and speed-law checks
    runio     -- run configs and deterministic result files
    cli       -- `fracpn` batch entry point

Names are imported from their modules (``from fracpn.cell import hbar``).
The package itself loads none of them, so a command loads only what it runs.
"""

__version__ = "0.1.0"
