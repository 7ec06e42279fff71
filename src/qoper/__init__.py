"""QQ-systems, Bethe ansatz equations, Backlund transformations, and
generalized q-Wronskians for twisted q-difference connections.

Importing the package loads no submodule; import each name from the
module that defines it (``qoper.cartan``, ``qoper.polynomials``,
``qoper.minors``, ``qoper.qq``, ``qoper.backlund``, ``qoper.wronskian``,
``qoper.instance``), so a program loads only the code it runs.

The package itself holds the few names that both ``qoper.cli`` and
``qoper.instance`` need: the schema version of instance files and reports,
``InputError`` and ``_positive``.  They live here because no module may
import ``cli``, which runs as ``__main__`` under ``python -m qoper.cli``.
"""

__version__ = "0.1.0"

SCHEMA_VERSION = 1


class InputError(ValueError):
    """Input the program refuses: the command exits 2 and names it."""


def _positive(x, where: str):
    """x when it is positive and finite (not NaN), else an InputError: a
    tolerance, seed count or trial count of zero or less accepts nothing."""
    if not 0 < x < float("inf"):
        raise InputError(f"{where}: expected a positive finite number, "
                         f"got {x!r}")
    return x
