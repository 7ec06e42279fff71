"""QQ-systems, Bethe ansatz equations, Backlund transformations, and
generalized q-Wronskians for twisted q-difference connections.

Importing the package loads no submodule; import each name from the
module that defines it (``qoper.cartan``, ``qoper.polynomials``,
``qoper.minors``, ``qoper.qq``, ``qoper.backlund``, ``qoper.wronskian``),
so a program loads only the code it runs.
"""

__version__ = "0.1.0"
