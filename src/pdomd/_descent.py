"""Empty module, kept importable for benchmark tooling that still imports it.

The first-order solver that lived here has no caller left: every prox step
has a closed form (see :mod:`pdomd.geometry`) and every Lagrangian minimum
a closed form (see :mod:`pdomd.oracle`).
"""
