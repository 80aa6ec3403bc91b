"""Anchored Mann-type iteration for families of nonexpansive mappings,
with composable rates of asymptotic regularity and empirical certification.

Subpackages by concern: ``geometry`` (spaces with a convex-combination map),
``sequences`` (parameter schedules and modulus oracles), ``mappings``
(nonexpansive families, the operators of forward-backward splitting, and
certificates), ``iterate`` (the iteration and its per-step checks),
``rates`` (rate compositions and the certifier), ``checks`` (the row and
section records every worst-excess check returns), ``cli`` (the experiment
harness).  Import names from these submodules, for example
``from tmann.iterate import ProblemInstance``.
"""

__version__ = "0.1.0"
