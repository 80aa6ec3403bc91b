"""Anchored Mann-type iteration for families of nonexpansive mappings,
with composable rates of asymptotic regularity and empirical certification.

Subpackages by concern: ``geometry`` (spaces with a convex-combination map),
``sequences`` (parameter schedules and modulus oracles), ``mappings``
(nonexpansive families and certificates), ``iterate`` (the iteration and its
per-step checks), ``rates`` (rate compositions and the certifier),
``splitting`` (anchored forward-backward splitting), ``cli`` (the experiment
harness).  Import names from these submodules, for example
``from tmann.iterate import ProblemInstance``.
"""

__version__ = "0.1.0"
