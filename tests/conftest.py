"""Shared fixtures: the instances and traces the heavier tests certify.

Session-scoped so the long orbits run once.  The poster instances:

* example_box:  R^2 box projection, quadratic schedule, M = 2
* example_l1:   R^1 soft-threshold resolvents, quadratic schedule, M = 2
* linear_l1:    R^1 soft-threshold resolvents, linear schedule, M = 2
* hilbert_box:  R^3 box projection with zero anchor (two-step cross-check)

plus the eight shipped suite configs and the two splitting toys.
"""

from dataclasses import dataclass
from pathlib import Path

import numpy as np
import pytest
from hypothesis import settings

from tmann import cli, splitting

# property tests replay the same examples every run; the acceptance gate is
# meant to be reproducible bit for bit
settings.register_profile("deterministic", derandomize=True)
settings.load_profile("deterministic")
from tmann.geometry import EuclideanSpace
from tmann.iterate import IterationTrace, ProblemInstance, run_tikhonov_mann
from tmann.mappings import box_projection_family, resolvent_l1_family
from tmann.rates import example_closed_form_rates
from tmann.sequences import builtin_example_schedule, builtin_linear_schedule

CONFIG_DIR = Path(__file__).resolve().parent.parent / "configs"


@dataclass(frozen=True)
class Fixture:
    name: str
    instance: ProblemInstance
    trace: IterationTrace


@pytest.fixture(scope="session")
def example_box() -> Fixture:
    space = EuclideanSpace(2, box_radius=3.0)
    schedule = builtin_example_schedule(0.5)
    family = box_projection_family([-1.0, -1.0], [1.0, 1.0])
    instance = ProblemInstance.create(
        space, family, schedule, u=np.zeros(2), x0=np.array([1.2, 1.6]), p=np.zeros(2)
    )
    assert instance.M == 2
    horizon = example_closed_form_rates(instance.M, 0.5).Sigma(10) + 1000
    return Fixture("example_box", instance, run_tikhonov_mann(instance, horizon))


@pytest.fixture(scope="session")
def example_l1() -> Fixture:
    space = EuclideanSpace(1, box_radius=3.0)
    schedule = builtin_example_schedule(0.5)
    family = resolvent_l1_family(schedule.gamma, dim=1)
    instance = ProblemInstance.create(
        space, family, schedule, u=np.zeros(1), x0=np.array([2.0]), p=np.zeros(1)
    )
    assert instance.M == 2
    horizon = example_closed_form_rates(instance.M, 0.5).Sigma(10) + 1000
    return Fixture("example_l1", instance, run_tikhonov_mann(instance, horizon))


@pytest.fixture(scope="session")
def linear_l1() -> Fixture:
    space = EuclideanSpace(1, box_radius=3.0)
    schedule = builtin_linear_schedule(0.5)
    family = resolvent_l1_family(schedule.gamma, dim=1)
    instance = ProblemInstance.create(
        space, family, schedule, u=np.zeros(1), x0=np.array([2.0]), p=np.zeros(1)
    )
    assert instance.M == 2
    # two steps beyond 10^5 so residual indices cover n <= 10^5 inclusive
    return Fixture(
        "linear_l1", instance, run_tikhonov_mann(instance, 100_002)
    )


@pytest.fixture(scope="session")
def hilbert_box() -> Fixture:
    space = EuclideanSpace(3, box_radius=3.0)
    schedule = builtin_example_schedule(0.5)
    family = box_projection_family([-1.0, -1.0, -1.0], [1.0, 1.0, 1.0])
    instance = ProblemInstance.create(
        space, family, schedule, u=np.zeros(3), x0=np.array([1.5, -0.7, 2.0]), p=np.zeros(3)
    )
    return Fixture(
        "hilbert_box", instance, run_tikhonov_mann(instance, 10_000)
    )


def _splitting_lasso() -> ProblemInstance:
    schedule = builtin_example_schedule(0.5)
    A = splitting.l1_operator(1.0)
    B = splitting.quadratic_gradient([0.5, 0.7], [2.0, -3.0])
    # separable optimum: z_i = soft(d_i b_i, rho) / d_i^2
    z = np.array([0.0, -1.1 / 0.49])
    family = splitting.forward_backward_family(A, B, schedule.gamma, z)
    return ProblemInstance.create(
        EuclideanSpace(2), family, schedule, u=np.array([0.0, -2.0]), x0=np.array([0.3, -1.5]), p=z
    )


def _splitting_box_quadratic() -> ProblemInstance:
    schedule = builtin_example_schedule(0.5)
    A = splitting.box_operator([0.0], [1.0])
    B = splitting.quadratic_gradient([0.8], [2.0])
    # unconstrained minimizer 2.5 lies right of the box, so the solution is 1
    z = np.array([1.0])
    family = splitting.forward_backward_family(A, B, schedule.gamma, z)
    return ProblemInstance.create(
        EuclideanSpace(1), family, schedule, u=np.zeros(1), x0=np.array([0.5]), p=z
    )


@pytest.fixture(scope="session")
def splitting_fixtures() -> list[Fixture]:
    out = []
    for name, instance in (
        ("tfb_lasso", _splitting_lasso()),
        ("tfb_box_quadratic", _splitting_box_quadratic()),
    ):
        horizon = example_closed_form_rates(instance.M, 0.5).Sigma(10) + 1000
        out.append(Fixture(name, instance, run_tikhonov_mann(instance, horizon)))
    return out


@pytest.fixture(scope="session")
def suite_instances() -> list[tuple[str, ProblemInstance]]:
    paths = sorted(CONFIG_DIR.glob("*.json"))
    assert len(paths) == 8, f"expected 8 shipped configs, found {len(paths)}"
    out = []
    for path in paths:
        config = cli.parse_config(path)
        out.append((path.stem, cli.build_problem(config)))
    return out


@pytest.fixture(scope="session")
def suite_fixtures(suite_instances) -> list[Fixture]:
    return [
        Fixture(name, instance, run_tikhonov_mann(instance, 2000))
        for name, instance in suite_instances
    ]


@pytest.fixture(scope="session")
def all_fixtures(
    example_box, example_l1, linear_l1, hilbert_box, splitting_fixtures, suite_fixtures
) -> list[Fixture]:
    return [example_box, example_l1, linear_l1, hilbert_box, *splitting_fixtures, *suite_fixtures]
