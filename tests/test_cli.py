import dataclasses
import json
import math
import signal
import tracemalloc
from pathlib import Path

import pytest

from tmann import cli
from tmann.cli import ConfigError, build_problem, main, parse_config, run_experiment
from tmann.sequences import builtin_linear_schedule

CONFIG_DIR = Path(__file__).resolve().parent.parent / "configs"


def write_config(path: Path, **overrides) -> Path:
    base = {
        "space": {"name": "euclidean", "dim": 2},
        "family": {"name": "identity"},
        "schedule": {"name": "example", "lambda": 0.5},
        "u": [0.0, 0.0],
        "x0": [0.0, 0.0],
        "p": [0.0, 0.0],
        "horizon": 300,
        "k_max": 2,
        "axiom_samples": 400,
        "family_samples": 100,
        "modulus_horizon": 5000,
        "modulus_k_max": 5,
    }
    base.update(overrides)
    path.write_text(json.dumps(base, indent=2) + "\n")
    return path


def test_trivial_identity_config_passes(tmp_path):
    cfg = write_config(tmp_path / "trivial.json")
    code = main(["run", str(cfg), "--out", str(tmp_path / "out")])
    assert code == 0
    report = (tmp_path / "out" / "report.txt").read_text()
    assert "overall: PASS" in report
    trace = (tmp_path / "out" / "trace.csv").read_text().splitlines()
    assert all(row.split(",")[1] == "0.0" for row in trace[1:])


def test_rates_csv_reproduces_closed_form_for_m3(tmp_path):
    cfg = write_config(
        tmp_path / "m3.json",
        family={"name": "box_projection", "lo": [-1.0, -1.0], "hi": [1.0, 1.0]},
        x0=[1.8, 2.4],  # distance 3 from the origin fixed point
        horizon=1500,
    )
    code = main(["run", str(cfg), "--out", str(tmp_path / "out")])
    assert code == 0
    rows = (tmp_path / "out" / "rates.csv").read_text().splitlines()
    assert "example_closed_form,Sigma,0,1278" in rows
    assert "general_theorem,Sigma,0,1278" in rows


def test_m_override_scales_rates(tmp_path):
    cfg = write_config(tmp_path / "m5.json", M=5, horizon=400)
    code = main(["run", str(cfg), "--out", str(tmp_path / "out")])
    assert code == 0
    rows = (tmp_path / "out" / "rates.csv").read_text().splitlines()
    assert "general_theorem,Sigma,0,3570" in rows  # 144*25 - 30


def test_broken_space_config_fails_with_exit_one(tmp_path):
    cfg = write_config(tmp_path / "broken.json", space={"name": "euclidean_broken", "dim": 2})
    code = main(["run", str(cfg), "--out", str(tmp_path / "out")])
    assert code == 1
    report = (tmp_path / "out" / "report.txt").read_text()
    assert "[FAIL" in report and "space axioms" in report


def test_unknown_component_is_config_error(tmp_path):
    cfg = write_config(tmp_path / "bad.json", space={"name": "hyperbolic_plane"})
    assert main(["run", str(cfg)]) == 2
    cfg2 = write_config(tmp_path / "bad2.json", family={"name": "mystery"})
    assert main(["run", str(cfg2)]) == 2


def test_missing_field_diagnostics(tmp_path):
    path = tmp_path / "incomplete.json"
    path.write_text('{"space": {"name": "euclidean", "dim": 1}}\n')
    with pytest.raises(ConfigError, match="missing required field 'family'"):
        parse_config(path)
    bad_json = tmp_path / "syntax.json"
    bad_json.write_text('{"space": }\n')
    with pytest.raises(ConfigError, match="line 1"):
        parse_config(bad_json)


def test_overrides_take_precedence(tmp_path):
    cfg = write_config(tmp_path / "ovr.json", horizon=300)
    config = parse_config(cfg, {"horizon": 123, "seed": 9, "k_max": None})
    assert config.horizon == 123
    assert config.seed == 9
    assert config.k_max == 2


def test_determinism_byte_identical_artifacts(tmp_path):
    cfg = write_config(
        tmp_path / "det.json",
        family={"name": "box_projection", "lo": [-1.0, -1.0], "hi": [1.0, 1.0]},
        x0=[0.6, 0.8],
        record_points=True,
    )
    config = parse_config(cfg)
    run_experiment(config, out_dir=tmp_path / "a")
    run_experiment(config, out_dir=tmp_path / "b")
    for name in ("trace.csv", "rates.csv", "certification.csv", "report.txt"):
        assert (tmp_path / "a" / name).read_bytes() == (tmp_path / "b" / name).read_bytes(), name


def test_suite_runs_shipped_configs(tmp_path):
    code = main(["suite", str(CONFIG_DIR), "--out", str(tmp_path / "suite")])
    assert code == 0
    summary = (tmp_path / "suite" / "suite_summary.csv").read_text().splitlines()
    assert summary[0] == "config,status,exit_code"
    assert len(summary) == 9
    assert all(line.endswith(",pass,0") for line in summary[1:])


def test_suite_empty_directory_is_usage_error(tmp_path):
    empty = tmp_path / "none"
    empty.mkdir()
    assert main(["suite", str(empty)]) == 2


def test_suite_isolates_failing_config(tmp_path):
    suite_dir = tmp_path / "mixed"
    suite_dir.mkdir()
    write_config(suite_dir / "a_good.json")
    write_config(suite_dir / "b_broken.json", space={"name": "euclidean_broken", "dim": 2})
    write_config(suite_dir / "c_good.json")
    code = main(["suite", str(suite_dir), "--out", str(tmp_path / "out")])
    assert code == 1
    summary = dict(
        line.split(",")[:2]
        for line in (tmp_path / "out" / "suite_summary.csv").read_text().splitlines()[1:]
    )
    assert summary["a_good.json"] == "pass"
    assert summary["b_broken.json"] == "fail"
    assert summary["c_good.json"] == "pass"


def test_suite_with_a_config_error_exits_two(tmp_path, capsys):
    suite_dir = tmp_path / "mixed"
    suite_dir.mkdir()
    write_config(suite_dir / "a_good.json")
    write_config(suite_dir / "b_typo.json", horizn=300)
    code = main(["suite", str(suite_dir), "--out", str(tmp_path / "out")])
    assert code == 2
    assert "b_typo.json: configuration error" in capsys.readouterr().err
    rows = (tmp_path / "out" / "suite_summary.csv").read_text().splitlines()
    assert rows[1:] == ["a_good.json,pass,0", "b_typo.json,config_error,2"]


def test_linear_schedule_config_runs_linear_sections(tmp_path):
    cfg = write_config(
        tmp_path / "lin.json",
        schedule={"name": "linear", "lambda": 0.5},
        family={"name": "resolvent_l1"},
        space={"name": "euclidean", "dim": 1},
        u=[0.0],
        x0=[1.0],
        p=[0.0],
        horizon=800,
    )
    code = main(["run", str(cfg), "--out", str(tmp_path / "out")])
    assert code == 0
    report = (tmp_path / "out" / "report.txt").read_text()
    assert "sabach-shtern recursion" in report
    assert "linear pointwise step bound" in report
    rows = (tmp_path / "out" / "rates.csv").read_text().splitlines()
    assert any(row.startswith("linear_theorem,Sigma,0,") for row in rows)


def test_forward_backward_family_config(tmp_path):
    cfg = write_config(
        tmp_path / "fb.json",
        space={"name": "euclidean", "dim": 2},
        family={
            "name": "forward_backward",
            "A": {"name": "l1", "rho": 1.0},
            "B": {"name": "quadratic", "diag": [0.5, 0.7], "b": [2.0, -3.0]},
        },
        u=[0.0, -2.0],
        x0=[0.3, -1.5],
        p=[0.0, -2.2448979591836737],  # soft(d*b, rho) / d^2 componentwise
        horizon=1500,
    )
    code = main(["run", str(cfg), "--out", str(tmp_path / "out")])
    assert code == 0
    report = (tmp_path / "out" / "report.txt").read_text()
    assert "family cross-index comparison" in report
    assert "overall: PASS" in report


def test_forward_backward_family_rejects_bad_step_sizes(tmp_path, capsys):
    # beta = 1 for this B, so the example gamma schedule starts at the cap
    cfg = write_config(
        tmp_path / "fb_bad.json",
        space={"name": "euclidean", "dim": 1},
        family={
            "name": "forward_backward",
            "A": {"name": "zero"},
            "B": {"name": "quadratic", "diag": [1.0], "b": [0.0]},
        },
        u=[0.0],
        x0=[1.0],
        p=[0.0],
    )
    assert main(["run", str(cfg), "--out", str(tmp_path / "out")]) == 2
    assert_one_line_error(capsys, "step size gamma_0 = 2.0 outside (0, 2.0)")


def test_forward_backward_step_sizes_are_read_a_block_at_a_time(tmp_path):
    # gamma_0 .. gamma_horizon, checked without a horizon-long array (8 MB)
    cfg = write_config(
        tmp_path / "fb_long.json",
        space={"name": "euclidean", "dim": 1},
        family={"name": "forward_backward", "A": {"name": "zero"}, "B": {"name": "zero"}},
        u=[0.0],
        x0=[1.0],
        p=[0.0],
        horizon=1_000_000,
    )
    config = parse_config(cfg)
    tracemalloc.start()
    try:
        build_problem(config)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak < 8 * 1_000_000


@pytest.mark.parametrize("name", sorted(cli.SCHEDULES))
def test_every_schedule_kind_declares_gamma(tmp_path, name):
    # so every family, a gamma-indexed one too, can run on every schedule
    cfg = write_config(tmp_path / "kind.json", schedule={"name": name, "lambda": 0.5})
    assert build_problem(parse_config(cfg)).schedule.has_gamma


@pytest.mark.parametrize(
    "last_beta, sigma_beta, failing_row",
    [
        # prod beta stays at 0.25, so no index reaches 1/5
        (1.0, lambda k: min(k, 3), "sigma_beta   pass 4, inconclusive 0, fail 17  FAILED at k=4"),
        # 1 - beta_n = 0.1 from n = 4 on, above 1/11
        (0.9, lambda k: k if k < 4 else 40,
         "sigma        pass 10, inconclusive 0, fail 11  FAILED at k=10"),
    ],
    ids=["product_stays_positive", "beta_stays_below_one"],
)
def test_schedule_that_misses_a_hypothesis_fails(
    tmp_path, monkeypatch, last_beta, sigma_beta, failing_row
):
    # negative controls: the moved linear box config on a linear schedule
    # whose beta repeats its last entry
    entries = [0.0, 0.5, 2.0 / 3.0, 0.75, last_beta]
    control = dataclasses.replace(
        builtin_linear_schedule(0.5),
        beta=lambda n: entries[min(n, 4)],
        sigma_beta=sigma_beta,
        inverse_product=None,
        certificates=lambda M: (),
    )
    linear = cli.SCHEDULES["linear"]._replace(make=lambda **_: control)
    monkeypatch.setitem(cli.SCHEDULES, "linear", linear)
    config = json.loads((CONFIG_DIR / "euclidean_linear_box.json").read_text())
    config.update(u=[2.0, 0.0])
    cfg = tmp_path / "control.json"
    cfg.write_text(json.dumps(config))
    assert main(["run", str(cfg), "--out", str(tmp_path / "out")]) == 1
    report = (tmp_path / "out" / "report.txt").read_text()
    assert failing_row in report
    assert "[FAIL        ] schedule moduli" in report


def assert_one_line_error(capsys, text: str) -> None:
    """stderr holds one line, which contains ``text``, and no traceback."""
    err = capsys.readouterr().err
    lines = err.strip().splitlines()
    assert len(lines) == 1 and text in lines[0] and "Traceback" not in err, err


def assert_config_error(capsys, cfg: Path, field: str) -> None:
    """The run ends with exit 2 and one stderr line naming the field."""
    assert main(["run", str(cfg), "--out", str(cfg.parent / "out")]) == 2
    assert_one_line_error(capsys, field)


def unreadable_config(path: Path, kind: str) -> Path:
    """A ``*.json`` path that cannot be read as a config: a directory, a
    file that starts with the bytes ff fe (a UTF-16 byte order mark), or
    100,000 nested JSON arrays, deeper than the parser can recurse."""
    if kind == "directory":
        path.mkdir()
    elif kind == "utf16_bom":
        path.write_bytes(b"\xff\xfe{}")
    else:
        path.write_text("[" * 100_000 + "]" * 100_000)
    return path


UNREADABLE = ["directory", "utf16_bom", "deeply_nested"]


@pytest.mark.parametrize("kind", UNREADABLE)
def test_unreadable_config_is_config_error(tmp_path, capsys, kind):
    assert_config_error(capsys, unreadable_config(tmp_path / "bad.json", kind), "cannot read")


@pytest.mark.parametrize("kind", UNREADABLE)
def test_suite_marks_unreadable_config_as_config_error(tmp_path, capsys, kind):
    suite_dir = tmp_path / "mixed"
    suite_dir.mkdir()
    write_config(suite_dir / "a_good.json")
    unreadable_config(suite_dir / "b_bad.json", kind)
    assert main(["suite", str(suite_dir), "--out", str(tmp_path / "out")]) == 2
    assert_one_line_error(capsys, "b_bad.json: configuration error")
    rows = (tmp_path / "out" / "suite_summary.csv").read_text().splitlines()
    assert rows[1:] == ["a_good.json,pass,0", "b_bad.json,config_error,2"]


@pytest.mark.parametrize("command", ["run", "suite"])
def test_out_naming_a_file_is_config_error(tmp_path, capsys, command):
    taken = tmp_path / "taken"
    taken.write_text("")
    target = write_config(tmp_path / "c.json") if command == "run" else CONFIG_DIR
    assert main([command, str(target), "--out", str(taken)]) == 2
    assert_one_line_error(capsys, "cannot create output directory")


@pytest.mark.parametrize("field", ["axiom_samples", "modulus_horizon"])
def test_size_that_cannot_be_allocated_is_config_error(tmp_path, capsys, field):
    # numpy refuses an array of 10**15 entries before it allocates any of it
    cfg = write_config(tmp_path / "b_huge.json", **{field: 10**15})
    assert_config_error(capsys, cfg, "configuration error: Unable to allocate")
    write_config(tmp_path / "a_good.json")
    assert main(["suite", str(tmp_path), "--out", str(tmp_path / "suite")]) == 2
    assert_one_line_error(capsys, "b_huge.json: configuration error")
    rows = (tmp_path / "suite" / "suite_summary.csv").read_text().splitlines()
    assert rows[1:] == ["a_good.json,pass,0", "b_huge.json,config_error,2"]


def _stuck(signum, frame):
    raise TimeoutError("tmann run still busy after 10 s")


@pytest.mark.parametrize(
    "name", ["euclidean_example_box", "tree_example_contraction", "forward_backward"]
)
def test_horizon_too_large_to_store_exits_two_at_once(tmp_path, capsys, name):
    # the orbit store is sized before the loop checks a schedule term, so
    # numpy refuses 10**15 + 1 points at once, where checking the terms
    # first would run for days; a forward-backward config, which checks its
    # step sizes as it is built, refuses a store larger than the memory
    # before that check; the alarm fails the test after 10 s
    cfg = CONFIG_DIR / f"{name}.json"
    if name == "forward_backward":
        family = {"name": "forward_backward", "A": {"name": "l1"}, "B": {"name": "zero"}}
        cfg = write_config(tmp_path / "fb.json", family=family)
    argv = ["run", str(cfg), "--horizon", str(10**15)]
    previous = signal.signal(signal.SIGALRM, _stuck)
    signal.alarm(10)
    try:
        assert main([*argv, "--out", str(tmp_path / "out")]) == 2
    finally:
        signal.alarm(0)
        signal.signal(signal.SIGALRM, previous)
    assert_one_line_error(capsys, "configuration error: Unable to allocate")


@pytest.mark.parametrize(
    "horizon",
    ["abc", "300", 3.7, True, 10**400],
    ids=["text", "numeric_text", "fraction", "boolean", "huge_integer"],
)
def test_horizon_of_wrong_type_is_config_error(tmp_path, capsys, horizon):
    assert_config_error(capsys, write_config(tmp_path / "h.json", horizon=horizon), "horizon")


def test_whole_float_is_read_as_an_integer(tmp_path):
    # 2.0 is a whole number: read as 2, like the JSON integer
    cfg = write_config(tmp_path / "whole.json", space={"name": "euclidean", "dim": 2.0}, seed=3.0)
    config = parse_config(cfg)
    assert type(config.seed) is int and config.seed == 3
    assert build_problem(config).space.dim == 2


def test_string_record_points_is_config_error(tmp_path, capsys):
    cfg = write_config(tmp_path / "rp.json", record_points="false")
    assert_config_error(capsys, cfg, "record_points")
    assert not (tmp_path / "out" / "trace.csv").exists()


def test_unknown_top_level_field_is_config_error(tmp_path, capsys):
    assert_config_error(capsys, write_config(tmp_path / "typo.json", horizn=300), "horizn")


FORWARD_BACKWARD = {
    "name": "forward_backward",
    "A": {"name": "l1", "rho": 1.0},
    "B": {"name": "quadratic", "diag": [0.5, 0.7], "b": [2.0, -3.0]},
}
TREE_POINTS = {"u": {"ray": 0, "t": 0.0}, "x0": {"ray": 1, "t": 1.0}, "p": {"ray": 0, "t": 0.0}}


@pytest.mark.parametrize(
    "overrides, field",
    [
        ({"space": {"name": "euclidean", "dim": 2.7}}, "space.dim"),
        ({"space": {"name": "euclidean", "dim": "abc"}}, "space.dim"),
        ({"space": {"name": "euclidean", "dim": 2, "box_radius": "3"}}, "space.box_radius"),
        ({"space": {"name": "star_tree", "num_rays": 3.5}}, "space.num_rays"),
        ({"space": {"name": "star_tree", "max_radius": True}}, "space.max_radius"),
        (
            {
                "space": {"name": "star_tree"},
                "u": {"ray": 1.5, "t": 0.0},
                "x0": {"ray": 1, "t": 0.0},
                "p": {"ray": 0, "t": 0.0},
            },
            "u.ray",
        ),
        ({"schedule": {"name": "linear", "lambda": "0.5"}}, "schedule.lambda"),
        ({"schedule": {"name": "example", "lambda": True}}, "schedule.lambda"),
        ({"schedule": {"name": "linear", "lambda": None}}, "schedule.lambda"),
        ({"schedule": {"name": "example", "lambda": [0.5]}}, "schedule.lambda"),
        ({"schedule": {"name": "linear", "lambda": 10**400}}, "schedule.lambda"),
        ({"family": {"name": "tree_contraction", "factor": "half"}}, "family.factor"),
        ({"family": {"name": "resolvent_l1", "weight": [1.0]}}, "family.weight"),
        (
            {"family": {"name": "forward_backward", "A": {"name": "l1", "rho": "1"},
                        "B": {"name": "zero"}}},
            "family.A.rho",
        ),
        ({"family": {"name": "box_projection", "lo": [-1.0], "hi": [1.0, 1.0]}}, "family.lo"),
        ({"family": {**FORWARD_BACKWARD, "A": {"name": "box", "lo": [-1.0], "hi": [1.0, 1.0]}}},
         "family.A.lo"),
        ({"family": {**FORWARD_BACKWARD, "B": {"name": "quadratic", "diag": [1.0],
                                               "b": [2.0, -3.0]}}}, "family.B.diag"),
        ({"family": {"name": "resolvent_quadratic", "matrix": [[1.0]]}}, "family.matrix"),
        ({"family": {"name": "box_projection", "lo": ["a", 1], "hi": [1, 1]}}, "family.lo[0]"),
        ({"family": {"name": "box_projection", "lo": [-1, None], "hi": [1, 1]}}, "family.lo[1]"),
        ({"u": ["0.0", "0.0"]}, "u[0]"),
        ({"family": {"name": "box_projection", "lo": ["-1", "-1"], "hi": [1, 1]}}, "family.lo[0]"),
    ],
    ids=[
        "dim_fraction", "dim_text", "box_radius_text", "num_rays_fraction",
        "max_radius_boolean", "tree_point_ray_fraction", "lambda_text", "lambda_boolean",
        "lambda_null", "lambda_list", "lambda_huge_integer", "factor_text",
        "weight_list", "rho_text", "box_lo_short", "operator_box_lo_short",
        "operator_diag_short", "matrix_too_small", "vector_entry_text", "vector_entry_null",
        "point_numeric_text", "vector_numeric_text",
    ],
)
def test_nested_number_of_wrong_type_is_config_error(tmp_path, capsys, overrides, field):
    assert_config_error(capsys, write_config(tmp_path / "nested.json", **overrides), field)


def test_given_m_below_radius_bound_is_config_error(tmp_path, capsys):
    config = json.loads((CONFIG_DIR / "euclidean_example_box.json").read_text())
    config.update(M=1, x0=[3.0, 0.0])
    cfg = tmp_path / "small_m.json"
    cfg.write_text(json.dumps(config))
    assert_config_error(capsys, cfg, "M = 1")


@pytest.mark.parametrize("scale", [1e12, 1e15, 1e18, 1e14 + 0.25])
def test_far_anchor_derives_an_m_the_orbit_meets(tmp_path, scale):
    cfg = write_config(tmp_path / "far.json", u=[scale, 0.0])
    assert main(["run", str(cfg), "--out", str(tmp_path / "out")]) == 0
    report = (tmp_path / "out" / "report.txt").read_text()
    assert f"vs bound {float(math.ceil(scale)):.17g} (at n=0)  ok" in report


@pytest.mark.parametrize(
    "overrides, field",
    [
        ({"horizon": 1}, "horizon"),
        ({"axiom_samples": 0}, "axiom_samples"),
        ({"family_samples": 0}, "family_samples"),
        ({"tolerance": 0}, "tolerance"),
        ({"tolerance": -1}, "tolerance"),
        ({"seed": -1}, "seed"),
        ({"modulus_horizon": 0}, "modulus_horizon"),
        ({"modulus_k_max": -1}, "modulus_k_max"),
    ],
    ids=[
        "horizon_one", "axiom_samples_zero", "family_samples_zero", "tolerance_zero",
        "tolerance_negative", "seed_negative", "modulus_horizon_zero", "modulus_k_max_negative",
    ],
)
def test_run_field_below_its_least_value_is_config_error(tmp_path, capsys, overrides, field):
    assert_config_error(capsys, write_config(tmp_path / "least.json", **overrides), field)


@pytest.mark.parametrize(
    "overrides, field",
    [
        ({"space": {"name": "euclidean", "dim": 2, "box_radious": 3.0}}, "space.box_radious"),
        ({"schedule": {"name": "example", "lambda": 0.5, "lamda": 0.9}}, "schedule.lamda"),
        ({"family": {"name": "identity", "factor": 0.5}}, "family.factor"),
        ({"family": {**FORWARD_BACKWARD, "A": {"name": "l1", "rho": 1.0, "r": 2}}}, "family.A.r"),
        ({"family": {**FORWARD_BACKWARD, "B": {"name": "zero", "diag": [1.0]}}}, "family.B.diag"),
        ({"family": {**FORWARD_BACKWARD, "A": [1.0]}}, "family.A"),
        (
            {"space": {"name": "star_tree"}, "family": {"name": "identity"},
             **TREE_POINTS, "u": {"ray": 1, "t": 1.0, "r": 2}},
            "u.r",
        ),
    ],
    ids=[
        "space_typo", "schedule_typo", "family_foreign_field", "operator_a_typo",
        "operator_b_foreign_field", "operator_a_not_object", "tree_point_foreign_field",
    ],
)
def test_nested_unknown_field_is_config_error(tmp_path, capsys, overrides, field):
    assert_config_error(capsys, write_config(tmp_path / "unknown.json", **overrides), field)


@pytest.mark.parametrize(
    "overrides",
    [
        {"space": {"name": "star_tree"}, "family": {"name": "resolvent_l1"}, **TREE_POINTS},
        {
            "space": {"name": "star_tree"},
            "family": {"name": "box_projection", "lo": [-1.0], "hi": [1.0]},
            **TREE_POINTS,
        },
        {
            "space": {"name": "star_tree"},
            "family": {"name": "resolvent_quadratic", "matrix": [[1.0]]},
            **TREE_POINTS,
        },
        {"family": {"name": "tree_contraction", "factor": 0.5}},
    ],
    ids=["tree_resolvent_l1", "tree_box_projection", "tree_resolvent_quadratic",
         "euclidean_tree_contraction"],
)
def test_family_on_a_space_it_cannot_act_on_is_config_error(tmp_path, capsys, overrides):
    assert_config_error(capsys, write_config(tmp_path / "mismatch.json", **overrides), "space.name")


@pytest.mark.parametrize(
    "overrides, field",
    [
        ({"family": {"name": "box_projection", "hi": [1.0, 1.0]}}, "'family.lo'"),
        ({"schedule": {"name": "example"}}, "'schedule.lambda'"),
        ({"family": {**FORWARD_BACKWARD, "B": {"name": "quadratic", "diag": [0.5, 0.7]}}},
         "'family.B.b'"),
        ({"space": {"name": "star_tree"}, "family": {"name": "tree_contraction"}, **TREE_POINTS},
         "'family.factor'"),
        ({"family": {"name": "resolvent_quadratic"}}, "'family.matrix'"),
    ],
    ids=["box_lo", "schedule_lambda", "operator_b", "factor", "matrix"],
)
def test_nested_missing_field_is_named_by_path(tmp_path, capsys, overrides, field):
    assert_config_error(capsys, write_config(tmp_path / "missing.json", **overrides), field)


@pytest.mark.parametrize(
    "overrides, field",
    [
        ({"space": {"name": "euclidean", "dim": 0}}, "'space'"),
        ({"schedule": {"name": "example", "lambda": 1.5}}, "'schedule'"),
        # lambda lies in the open interval (0, 1): both ends are refused
        ({"schedule": {"name": "example", "lambda": 0.0}}, "'schedule'"),
        ({"schedule": {"name": "linear", "lambda": 1.0}}, "'schedule'"),
        ({"schedule": {"name": "linear", "lambda": -0.5}}, "'schedule'"),
        # 1 / lambda overflows to inf, which has no integer ceiling
        ({"schedule": {"name": "linear", "lambda": 1e-310}}, "'schedule'"),
        (
            {"space": {"name": "star_tree"}, "family": {"name": "tree_contraction", "factor": 1.5},
             **TREE_POINTS},
            "'family'",
        ),
    ],
    ids=[
        "space_dim_zero",
        "schedule_lambda_above_one",
        "schedule_lambda_zero",
        "schedule_lambda_one",
        "schedule_lambda_negative",
        "schedule_lambda_reciprocal_overflows",
        "family_factor_above_one",
    ],
)
def test_value_a_constructor_refuses_names_its_object(tmp_path, capsys, overrides, field):
    assert_config_error(capsys, write_config(tmp_path / "refused.json", **overrides), field)
