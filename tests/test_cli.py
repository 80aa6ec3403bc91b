import json
from pathlib import Path

import pytest

from tmann.cli import ConfigError, main, parse_config, run_experiment

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


def test_forward_backward_family_rejects_bad_step_sizes(tmp_path):
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


def test_table_schedule_config(tmp_path):
    cfg = write_config(
        tmp_path / "table.json",
        schedule={
            "name": "table",
            "beta": [1.0 - 1.0 / (n + 1) for n in range(4000)],
            "lambda": [0.5],
            "sigma_beta": [k for k in range(30)],
            "chi_beta": [k for k in range(30)],
            "chi_lambda": [0],
            "sigma": [k for k in range(30)],
            "Lambda_cap": 2,
            "N_Lambda": 0,
        },
        horizon=300,
        modulus_horizon=3000,
        modulus_k_max=5,
    )
    assert main(["run", str(cfg), "--out", str(tmp_path / "out")]) == 0


def assert_config_error(capsys, cfg: Path, field: str) -> None:
    """The run ends with exit 2 and one stderr line naming the field."""
    assert main(["run", str(cfg), "--out", str(cfg.parent / "out")]) == 2
    err = capsys.readouterr().err.strip().splitlines()
    assert len(err) == 1 and field in err[0], err


@pytest.mark.parametrize(
    "horizon",
    ["abc", "300", 3.7, True, 10**400],
    ids=["text", "numeric_text", "fraction", "boolean", "huge_integer"],
)
def test_horizon_of_wrong_type_is_config_error(tmp_path, capsys, horizon):
    assert_config_error(capsys, write_config(tmp_path / "h.json", horizon=horizon), "horizon")


def test_string_record_points_is_config_error(tmp_path, capsys):
    cfg = write_config(tmp_path / "rp.json", record_points="false")
    assert_config_error(capsys, cfg, "record_points")
    assert not (tmp_path / "out" / "trace.csv").exists()


def test_unknown_top_level_field_is_config_error(tmp_path, capsys):
    assert_config_error(capsys, write_config(tmp_path / "typo.json", horizn=300), "horizn")


def test_table_schedule_beta_outside_unit_interval_is_config_error(tmp_path, capsys):
    cfg = write_config(
        tmp_path / "table_bad.json",
        schedule={
            "name": "table",
            "beta": [0.5, 1.5],
            "lambda": [0.5],
            "sigma_beta": [0],
            "chi_beta": [0],
            "chi_lambda": [0],
            "sigma": [0],
            "Lambda_cap": 2,
            "N_Lambda": 0,
        },
    )
    assert_config_error(capsys, cfg, "beta[1]")


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
        "max_radius_boolean", "tree_point_ray_fraction", "lambda_text", "factor_text",
        "weight_list", "rho_text", "box_lo_short", "operator_box_lo_short",
        "operator_diag_short", "matrix_too_small", "vector_entry_text", "vector_entry_null",
        "point_numeric_text", "vector_numeric_text",
    ],
)
def test_nested_number_of_wrong_type_is_config_error(tmp_path, capsys, overrides, field):
    assert_config_error(capsys, write_config(tmp_path / "nested.json", **overrides), field)


def test_table_schedule_with_partial_gamma_certificate_is_config_error(tmp_path, capsys):
    cfg = write_config(
        tmp_path / "table_gamma.json",
        family={"name": "resolvent_l1"},
        schedule={
            "name": "table",
            "beta": [1.0 - 1.0 / (n + 1) for n in range(400)],
            "lambda": [0.5],
            "sigma_beta": list(range(30)),
            "chi_beta": list(range(30)),
            "chi_lambda": [0],
            "sigma": list(range(30)),
            "Lambda_cap": 2,
            "N_Lambda": 0,
            "gamma": [1.0],
        },
    )
    assert_config_error(capsys, cfg, "chi_gamma")


def test_given_m_below_radius_bound_is_config_error(tmp_path, capsys):
    config = json.loads((CONFIG_DIR / "euclidean_example_box.json").read_text())
    config.update(M=1, x0=[3.0, 0.0])
    cfg = tmp_path / "small_m.json"
    cfg.write_text(json.dumps(config))
    assert_config_error(capsys, cfg, "M = 1")


@pytest.mark.parametrize("label", ["linear", "example"])
def test_table_schedule_label_only_names_it(tmp_path, label):
    # a table whose beta is the example schedule's, under a builtin's label,
    # gets the general theorem only: the label certifies nothing
    cfg = write_config(
        tmp_path / "labelled.json",
        schedule={
            "name": "table",
            "label": label,
            "beta": [1.0 - 1.0 / (n + 1) for n in range(4000)],
            "lambda": [0.5],
            "sigma_beta": list(range(30)),
            "chi_beta": list(range(30)),
            "chi_lambda": [0],
            "sigma": list(range(30)),
            "Lambda_cap": 2,
            "N_Lambda": 0,
        },
        modulus_horizon=3000,
    )
    assert main(["run", str(cfg), "--out", str(tmp_path / "out")]) == 0
    report = (tmp_path / "out" / "report.txt").read_text()
    assert f"modulus validation for schedule '{label}'" in report
    sections = [line for line in report.splitlines() if line.startswith("[")]
    assert not any("linear" in s or "sabach" in s or "example_closed_form" in s for s in sections)
    rates = (tmp_path / "out" / "rates.csv").read_text().splitlines()[1:]
    assert {row.split(",")[0] for row in rates} == {"general_theorem"}


def table_schedule(**overrides) -> dict:
    """A valid example-like table schedule with some fields replaced."""
    schedule = {
        "name": "table",
        "beta": [1.0 - 1.0 / (n + 1) for n in range(400)],
        "lambda": [0.5],
        "sigma_beta": list(range(30)),
        "chi_beta": list(range(30)),
        "chi_lambda": [0],
        "sigma": list(range(30)),
        "Lambda_cap": 2,
        "N_Lambda": 0,
    }
    schedule.update(overrides)
    return schedule


GAMMA_TABLE = {"gamma": [1.0], "chi_gamma": [0], "Gamma_cap": 1, "N_Gamma": 0}


@pytest.mark.parametrize(
    "overrides, field",
    [
        ({"Lambda_cap": 0}, "Lambda_cap"),
        ({"Lambda_cap": -3}, "Lambda_cap"),
        ({**GAMMA_TABLE, "Gamma_cap": 0}, "Gamma_cap"),
    ],
    ids=["lambda_cap_zero", "lambda_cap_negative", "gamma_cap_zero"],
)
def test_table_schedule_cap_below_one_is_config_error(tmp_path, capsys, overrides, field):
    cfg = write_config(tmp_path / "cap.json", schedule=table_schedule(**overrides))
    assert_config_error(capsys, cfg, field)


@pytest.mark.parametrize(
    "overrides, field",
    [
        ({"sigma_beta": [2.7]}, "sigma_beta[0]"),
        ({"chi_beta": [0, 1, 2.5]}, "chi_beta[2]"),
        ({"chi_lambda": ["0"]}, "chi_lambda[0]"),
        ({"sigma": [0, True]}, "sigma[1]"),
        ({"Lambda_cap": 2.5}, "Lambda_cap"),
        ({"N_Lambda": 0.5}, "N_Lambda"),
        ({**GAMMA_TABLE, "chi_gamma": [1.5]}, "chi_gamma[0]"),
        ({**GAMMA_TABLE, "Gamma_cap": 1.5}, "Gamma_cap"),
        ({"Lambda_cap": 10**400}, "schedule.Lambda_cap"),
    ],
    ids=[
        "sigma_beta_fraction", "chi_beta_fraction", "chi_lambda_text", "sigma_boolean",
        "lambda_cap_fraction", "n_lambda_fraction", "chi_gamma_fraction", "gamma_cap_fraction",
        "lambda_cap_huge_integer",
    ],
)
def test_table_schedule_fractional_rate_entry_is_config_error(tmp_path, capsys, overrides, field):
    cfg = write_config(tmp_path / "frac.json", schedule=table_schedule(**overrides))
    assert_config_error(capsys, cfg, field)


def test_table_schedule_whole_float_entries_are_accepted(tmp_path):
    # 2.0 is a whole number: read as 2, like the JSON integer
    cfg = write_config(
        tmp_path / "whole.json",
        schedule=table_schedule(sigma_beta=[float(k) for k in range(30)], Lambda_cap=2.0),
        modulus_horizon=3000,
    )
    assert main(["run", str(cfg), "--out", str(tmp_path / "out")]) == 0


@pytest.mark.parametrize(
    "overrides, field",
    [
        ({"axiom_samples": 0}, "axiom_samples"),
        ({"family_samples": 0}, "family_samples"),
        ({"tolerance": 0}, "tolerance"),
        ({"tolerance": -1}, "tolerance"),
        ({"seed": -1}, "seed"),
        ({"modulus_horizon": 0}, "modulus_horizon"),
        ({"modulus_k_max": -1}, "modulus_k_max"),
    ],
    ids=[
        "axiom_samples_zero", "family_samples_zero", "tolerance_zero", "tolerance_negative",
        "seed_negative", "modulus_horizon_zero", "modulus_k_max_negative",
    ],
)
def test_run_field_below_its_least_value_is_config_error(tmp_path, capsys, overrides, field):
    assert_config_error(capsys, write_config(tmp_path / "least.json", **overrides), field)


@pytest.mark.parametrize(
    "overrides, field",
    [
        ({"space": {"name": "euclidean", "dim": 2, "box_radious": 3.0}}, "space.box_radious"),
        ({"schedule": {"name": "example", "lambda": 0.5, "lamda": 0.9}}, "schedule.lamda"),
        ({"schedule": table_schedule(Lambda_kap=2)}, "schedule.Lambda_kap"),
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
        "space_typo", "schedule_typo", "table_typo", "family_foreign_field", "operator_a_typo",
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
        ({"sigma_beta": 5}, "sigma_beta"),
        ({"beta": 0.5}, "beta"),
        ({"beta": ["abc"]}, "beta[0]"),
        ({"lambda": [0.5, None]}, "lambda[1]"),
    ],
    ids=["rate_table_number", "sequence_table_number", "sequence_entry_text",
         "sequence_entry_null"],
)
def test_table_schedule_field_that_is_not_a_list_of_numbers_is_config_error(
    tmp_path, capsys, overrides, field
):
    cfg = write_config(tmp_path / "table.json", schedule=table_schedule(**overrides))
    assert_config_error(capsys, cfg, field)


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
        (
            {"space": {"name": "star_tree"}, "family": {"name": "tree_contraction", "factor": 1.5},
             **TREE_POINTS},
            "'family'",
        ),
    ],
    ids=["space_dim_zero", "schedule_lambda_above_one", "family_factor_above_one"],
)
def test_value_a_constructor_refuses_names_its_object(tmp_path, capsys, overrides, field):
    assert_config_error(capsys, write_config(tmp_path / "refused.json", **overrides), field)
