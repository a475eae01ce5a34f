import json
import math
import warnings
from pathlib import Path

import pytest

from glpot import cli
from glpot.cli import main, parse_form_spec, parse_grid_spec
from glpot.errors import DomainError, ToleranceError
from glpot.experiments import _EXPERIMENTS, EXPERIMENT_NAMES, ExperimentConfig, format_value, run_experiment
from glpot.grand import v_functional
from glpot.norms import lp_norm_report
from glpot.potentials import apply_kernel_report, parse_kernel_spec

_QUAD_COMMANDS = [
    ["lpnorm", "--form", "g_delta:0", "--p", "2"],
    ["grand", "--form", "g_delta:0", "--psi", "const:a=1.2,b=1.8"],
    ["vfun", "--form", "g_delta:0", "--alpha", "0.5", "--p", "1.4"],
    ["potential", "--form", "indicator:0,1", "--kernel", "riesz:0.5", "--grid", "uniform:0:1:3"],
]


class TestSpecParsers:
    def test_form_specs(self):
        assert parse_form_spec("g_delta:0").kind == "g_delta"
        assert parse_form_spec("f_delta:0.5,1").alpha == 0.5
        assert parse_form_spec("indicator:0,1").interval == (0.0, 1.0)
        assert parse_form_spec("big_r:0.5,0,1").slow is not None
        with pytest.raises(DomainError):
            parse_form_spec("g_delta:0,1")
        with pytest.raises(DomainError):
            parse_form_spec("unknown:1")

    def test_grid_specs(self):
        g = parse_grid_spec("geometric:2.1:1000:8")
        assert len(g.points) == 8 and g.points[0] == pytest.approx(2.1)
        u = parse_grid_spec("uniform:0:1:5")
        assert u.points == (0.0, 0.25, 0.5, 0.75, 1.0)
        with pytest.raises(DomainError):
            parse_grid_spec("geometric:1:2")
        with pytest.raises(DomainError):
            parse_grid_spec("spiral:1:2:3")


class TestCliCommands:
    def test_usage_error_exit_code(self):
        assert main(["frobnicate"]) == 2

    def test_validation_error_exit_code(self):
        assert main(["lpnorm", "--form", "unknown:1", "--p", "2"]) == 2

    def test_numeric_error_exit_code(self):
        # divergent integral: f_delta at p = 2 with alpha = 1/2
        assert main(["lpnorm", "--form", "f_delta:0.5,0", "--p", "2"]) == 3

    def test_lpnorm_value(self, capsys):
        assert main(["lpnorm", "--form", "g_delta:0", "--p", "2"]) == 0
        out = capsys.readouterr().out
        assert "0.6065306" in out

    def test_transform_csv(self, capsys):
        code = main(
            [
                "transform",
                "--psi",
                "power:a=1,b=2,beta=1,gamma=1",
                "--kind",
                "riesz_zeta",
                "--alpha",
                "0.5",
                "--d",
                "1",
                "--qgrid",
                "geometric:2.1:1000:16",
            ]
        )
        assert code == 0
        lines = capsys.readouterr().out.strip().splitlines()
        assert lines[0] == "q,value"
        assert len(lines) == 17

    def test_transform_constant_weight_value(self, capsys):
        main(
            [
                "transform",
                "--psi",
                "const:a=1,b=2",
                "--kind",
                "riesz_zeta",
                "--alpha",
                "0.5",
                "--qgrid",
                "uniform:4:4.5:2",
            ]
        )
        first = capsys.readouterr().out.strip().splitlines()[1]
        q, value = first.split(",")
        assert float(q) == 4.0
        assert float(value) == pytest.approx(math.sqrt(8.0), rel=1e-12)

    def test_potential_csv(self, capsys):
        code = main(
            ["potential", "--form", "indicator:0,1", "--kernel", "riesz:0.5", "--grid", "uniform:0:1:3"]
        )
        assert code == 0
        rows = capsys.readouterr().out.strip().splitlines()
        x0 = rows[1].split(",")
        assert float(x0[1]) == pytest.approx(2.0, rel=1e-9)

    @pytest.mark.parametrize("flag", [["--abs-tol", "0.5"], ["--max-depth", "10"]])
    @pytest.mark.parametrize("command", _QUAD_COMMANDS, ids=lambda c: c[0])
    def test_removed_quadrature_flags_are_rejected(self, command, flag, capsys):
        assert main(command + flag) == 2
        assert main(command + ["--rel-tol", "1e-8"]) == 0

    def test_potential_writes_every_row_past_a_divergent_point(self, capsys):
        form, kernel = "f_delta:0.5,1", "bessel:0.5"
        code = main(["potential", "--form", form, "--kernel", kernel, "--grid", "uniform:-3:6:7"])
        out, err = capsys.readouterr()
        assert code == 3
        rows = [row.split(",") for row in out.strip().splitlines()[1:]]
        assert [float(x) for x, _, _ in rows] == [-3.0, -1.5, 0.0, 1.5, 3.0, 4.5, 6.0]
        f, k = parse_form_spec(form), parse_kernel_spec(kernel)
        for x, value, error in rows:
            if float(x) == 0.0:
                assert (value, error) == ("inf", "nan")  # f_delta(0.5,1) * bessel:0.5 diverges at 0
            else:
                want = apply_kernel_report(f, float(x), k)
                assert (value, error) == (format_value(want.value), format_value(want.error))
        assert err.count("numeric failure") == 1 and "x=0:" in err

    def test_potential_marks_an_unresolved_point_nan(self, capsys, monkeypatch, tmp_path):
        def fails_at_half(f, x, kernel, spec):
            if x == 0.5:
                raise ToleranceError("unresolved", achieved=1e-3)
            return apply_kernel_report(f, x, kernel, spec)

        monkeypatch.setattr(cli, "apply_kernel_report", fails_at_half)
        out = tmp_path / "u.csv"
        args = ["--form", "indicator:0,1", "--kernel", "riesz:0.5", "--grid", "uniform:0:1:3", "--out", str(out)]
        assert main(["potential", *args]) == 3
        rows = out.read_text().strip().splitlines()
        assert len(rows) == 4 and rows[2] == "0.5,nan,nan"
        assert "x=0.5:" in capsys.readouterr().err

    def test_grand_report(self, capsys):
        code = main(["grand", "--form", "g_delta:0", "--psi", "const:a=1.2,b=1.8"])
        assert code == 0
        assert "value=" in capsys.readouterr().out

    def test_grand_report_survives_inaccurate_points(self, capsys, far_rows_unresolved):
        # pytest's capture hides warnings from stderr, so they are recorded instead
        with warnings.catch_warnings(record=True) as caught:
            warnings.simplefilter("always")
            code = main(["grand", "--form", "g_delta:1", "--psi", "power:a=1,b=2,beta=1,gamma=1"])
        out, err = capsys.readouterr()
        assert code == 0
        assert "inaccurate_points=" in out and "inaccurate_points=0" not in out
        assert caught == [] and err == ""

    def test_lpnorm_keeps_quadpack_warnings_quiet(self, capsys):
        # QUADPACK warns of roundoff here; lp_norm's own error check accepts the point
        with warnings.catch_warnings(record=True) as caught:
            warnings.simplefilter("always")
            code = main(["lpnorm", "--form", "g_delta:1", "--p", "1.0000000074505806"])
        out, err = capsys.readouterr()
        assert code == 0 and "g_delta(1),1.0000000074505806," in out
        assert caught == [] and err == ""

    def test_vfun(self, capsys):
        code = main(["vfun", "--form", "g_delta:0", "--alpha", "0.5", "--p", "1.4"])
        assert code == 0
        rows = capsys.readouterr().out.strip().splitlines()
        assert rows[0] == "form,p,q,V"
        assert float(rows[1].split(",")[3]) > 0.0

    def test_lpnorm_writes_every_row_past_a_divergent_exponent(self, capsys):
        code = main(["lpnorm", "--form", "f_delta:0.5,0", "--p", "1.5", "--p", "2", "--p", "1.2"])
        out, err = capsys.readouterr()
        assert code == 3
        rows = [row.rsplit(",", 3) for row in out.strip().splitlines()[1:]]  # the label holds a comma
        f = parse_form_spec("f_delta:0.5,0")
        assert rows[1] == ["f_delta(0.5,0)", "2", "inf", "nan"]
        for p, row in ((1.5, rows[0]), (1.2, rows[2])):
            want = lp_norm_report(f, p)
            assert row == [f.label, format_value(p), format_value(want.value), format_value(want.rel_error)]
        assert err.count("numeric failure") == 1 and "p=2:" in err

    def test_lpnorm_marks_an_inaccurate_exponent_nan(self, capsys, monkeypatch):
        def fails_at_two(f, p, spec):
            if p == 2.0:
                raise ToleranceError("too inaccurate", achieved=1e-3)
            return lp_norm_report(f, p, spec)

        monkeypatch.setattr(cli, "lp_norm_report", fails_at_two)
        assert main(["lpnorm", "--form", "g_delta:0", "--p", "3", "--p", "2"]) == 3
        out, err = capsys.readouterr()
        assert out.strip().splitlines()[2] == "g_delta(0),2,nan,nan" and "p=2:" in err

    def test_vfun_writes_every_row_past_a_failed_exponent(self, capsys):
        # the table reports a false divergence at p = 1.000001; the rows around it keep their values
        code = main(["vfun", "--form", "g_delta:0", "--alpha", "0.5", "--p", "1.4", "--p", "1.000001", "--p", "1.2"])
        out, err = capsys.readouterr()
        assert code == 3
        rows = [row.split(",") for row in out.strip().splitlines()[1:]]
        assert [float(row[1]) for row in rows] == [1.4, 1.000001, 1.2]
        assert rows[1][3] == "inf"
        f = parse_form_spec("g_delta:0")
        for p, row in ((1.4, rows[0]), (1.2, rows[2])):
            assert float(row[3]) == pytest.approx(v_functional(f, p, 0.5), rel=1e-12)
        assert err.count("numeric failure") == 1 and "appears divergent" in err

    def test_catalog(self, capsys):
        assert main(["catalog"]) == 0
        assert "g_delta" in capsys.readouterr().out

    @pytest.mark.parametrize(
        "argv",
        [
            ["potential", "--form", "g_delta:1", "--kernel", "riesz:0.5", "--grid", "geometric:a:2:5"],
            ["potential", "--form", "g_delta:1", "--kernel", "riesz:0.5", "--grid", "uniform:0:2:2.5"],
            ["transform", "--psi", "power:a=1,b=2,beta=1,gamma=1", "--kind", "derivative_zeta", "--xi", "a",
             "--qgrid", "geometric:2.1:1000:4"],
            *(["lpnorm", "--form", form, "--p", "2"] for form in ("g_delta:nan", "example3:0.5,nan", "big_r:0.5,1,nan")),
        ],
        ids=["grid-bound", "grid-count", "xi", "g_delta-nan", "example3-nan", "kappa-nan"],
    )
    def test_malformed_argument_is_a_validation_error(self, argv, capsys):
        assert main(argv) == 2
        assert "validation error" in capsys.readouterr().err

    @pytest.mark.parametrize(
        "kind, flags, unread",
        [
            ("riesz_zeta", ["--xi", "5,5", "--kappa", "7", "--beta", "3"], "--beta, --kappa, --xi"),
            ("singular_psi1", ["--xi", "1"], "--xi"),
            ("derivative_zeta", ["--beta", "1"], "--beta"),
            ("zeta_S", ["--xi", "0"], "--xi"),
        ],
    )
    def test_transform_flag_its_kind_does_not_read(self, kind, flags, unread, capsys):
        argv = ["transform", "--psi", "power:a=1,b=2,beta=1,gamma=1", "--kind", kind, "--qgrid", "uniform:1.2:1.8:3"]
        assert main(argv + flags) == 2
        assert f"validation error: --kind {kind} does not read {unread}\n" == capsys.readouterr().err

    def test_transform_flags_stated_at_their_defaults(self, capsys):
        argv = ["transform", "--psi", "power:a=1,b=2,beta=1,gamma=1", "--kind", "zeta_S", "--qgrid", "uniform:2.2:3:3"]
        assert main(argv) == 0
        bare = capsys.readouterr().out
        assert main(argv + ["--beta", "0", "--kappa", "0"]) == 0
        assert capsys.readouterr().out == bare
        assert main(argv + ["--kappa", "1"]) == 0
        assert capsys.readouterr().out != bare


class TestVerify:
    def test_e8_files_and_exit(self, tmp_path, capsys):
        code = main(["verify", "E8_bessel_sanity", "--out", str(tmp_path)])
        assert code == 0
        assert "E8_bessel_sanity: PASS" in capsys.readouterr().out
        for suffix in (".csv", ".summary.txt", ".plot"):
            assert (tmp_path / f"E8_bessel_sanity{suffix}").exists()
        summary = (tmp_path / "E8_bessel_sanity.summary.txt").read_text()
        assert "PASS=true" in summary

    def test_config_round_trip(self, tmp_path):
        cfg_path = tmp_path / "e5.json"
        cfg_path.write_text(json.dumps({"name": "E5_orlicz_growth_eq37", "gamma": 1.0}))
        code = main(["verify", "E5_orlicz_growth_eq37", "--config", str(cfg_path), "--out", str(tmp_path)])
        assert code == 0
        assert (tmp_path / "E5_orlicz_growth_eq37.csv").exists()

    def test_unknown_config_key_rejected(self, tmp_path):
        cfg_path = tmp_path / "bad.json"
        cfg_path.write_text(json.dumps({"name": "E5_orlicz_growth_eq37", "typo_key": 1}))
        assert main(["verify", "E5_orlicz_growth_eq37", "--config", str(cfg_path)]) == 2

    @pytest.mark.parametrize("key,value", [("abs_tol", 0.5), ("max_depth", 10)])
    def test_removed_quadrature_keys_rejected(self, tmp_path, key, value):
        cfg_path = tmp_path / "old.json"
        cfg_path.write_text(json.dumps({"name": "E2_lower_p_to_1", key: value}))
        assert main(["verify", "E2_lower_p_to_1", "--config", str(cfg_path), "--out", str(tmp_path)]) == 2
        with pytest.raises(DomainError):
            ExperimentConfig.from_dict({"name": "E2_lower_p_to_1", key: value})

    @pytest.mark.parametrize(
        "config",
        [
            {"name": "E1_upper_thm1", "alpha": "x"},
            {"name": "E1_upper_thm1", "offsets": 5},
            {"name": "E6_maximal_domination", "grid_points": -4},
            {"name": "E1_upper_thm1", "offsets": []},
            {"name": "E4_truncated_thm6", "r_values": []},
            {"name": "E2_lower_p_to_1", "deltas": []},
            {"name": "E8_bessel_sanity", "grid_points": 0},
        ],
        ids=["alpha", "offsets", "grid_points", "empty_offsets", "empty_r_values", "empty_deltas", "zero_grid_points"],
    )
    def test_malformed_config_value_is_a_validation_error(self, tmp_path, capsys, config):
        cfg_path = tmp_path / "bad.json"
        cfg_path.write_text(json.dumps(config))
        assert main(["verify", config["name"], "--config", str(cfg_path), "--out", str(tmp_path)]) == 2
        assert "validation error" in capsys.readouterr().err

    @pytest.mark.parametrize("name", EXPERIMENT_NAMES)
    def test_stating_every_default_moves_no_byte(self, tmp_path, name):
        cfg_path = tmp_path / "defaults.json"
        cfg_path.write_text(json.dumps({"name": name, **_EXPERIMENTS[name][1]}))
        bare, stated = tmp_path / "bare", tmp_path / "stated"
        assert main(["verify", name, "--out", str(bare)]) == 0
        assert main(["verify", name, "--config", str(cfg_path), "--out", str(stated)]) == 0
        for suffix in (".csv", ".summary.txt", ".plot"):
            assert (stated / f"{name}{suffix}").read_bytes() == (bare / f"{name}{suffix}").read_bytes()

    @pytest.mark.parametrize(
        "config",
        [
            {"name": "E1_upper_thm1", "rel_tol": 1e-30},
            {"name": "E5_orlicz_growth_eq37", "rel_tol": -1},
            {"name": "E7_logkernel_lemma2", "rel_tol": 0},
        ],
        ids=["unread_E1", "unread_E5", "zero_E7"],
    )
    def test_rel_tol_is_refused_before_a_run(self, tmp_path, capsys, config):
        # rel_tol is a key of E2, E3 and E7 only, and must be positive: no run starts, no .partial is left
        cfg_path = tmp_path / "bad.json"
        cfg_path.write_text(json.dumps(config))
        assert main(["verify", config["name"], "--config", str(cfg_path), "--out", str(tmp_path)]) == 2
        assert "validation error" in capsys.readouterr().err
        assert not list(tmp_path.glob("*.partial"))

    def test_config_name_mismatch(self, tmp_path):
        cfg_path = tmp_path / "e5.json"
        cfg_path.write_text(json.dumps({"name": "E5_orlicz_growth_eq37"}))
        assert main(["verify", "E4_truncated_thm6", "--config", str(cfg_path)]) == 2

    def test_determinism_byte_identical(self, tmp_path):
        out1, out2 = tmp_path / "run1", tmp_path / "run2"
        for out in (out1, out2):
            assert main(["verify", "E5_orlicz_growth_eq37", "--out", str(out)]) == 0
        a = (out1 / "E5_orlicz_growth_eq37.csv").read_bytes()
        b = (out2 / "E5_orlicz_growth_eq37.csv").read_bytes()
        assert a == b


class TestExperimentConfig:
    def test_defaults(self):
        cfg = ExperimentConfig(name="E7_logkernel_lemma2")
        assert cfg.quad.rel_tol == 1e-8

    def test_from_dict_strict(self):
        with pytest.raises(DomainError):
            ExperimentConfig.from_dict({"name": "E8_bessel_sanity", "alpha": 0.5})
        with pytest.raises(DomainError):
            ExperimentConfig(name="E8_bessel_sanity", alpha=0.5)
        cfg = ExperimentConfig.from_dict({"name": "E6_maximal_domination", "alpha": 0.4, "seed": 3})
        assert cfg.alpha == 0.4 and cfg.seed == 3
        with pytest.raises(DomainError):
            ExperimentConfig.from_dict({"alpha": 0.5})
        with pytest.raises(DomainError):
            ExperimentConfig.from_dict({"name": "E99"})

    def test_partial_marker_on_numeric_failure(self, tmp_path):
        # force a numeric failure through an out-of-range gamma for f_zero
        cfg = ExperimentConfig(name="E4_truncated_thm6", gamma=0.1, output_dir=str(tmp_path))
        with pytest.raises(Exception):
            run_experiment(cfg)
        assert (tmp_path / "E4_truncated_thm6.partial").exists()

    def test_e6_writes_lowercase_booleans(self, tmp_path):
        # E6's domination flags come out of numpy comparisons (numpy.bool_)
        cfg = ExperimentConfig(name="E6_maximal_domination", grid_points=8, output_dir=str(tmp_path))
        run_experiment(cfg)
        summary = (tmp_path / "E6_maximal_domination.summary.txt").read_text().splitlines()
        assert summary[0] == "PASS=true"
        rows = (tmp_path / "E6_maximal_domination.csv").read_text().splitlines()[1:]
        assert rows and {row.rsplit(",", 1)[1] for row in rows} == {"true"}
