import dataclasses
import glob
import hashlib
import json
import math
import os
import subprocess
import sys
from importlib import resources
from pathlib import Path

import numpy as np
import pytest

from usdlab.cli import build_parser, main
from usdlab.dictionary import Dictionary, SubspaceCollection
from usdlab.discretization import (RatioOptions, expected_sup_estimate,
                                   find_usd_points)
from usdlab.errors import ConfigError
from usdlab.experiments import (KINDS, _t_quantile_975, fit_rate,
                                random_l1_ball_elements, read_csv, resummarize, run,
                                validate_config, write_csv)

CONFIG_DIR = os.path.join(os.path.dirname(__file__), os.pardir, "configs")


# slope and intercept of the hand series below, as the least-squares fit
# gave them when the t-quantile came from scipy; the quantile touches only
# half_width, so these bits must not move
def test_fit_rate_exact_power_law():
    pts = [(x, x ** -0.5) for x in (2.0, 4.0, 8.0, 16.0)]
    fit = fit_rate(pts)
    assert fit.slope == pytest.approx(-0.5, abs=1e-12)
    assert fit.residual_rms == pytest.approx(0.0, abs=1e-12)
    assert (fit.slope, fit.intercept) == (-0.5000000000000001, 5.334085827731805e-16)


def test_fit_rate_constant_series():
    fit = fit_rate([(2.0, 3.0), (4.0, 3.0), (8.0, 3.0)])
    assert fit.slope == pytest.approx(0.0, abs=1e-12)
    assert (fit.slope, fit.intercept) == (-7.05599405660416e-17, 1.5849625007211559)


def test_fit_rate_noisy_power_law():
    rng = np.random.default_rng(0)
    xs = 2.0 ** np.arange(3, 14)
    ys = 4.0 * xs ** -0.75 * (1.0 + 0.01 * rng.standard_normal(len(xs)))
    fit = fit_rate(list(zip(xs, ys)))
    assert fit.slope == pytest.approx(-0.75, abs=0.05)
    assert fit.half_width > 0
    assert (fit.slope, fit.intercept) == (-0.7511600801670791, 2.0095347782835704)
    assert fit.half_width == pytest.approx(0.0023730814437832523, rel=1e-13)


def test_t_quantile_agrees_with_scipy():
    from scipy.special import stdtrit  # the package itself never imports scipy
    nus = np.arange(1, 1001)
    ours = np.array([_t_quantile_975(int(nu)) for nu in nus])
    np.testing.assert_allclose(ours, stdtrit(nus, 0.975),
                               rtol=1e-13, atol=0)
    assert np.all(np.diff(ours) < 0)  # heavier tails at fewer degrees of freedom


def test_t_quantile_at_one_degree_of_freedom_is_the_cauchy_quantile():
    # t_1 is Cauchy, whose 0.975 quantile is tan(0.475 pi)
    exact = math.tan(0.475 * math.pi)
    assert abs(_t_quantile_975(1) - exact) <= 2 * math.ulp(exact)


def test_fit_rate_input_validation():
    with pytest.raises(ValueError):
        fit_rate([(1.0, 1.0), (2.0, 0.5)])
    with pytest.raises(ValueError):
        fit_rate([(1.0, 1.0), (2.0, -0.5), (4.0, 0.2)])


def test_validate_config_reports_field_paths():
    with pytest.raises(ConfigError) as exc:
        validate_config({"kind": "er_rate", "seed": 1, "out": "x",
                         "params": {"m_sweep": [], "mc_trials": 4,
                                    "n_functions": 2, "p": 2}})
    assert "m_sweep" in str(exc.value)
    with pytest.raises(ConfigError):
        validate_config({"kind": "er_rate", "out": "x", "params": {}, "seed": -1})
    with pytest.raises(ConfigError) as exc2:
        validate_config({"kind": "nope", "seed": 1, "out": "x", "params": {}})
    assert "kind" in str(exc2.value)


def test_validate_config_rejects_nonmonotone_sweep():
    with pytest.raises(ConfigError):
        validate_config({"kind": "er_rate", "seed": 1, "out": "x",
                         "params": {"m_sweep": [16, 8], "mc_trials": 4,
                                    "n_functions": 2, "p": 2}})


@pytest.mark.parametrize("key,value", [("p", math.nan), ("epsilon", math.nan),
                                       ("p", math.inf)])
def test_non_finite_numbers_are_config_errors(tmp_path, key, value):
    cfg = {"kind": "usd_verify", "seed": 1, "out": str(tmp_path / "v"),
           "params": {"max_abs_freq": 2, "v": 2, "p": 2, "epsilon": 0.5,
                      "points": {"equispaced": 16}}}
    cfg["params"][key] = value
    for call in (validate_config, run):
        with pytest.raises(ConfigError) as exc:
            call(cfg)
        assert exc.value.path == f"params.{key}"
        assert "finite" in str(exc.value)
    assert not os.path.exists(cfg["out"])


def er_config(out, seed=5):
    return {
        "kind": "er_rate", "seed": seed, "out": str(out),
        "params": {"max_abs_freq": 4, "n_functions": 4, "p": 2,
                   "m_sweep": [16, 32, 64, 128], "mc_trials": 8},
        "assertions": {"slope_range": [-1.2, 0.2]},
    }


def test_er_rate_run_and_byte_identical_outputs(tmp_path):
    out1, out2 = tmp_path / "a", tmp_path / "b"
    r1 = run(er_config(out1))
    r2 = run(er_config(out2))
    assert r1.passed
    csv1 = Path(r1.csv_path).read_bytes()
    csv2 = Path(r2.csv_path).read_bytes()
    assert csv1 == csv2
    s1 = json.loads(Path(r1.summary_path).read_text())
    s2 = json.loads(Path(r2.summary_path).read_text())
    assert s1 == s2
    r3 = run(er_config(tmp_path / "c", seed=6))
    assert Path(r3.csv_path).read_bytes() != csv1


def test_resummarize_reproduces_verdict(tmp_path):
    cfg = er_config(tmp_path / "er")
    outcome = run(cfg)
    again = resummarize(outcome.csv_path, cfg)
    assert again["passed"] == outcome.summary["passed"]
    assert again["results"] == outcome.summary["results"]
    assert again["assertions"] == outcome.summary["assertions"]


def test_usd_verify_equispaced_exact(tmp_path):
    cfg = {
        "kind": "usd_verify", "seed": 1, "out": str(tmp_path / "v"),
        "params": {"max_abs_freq": 4, "v": 9, "p": 2,
                   "points": {"equispaced": 32}},
        "assertions": {"must_pass": True, "max_ratio_deviation": 1e-10},
    }
    outcome = run(cfg)
    assert outcome.passed
    assert outcome.summary["results"]["one_sided_constant"] == pytest.approx(1.0, abs=1e-9)
    assert os.path.exists(os.path.join(cfg["out"], "certificate.json"))


def test_usd_search_writes_certificate(tmp_path):
    cfg = {
        "kind": "usd_search", "seed": 3, "out": str(tmp_path / "s"),
        "params": {"max_abs_freq": 2, "v": 2, "p": 2, "m": 96,
                   "max_trials": 10},
    }
    outcome = run(cfg)
    assert outcome.passed
    assert outcome.summary["results"]["found"]
    cert = json.loads(Path(cfg["out"], "certificate.json").read_text())
    assert cert["passed"]
    assert len(cert["min_ratios"]) == 10  # C(5, 2) subsets


def test_usd_search_rows_are_the_draws_of_find_usd_points(tmp_path):
    cfg = {
        "kind": "usd_search", "seed": 5, "out": str(tmp_path / "s"),
        "params": {"max_abs_freq": 2, "v": 2, "p": 2, "m": 10,
                   "max_trials": 6},
    }
    run(cfg)
    coll = SubspaceCollection.all_subsets(Dictionary.exponential_band(-2, 2), 2)
    res = find_usd_points(coll, 2.0, 10, 6, rng_seed=5, opts=RatioOptions(seed=5))
    assert len(res.draws) == res.trials_run == 3
    _, rows = read_csv(os.path.join(cfg["out"], "usd_search.csv"))
    assert rows == [(i, c.passed, min(c.min_ratios), max(c.max_ratios),
                     c.worst_violation()) for i, c in enumerate(res.draws)]


def test_usd_search_records_the_rigorous_verdict_at_even_p(tmp_path):
    cfg = {
        "kind": "usd_search", "seed": 5, "out": str(tmp_path / "s"),
        "params": {"max_abs_freq": 1, "v": 2, "p": 4, "m": 48,
                   "max_trials": 4, "opts": {"starts": 3, "max_iters": 40}},
    }
    outcome = run(cfg, strict=True)
    header, rows = read_csv(os.path.join(cfg["out"], "usd_search.csv"))
    assert header[-1] == "rigorous_pass"
    cert = json.loads(Path(cfg["out"], "certificate.json").read_text())
    results = outcome.summary["results"]
    assert results["found"] and results["rigorous_pass"] is cert["rigorous_pass"]
    assert outcome.passed is cert["rigorous_pass"]
    assert resummarize(outcome.csv_path, cfg, strict=True) == outcome.summary


def test_entropy_profile_kind(tmp_path):
    cfg = {
        "kind": "entropy_profile", "seed": 2, "out": str(tmp_path / "e"),
        "params": {"band": [-8, 8], "n_representatives": 128,
                   "grid_level": 7, "n_max": 8, "fit_window": [2, 6]},
    }
    outcome = run(cfg)
    header, rows = read_csv(outcome.csv_path)
    assert header == ["n", "eps_n"]
    assert len(rows) == 9
    eps = [r[1] for r in rows]
    assert all(b <= a + 1e-12 for a, b in zip(eps, eps[1:]))
    assert outcome.summary["results"]["fit"] is not None


def test_recovery_rate_kind(tmp_path):
    cfg = {
        "kind": "recovery_rate", "seed": 4, "out": str(tmp_path / "r"),
        "params": {"a_values": [1.0], "b": 0.0, "max_level": 12,
                   "support_cap": 128, "n_sweep": [2, 3, 4, 5]},
        "assertions": {"slope_tolerance": 0.6},
    }
    outcome = run(cfg)
    fits = outcome.summary["results"]["per_a"]
    assert fits[0]["target_slope"] == -1.5
    assert fits[0]["fit"] is not None


def test_chaining_compare_kind(tmp_path):
    cfg = {
        "kind": "chaining_compare", "seed": 9, "out": str(tmp_path / "c"),
        "params": {"band": [-4, 4], "n_functions": 4, "p": 2,
                   "m_sweep": [16, 64], "mc_trials": 6,
                   "n_representatives": 64, "grid_level": 7, "n_max": 8},
    }
    outcome = run(cfg)
    assert outcome.passed  # no default assertion; constants only reported
    assert len(outcome.summary["results"]["implied_constants"]) == 2


def test_chaining_compare_trials_use_the_grid_level(tmp_path):
    # off p = 2 the trials take continuous norms on the grid_level grid, as
    # er_rate's do; they used to run at the default level 10 regardless
    cfg = {
        "kind": "chaining_compare", "seed": 21, "out": str(tmp_path / "c"),
        "params": {"band": [-2, 2], "n_functions": 3, "p": 3,
                   "m_sweep": [8, 32], "mc_trials": 4,
                   "n_representatives": 16, "grid_level": 4, "n_max": 3},
    }
    rows = run(cfg).rows
    functions = random_l1_ball_elements(Dictionary.exponential_band(-2, 2), 3, 22)
    for i, (m, mean, stderr, _) in enumerate(rows):
        expect = expected_sup_estimate(functions, 3, m, 4, rng_seed=[21, i], grid_level=4)
        assert (mean, stderr) == expect
        assert mean != expected_sup_estimate(functions, 3, m, 4, rng_seed=[21, i])[0]


def test_fit_kind_consumes_other_csv(tmp_path):
    src = tmp_path / "data.csv"
    write_csv(src, ["m", "trial", "error"],
              [(m, t, 3.0 * m ** -0.5) for m in (8, 16, 32, 64) for t in range(2)])
    cfg = {
        "kind": "fit", "seed": 0, "out": str(tmp_path / "f"),
        "params": {"input_csv": str(src), "x_column": "m",
                   "y_column": "error", "aggregate": "mean_by_x"},
        "assertions": {"slope_range": [-0.55, -0.45]},
    }
    outcome = run(cfg)
    assert outcome.passed
    assert outcome.summary["results"]["fit"]["slope"] == pytest.approx(-0.5, abs=1e-10)


def test_threads_do_not_change_results(tmp_path):
    cfg1 = er_config(tmp_path / "t1")
    cfg2 = er_config(tmp_path / "t2")
    cfg2["threads"] = 4
    r1, r2 = run(cfg1), run(cfg2)
    assert Path(r1.csv_path).read_text() == Path(r2.csv_path).read_text()


def test_usd_verify_bytes_do_not_depend_on_threads(tmp_path):
    path = os.path.join(CONFIG_DIR, "usd_verify_equispaced.json")
    written = []
    for threads in ("1", "4"):
        out = tmp_path / threads
        assert main(["usd-verify", "--config", path, "--out", str(out),
                     "--threads", threads]) == 0
        written.append({entry.name: entry.read_bytes() for entry in out.iterdir()})
    assert written[0] == written[1]
    assert sorted(written[0]) == ["certificate.json", "points.json", "summary.json",
                                  "usd_verify.csv"]


def test_svg_emission(tmp_path):
    cfg = er_config(tmp_path / "svg")
    cfg["svg"] = True
    run(cfg)
    svg_path = os.path.join(cfg["out"], "er_rate.svg")
    text = Path(svg_path).read_text()
    assert text.startswith("<svg") and "polyline" in text


def write_config(tmp_path, cfg, name="cfg.json"):
    path = tmp_path / name
    path.write_text(json.dumps(cfg))
    return str(path)


def test_cli_exit_code_zero_and_one(tmp_path):
    ok_cfg = write_config(tmp_path, er_config(tmp_path / "ok"))
    assert main(["er-rate", "--config", ok_cfg]) == 0
    bad = er_config(tmp_path / "bad")
    bad["assertions"] = {"slope_range": [5.0, 6.0]}  # impossible slope
    bad_cfg = write_config(tmp_path, bad, "bad.json")
    assert main(["er-rate", "--config", bad_cfg]) == 1


def test_cli_exit_code_config_error(tmp_path, monkeypatch, capsys):
    cfg = er_config(tmp_path / "x")
    cfg["params"]["m_sweep"] = []
    path = write_config(tmp_path, cfg)
    assert main(["er-rate", "--config", path]) == 2
    # kind mismatch between subcommand and config
    ok = write_config(tmp_path, er_config(tmp_path / "y"), "ok.json")
    assert main(["fit", "--config", ok]) == 2
    # a thread count from the environment that is not an integer
    for text in ("abc", "2.5"):
        monkeypatch.setenv("USDLAB_THREADS", text)
        assert main(["er-rate", "--config", ok]) == 2
        assert "USDLAB_THREADS: expected an integer" in capsys.readouterr().err


def test_cli_exit_code_cap_exceeded(tmp_path):
    cfg = {
        "kind": "usd_verify", "seed": 1, "out": str(tmp_path / "cap"),
        "params": {"max_abs_freq": 12, "v": 8, "p": 2,
                   "points": {"equispaced": 64}},
    }
    path = write_config(tmp_path, cfg)
    assert main(["usd-verify", "--config", path]) == 3


def test_cli_exit_code_lifted_gram_cap_exceeded(tmp_path):
    # p = 4 over one subset holding the whole band [-200, 200]: 401 pair sums
    # of 160 801 pairs, a complex scatter of about 2 GB
    cfg = {
        "kind": "usd_verify", "seed": 1, "out": str(tmp_path / "lift"),
        "params": {"band": [-200, 200], "subsets": [list(range(401))], "p": 4,
                   "points": {"equispaced": 16}},
    }
    path = write_config(tmp_path, cfg)
    assert main(["usd-verify", "--config", path]) == 3


def test_cli_strict_flags_heuristic_certificates(tmp_path):
    # p = 3 has no lifted outer window, so its certificate stays heuristic
    cfg = {
        "kind": "usd_verify", "seed": 1, "out": str(tmp_path / "strict"),
        "params": {"max_abs_freq": 1, "v": 1, "p": 3,
                   "points": {"equispaced": 16},
                   "opts": {"starts": 4, "max_iters": 60}},
    }
    path = write_config(tmp_path, cfg)
    assert main(["usd-verify", "--config", path]) == 0
    assert main(["usd-verify", "--config", path, "--strict"]) == 1


@pytest.mark.parametrize("m, rigorous", [(64, True), (8, False)])
def test_cli_strict_accepts_a_rigorous_even_p_certificate(tmp_path, m, rigorous):
    # span{e^{-2ix}, e^{2ix}} at p = 4 lifts to the sumset {-4, 0, 4}; on
    # these 8 nodes its multistart window passes but its outer window does not
    out = tmp_path / "strict"
    cfg = {
        "kind": "usd_verify", "seed": 1, "out": str(out),
        "params": {"max_abs_freq": 2, "p": 4, "subsets": [[0, 4]],
                   "points": {"seeded": {"m": m, "seed": 1}},
                   "opts": {"starts": 4, "max_iters": 60}},
    }
    path = write_config(tmp_path, cfg)
    assert main(["usd-verify", "--config", path]) == 0
    assert main(["usd-verify", "--config", path, "--strict"]) == (0 if rigorous else 1)
    summary = json.loads((out / "summary.json").read_text())
    cert = json.loads((out / "certificate.json").read_text())
    results = summary["results"]
    assert results["rigorous_pass"] is cert["rigorous_pass"] is rigorous
    assert results["outer_min_ratios"] == cert["outer_min_ratios"]
    assert results["outer_max_ratios"] == cert["outer_max_ratios"]
    assert cert["outer_min_ratios"][0] <= cert["min_ratios"][0]
    assert cert["max_ratios"][0] <= cert["outer_max_ratios"][0]
    assert resummarize(out / "usd_verify.csv", cfg, strict=True) == summary


def test_cli_seed_and_out_overrides(tmp_path):
    cfg = er_config(tmp_path / "base", seed=5)
    path = write_config(tmp_path, cfg)
    other = tmp_path / "override"
    assert main(["er-rate", "--config", path, "--seed", "6",
                 "--out", str(other)]) == 0
    summary = json.loads((other / "summary.json").read_text())
    assert summary["seed"] == 6


def test_cli_flags_do_not_carry_into_the_next_call(tmp_path, monkeypatch):
    # the parser is built once per process; each call's flags are its own
    from usdlab import cli
    monkeypatch.delenv("USDLAB_THREADS", raising=False)
    calls = []
    real_run = cli.run
    monkeypatch.setattr(cli, "run", lambda config, strict: calls.append(
        (config, strict)) or real_run(config, strict=strict))
    verify = write_config(tmp_path, {
        "kind": "usd_verify", "seed": 1, "out": str(tmp_path / "verify"),
        "params": {"max_abs_freq": 2, "v": 1, "p": 2, "points": {"equispaced": 8}}},
        "verify.json")
    er = write_config(tmp_path, er_config(tmp_path / "er", seed=5), "er.json")
    assert main(["usd-verify", "--config", verify, "--strict", "--seed", "3",
                 "--out", str(tmp_path / "first"), "--threads", "2"]) == 0
    assert main(["er-rate", "--config", er]) == 0
    assert build_parser() is build_parser()
    (first, first_strict), (second, second_strict) = calls
    assert (first.kind, first.seed, first.out, first.threads, first_strict) == (
        "usd_verify", 3, str(tmp_path / "first"), 2, True)
    assert (second.kind, second.seed, second.out, second.threads, second_strict) == (
        "er_rate", 5, str(tmp_path / "er"), 1, False)
    assert json.loads((tmp_path / "er" / "summary.json").read_text())["seed"] == 5


def test_module_invocation_smoke(tmp_path):
    cfg = write_config(tmp_path, er_config(tmp_path / "m"))
    proc = subprocess.run([sys.executable, "-m", "usdlab", "er-rate",
                           "--config", cfg], capture_output=True, text=True)
    assert proc.returncode == 0
    assert "PASS" in proc.stdout


@pytest.mark.parametrize("key", ["bogus", "grad_tol", "backtracks", "grid_level"])
def test_unknown_opts_keys_rejected(tmp_path, key):
    cfg = {
        "kind": "usd_verify", "seed": 1, "out": str(tmp_path / "o"),
        "params": {"max_abs_freq": 2, "v": 2, "p": 2,
                   "points": {"equispaced": 16},
                   "opts": {"starts": 4, key: 1}},
    }
    with pytest.raises(ConfigError) as exc:
        validate_config(cfg)
    assert exc.value.path == "params.opts"
    path = tmp_path / "c.json"
    path.write_text(json.dumps(cfg))
    assert main(["usd-verify", "--config", str(path)]) == 2


def test_schema_opts_are_the_ratio_options_but_the_seed():
    # the seed comes from the config's top-level seed
    schema = json.loads(resources.files("usdlab").joinpath("config_schema.json").read_text())
    fields = {f.name for f in dataclasses.fields(RatioOptions)}
    assert set(schema["$defs"]["opts"]["properties"]) == fields - {"seed"}


def test_fit_kind_missing_inputs_are_config_errors(tmp_path):
    cfg = {
        "kind": "fit", "seed": 0, "out": str(tmp_path / "f"),
        "params": {"input_csv": str(tmp_path / "absent.csv"),
                   "x_column": "m", "y_column": "error"},
    }
    path = tmp_path / "c.json"
    path.write_text(json.dumps(cfg))
    assert main(["fit", "--config", str(path)]) == 2
    src = tmp_path / "data.csv"
    write_csv(src, ["m", "error"], [(8, 1.0), (16, 0.5)])
    cfg["params"]["input_csv"] = str(src)
    cfg["params"]["x_column"] = "nope"
    path.write_text(json.dumps(cfg))
    assert main(["fit", "--config", str(path)]) == 2
    cfg["params"]["x_column"] = "m"
    path.write_text(json.dumps(cfg))
    # an empty file has no header row, a data row shorter than the header is
    # named, and a non-numeric cell fails its column
    for text, where in [("", "params.input_csv"),
                        ("m,error\n8,1\n16\n", "params.input_csv"),
                        ("m,error\n8,1.0\n16,abc\n", "params.y_column"),
                        ("m,error\n8,1.0\n,0.5\n", "params.x_column")]:
        src.write_text(text)
        with pytest.raises(ConfigError) as exc:
            run(validate_config(cfg))
        assert exc.value.path == where
        assert main(["fit", "--config", str(path)]) == 2
    src.write_text("m,error\n8,1\n16\n")
    with pytest.raises(ConfigError, match=r"line 3 of .* has 1 of the header's 2 fields: \[16\]"):
        run(validate_config(cfg))


def test_malformed_points_files_are_config_errors(tmp_path):
    points = tmp_path / "points.json"
    cfg = {
        "kind": "usd_verify", "seed": 1, "out": str(tmp_path / "v"),
        "params": {"max_abs_freq": 1, "v": 1, "p": 2,
                   "points": {"file": str(points)}},
    }
    path = write_config(tmp_path, cfg)
    # no "points" key, and a bare list where an object is expected
    for obj in [{"provenance": {"kind": "explicit"}}, [[0.1], [0.2]]]:
        points.write_text(json.dumps(obj))
        with pytest.raises(ConfigError) as exc:
            run(validate_config(cfg))
        assert exc.value.path == "params.points.file"
        assert main(["usd-verify", "--config", path]) == 2


def test_usd_verify_with_explicit_subsets(tmp_path):
    cfg = {
        "kind": "usd_verify", "seed": 2, "out": str(tmp_path / "subsets"),
        "params": {"max_abs_freq": 3, "p": 2, "v": 2,
                   "subsets": [[0, 6], [1, 5], [2, 4]],
                   "points": {"seeded": {"m": 128}}},
    }
    path = tmp_path / "c.json"
    path.write_text(json.dumps(cfg))
    assert main(["usd-verify", "--config", str(path)]) == 0
    header, rows = read_csv(tmp_path / "subsets" / "usd_verify.csv")
    assert len(rows) == 3
    assert rows[0][1] == "0|6"


def shipped_schema():
    text = resources.files("usdlab").joinpath("config_schema.json").read_text()
    return json.loads(text)


def test_config_schema_is_a_valid_draft_2020_12_schema():
    import jsonschema
    jsonschema.Draft202012Validator.check_schema(shipped_schema())


def test_kind_enum_schema_blocks_table_and_subcommands_agree():
    schema = shipped_schema()
    enum = set(schema["properties"]["kind"]["enum"])
    blocks = {b["if"]["properties"]["kind"]["const"] for b in schema["allOf"]}
    subparsers = next(a for a in build_parser()._actions
                      if a.dest == "command").choices
    cli_kinds = {sp.get_default("kind") for sp in subparsers.values()}
    assert enum == blocks == set(KINDS) == cli_kinds
    assert set(subparsers) == {spec.subcommand for spec in KINDS.values()}


@pytest.mark.parametrize("path", sorted(glob.glob(os.path.join(CONFIG_DIR, "*.json"))),
                         ids=os.path.basename)
def test_shipped_configs_validate(path):
    with open(path) as fh:
        raw = json.load(fh)
    assert validate_config(raw).kind == raw["kind"]


def test_cli_chaining_compare_subcommand(tmp_path):
    cfg = {
        "kind": "chaining_compare", "seed": 9, "out": str(tmp_path / "cc"),
        "params": {"band": [-4, 4], "n_functions": 4, "p": 2,
                   "m_sweep": [16, 64], "mc_trials": 6,
                   "n_representatives": 64, "grid_level": 7, "n_max": 8},
    }
    assert main(["chaining-compare", "--config", write_config(tmp_path, cfg)]) == 0
    assert os.path.exists(tmp_path / "cc" / "chaining_compare.csv")


def verify_config(out):
    return {"kind": "usd_verify", "seed": 1, "out": str(out),
            "params": {"max_abs_freq": 2, "v": 2, "p": 2,
                       "points": {"equispaced": 16}}}


@pytest.mark.parametrize("subcommand, config, key, value", [
    ("usd-verify", verify_config, "p", 0.5),
    ("usd-verify", verify_config, "epsilon", 2),
    ("usd-verify", verify_config, "points", {"grid": 4}),
    ("er-rate", er_config, "mc_trials", True),
    ("usd-verify", verify_config, "band", [3, -3]),
    ("usd-verify", verify_config, "subsets", [[0, 9]]),
    ("usd-verify", verify_config, "p", float("nan")),
], ids=["p_half", "epsilon_two", "unknown_points", "bool_trials",
        "reversed_band", "subset_outside_band", "p_nan"])
def test_cli_rejects_out_of_schema_params(tmp_path, subcommand, config, key, value):
    cfg = config(tmp_path / "out")
    cfg["params"][key] = value
    assert main([subcommand, "--config", write_config(tmp_path, cfg)]) == 2
    assert not os.path.exists(tmp_path / "out")


# misspelt keys used to pass validation and fall back to their defaults:
# "epsilom" certified at epsilon = 0.5 and "grid_levle" ran at grid level 10
@pytest.mark.parametrize("subcommand, config, block, key", [
    ("usd-verify", verify_config, "params", "epsilom"),
    ("usd-verify", verify_config, "assertions", "must_pas"),
    ("er-rate", er_config, "params", "grid_levle"),
])
def test_cli_rejects_undeclared_keys(tmp_path, capsys, subcommand, config, block, key):
    cfg = config(tmp_path / "out")
    cfg.setdefault(block, {})[key] = 0.1
    assert main([subcommand, "--config", write_config(tmp_path, cfg)]) == 2
    err = capsys.readouterr().err
    assert f"{block}: " in err and repr(key) in err
    assert not os.path.exists(tmp_path / "out")


@pytest.mark.parametrize("path", sorted(glob.glob(os.path.join(CONFIG_DIR, "*.json"))),
                         ids=os.path.basename)
@pytest.mark.parametrize("block", ["params", "assertions"])
def test_every_kind_rejects_an_undeclared_key(path, block):
    with open(path) as fh:
        raw = json.load(fh)
    raw.setdefault(block, {})["undeclared_key"] = 1
    with pytest.raises(ConfigError, match="'undeclared_key' was unexpected") as exc:
        validate_config(raw)
    assert exc.value.path == block


def test_import_loads_no_scipy_module(tmp_path):
    # nor numpy.ma, a 25 ms import that np.unique makes on first use unless
    # it returns an inverse; d > 1 level unranking, level norms and p = 2
    # gap trials all call np.unique.  Rate fits take their t-quantile from
    # the package, so a fit and a whole er-rate job load neither.  Nor do
    # they load jsonschema and its dependencies (configs are checked by the
    # package's own schema reader) or the p != 2 multistart, which a p = 4
    # certificate then loads on first use.
    config = write_config(tmp_path, er_config(tmp_path / "out"))
    verify = verify_config(tmp_path / "verify")
    verify["params"].update(p=4, opts={"starts": 2, "max_iters": 5})
    verify = write_config(tmp_path, verify, "verify.json")
    unused = ("jsonschema", "referencing", "rpds", "attr", "attrs")
    code = "\n".join([
        "import sys, numpy as np, usdlab, usdlab.cli",
        "from usdlab.discretization import discretization_error_trials",
        "usdlab.unrank_level(4, 2, np.arange(usdlab.level_size(4, 2)))",
        "usdlab.level_a_norms(usdlab.TrigPolynomial({(1, 2): 1.0, (5, 0): 1j}))",
        "discretization_error_trials([usdlab.TrigPolynomial({1: 1.0, -2: 0.5})], 2, 8, 3)",
        "usdlab.fit_rate([(1, 1.0), (2, 0.6), (4, 0.4), (8, 0.2)])",
        f"assert usdlab.cli.main(['er-rate', '--config', {config!r}]) == 0",
        "print('after er-rate:', sorted(m for m in sys.modules",
        "      if m.split('.')[0] == 'scipy' or m.split('.')[:2] == ['numpy', 'ma']",
        f"      or m.split('.')[0] in {unused!r} or m == 'usdlab.multistart'))",
        f"usdlab.cli.main(['usd-verify', '--config', {verify!r}])",
        "print('after p = 4:', 'usdlab.multistart' in sys.modules)",
    ])
    proc = subprocess.run([sys.executable, "-c", code], capture_output=True,
                          text=True, check=True)
    lines = proc.stdout.splitlines()   # each job prints its own report
    assert "after er-rate: []" in lines
    assert lines[-1] == "after p = 4: True"


@pytest.mark.parametrize("config, subcommand, expected", [
    ("entropy_profile.json", "entropy", {
        "entropy_profile.csv":
            "7b78ef6a2ace0ebabeebff358294a1c13dd473bd6dd260ed1f7de4d60a949d35",
        "entropy_profile.svg":
            "98ca687c30949b09f90a301c7f3cf77b3a11434641af9fd670f40143fcc166e1",
        "profile.json":
            "9f9eb126e006c092372c168c7f3a9d49df413cd4943f701a867bf0b83a88f219",
        "summary.json":
            "e89f17b2e7b1f150a60f0fd3930b90b609206b6ebc9ceed3c2e04d1d915580de",
    }),
    ("chaining_compare.json", "chaining-compare", {
        "chaining_compare.csv":
            "900e05d7f5634e817be724e9e5862b27428380bf6b309f539c0760ba5a21548b",
        "profile.json":
            "65ab336e333572d8038c1da55d979b582e50084866e3b980d8b841f4e8977428",
        "summary.json":
            "50f298537a4110fe857bd9138503a6d8abbf76291cafc985d8f4d1ff5b8295ae",
    }),
], ids=["entropy_profile", "chaining_compare"])
def test_shipped_traversal_config_outputs_are_byte_stable(tmp_path, config,
                                                          subcommand, expected):
    # digests recorded from the fixed 64-column filter-and-refine traversal;
    # any exact pruning of the traversal must reproduce them.  The gap columns
    # of chaining_compare come from the p = 2 moment path of the gap trials.
    # entropy_profile's summary since from the package's own t-quantile,
    # which moved the fit's half_width in its last bits.
    assert _output_digests(tmp_path, config, subcommand) == expected


def _output_digests(tmp_path, config, subcommand):
    """sha256 of every file a shipped config writes at ``--threads 1``."""
    path = os.path.join(CONFIG_DIR, config)
    assert main([subcommand, "--config", path, "--out", str(tmp_path),
                 "--threads", "1"]) == 0
    return {entry.name: hashlib.sha256(entry.read_bytes()).hexdigest()
            for entry in tmp_path.iterdir()}


@pytest.mark.parametrize("config, subcommand, expected", [
    ("usd_verify_equispaced.json", "usd-verify", {
        "certificate.json":
            "a045f9387af3682c294812705c7759ead32baec2bda602f6e4bff2a146e7b448",
        "points.json":
            "177548c53f03230ed35c8bb7ff74af8bd241a144dbf919a6de728b03cd1b1027",
        "summary.json":
            "208ed93fd120f8d8d707d545e174ae613b1a2e1452afd115a13759e4e45dc7fc",
        "usd_verify.csv":
            "3b2cba8bcfb468277888b0e64474aca84591b548609f40dca5228d65dd1d06f4",
    }),
    ("usd_search_band7.json", "usd-search", {
        "certificate.json":
            "96b3b36e6fd682df7926e5b6cb8c52df0a6f4377bf5bb7ea0f0bc6bb34a4ef07",
        "points.json":
            "007397638279f3c07aa5d936d99661af3c617ef1b960dd14cc03f19d0d65478d",
        "reference_budget.json":
            "9aa670fb0b367d690d7021c9b9501e7dc4ae32942aa932f5b3e884a8e91d28b3",
        "summary.json":
            "da1f61382da4dc0ac777f2be9d1e6b40a6b7821ebf744ad7bc4654e905eee257",
        "usd_search.csv":
            "fb34f1b55ada17a0445dd23de5891fdebe3a7452cdac5cbf15a781f5555423b5",
    }),
    ("er_rate_sweep.json", "er-rate", {
        "er_rate.csv":
            "b7a7fc52e111debbc8f40b4483daf1ccf397650444691e9ccdd3a41957647643",
        "er_rate.svg":
            "270c1a36cc0e17c3770a05bf308bfbb6935b7bac28139db2da59a126fcd61a98",
        "summary.json":
            "0463d1bc4572c40bc7a7d8997b48c1e87c79cfefe16b37e16da3845b297de70e",
    }),
], ids=["usd_verify_equispaced", "usd_search_band7", "er_rate_sweep"])
def test_shipped_dictionary_config_outputs_are_byte_stable(tmp_path, config,
                                                           subcommand, expected):
    # digests recorded from the element-list Dictionary, before the
    # dictionary became one stored coefficient matrix; er_rate_sweep's CSV and
    # summary since from the p = 2 moment path of the gap trials, and its
    # summary (half_width) since from the package's own t-quantile; the
    # usd_verify and usd_search ratios since from the moment Grams of the
    # translation classes (at most 6.7e-16 from the stacked Gram products)
    assert _output_digests(tmp_path, config, subcommand) == expected


_MULTISTART_POINTS = "a7224a3628d16f3b4abdc5c80ed0b720384a5085e90fa80df4b25fa8c6ba002e"


@pytest.mark.parametrize("p, expected", [
    # recorded before the multistart took Newton steps: below p = 2 |u|^p
    # has no second derivative at 0, so the rows keep gradient steps,
    # their acceptance test and their bits
    (1.5, {"certificate.json":
               "62a7bf02bfd7d2c99fd6741a218a0021f7590ed6bc9ad070487f186b8a3050ed",
           "summary.json":
               "9435408917cda0f92a0c83552f58da099650c8ff295514257bf651ba23743fc3",
           "usd_verify.csv":
               "1e218bb9b414e22211e27e711a05dad9a04124f436e013419ec18e7774d6119f"}),
    # recorded with the Newton steps
    (3, {"certificate.json":
             "ff531e3eebb3b27f4b50c0e5e8b6d8aae11c3e151af8d125c01ade55828fc72b",
         "summary.json":
             "e3feb16c56344b632b83018b793ba4e2c75feb79a67296f900e499dc4b5ffb72",
         "usd_verify.csv":
             "a29d0d2ba684f1060f0e2022b046693b321213d5ca950127322056af27dce0c0"}),
    (4, {"certificate.json":
             "b2183d06bd5d702c303b76948b4e93bf20226d169a6eb2e8cacd74e49ff032ba",
         "summary.json":
             "b31a7b78916b46b9b9b3c0134759479f107e4ec887f8321cc7949e12c8b4b453",
         "usd_verify.csv":
             "39085af59287c09b7bec3df5b355c363f0e1f224c931f26f10ba52558caeed58"}),
], ids=["p1.5", "p3", "p4"])
def test_multistart_usd_verify_output_is_byte_stable(tmp_path, p, expected):
    cfg = {"kind": "usd_verify", "seed": 5, "out": "unused",
           "params": {"max_abs_freq": 3, "v": 2, "p": p,
                      "points": {"seeded": {"m": 48}},
                      "opts": {"starts": 6, "max_iters": 200}},
           "assertions": {"must_pass": False}}
    path = tmp_path / "config.json"
    path.write_text(json.dumps(cfg))
    out = tmp_path / "out"
    assert main(["usd-verify", "--config", str(path), "--out", str(out),
                 "--threads", "1"]) == 0
    digests = {entry.name: hashlib.sha256(entry.read_bytes()).hexdigest()
               for entry in out.iterdir()}
    assert digests == {**expected, "points.json": _MULTISTART_POINTS}


def test_usd_verify_output_at_the_certify_benchmark_shape_is_byte_stable(tmp_path):
    # recorded before the CSV and JSON writers formatted column by column and
    # block by block: band(-8, 8), v = 4, m = 256, one seeded p = 2 draw
    cfg = {"kind": "usd_verify", "seed": 11, "out": str(tmp_path / "out"),
           "params": {"band": [-8, 8], "v": 4, "p": 2,
                      "points": {"seeded": {"m": 256, "seed": 11}}},
           "assertions": {"must_pass": False}}
    assert main(["usd-verify", "--config", write_config(tmp_path, cfg),
                 "--threads", "1"]) == 0
    out = tmp_path / "out"
    assert len((out / "usd_verify.csv").read_text().splitlines()) == 1 + 2380
    digests = {name: hashlib.sha256((out / name).read_bytes()).hexdigest()
               for name in ("usd_verify.csv", "certificate.json", "summary.json")}
    assert digests == {
        "usd_verify.csv":
            "7a9ea1479f6aa8a764570ec834687f0f19c743950d6677d5ea6f308c97735463",
        "certificate.json":
            "5bf47f403384a973424d4c2d15809d1e354710e36c58d536cf5048a02b0c604d",
        "summary.json":
            "5c961701173830e52dc169e33cb82a1afcd9b9ecf8ef121aa46b530d6736b587",
    }


def test_shipped_recovery_rate_config_output_is_byte_stable(tmp_path):
    # digests recorded from the coefficient-dictionary implementation of
    # TrigPolynomial; the summary does not record the output directory, and
    # its half_width fields since come from the package's own t-quantile
    path = os.path.join(CONFIG_DIR, "recovery_rate.json")
    assert main(["recover", "--config", path, "--out", str(tmp_path),
                 "--threads", "1"]) == 0
    digests = {name: hashlib.sha256((tmp_path / name).read_bytes()).hexdigest()
               for name in ("recovery_rate.csv", "summary.json")}
    assert digests == {
        "recovery_rate.csv":
            "c80480a294b31bef11eca7a0c73fc38e384685784ecd6f83b42839ec555b8c62",
        "summary.json":
            "d4b55e6156ccba84a3b781737a88a53021514c8c1f89f7259ed302c02a42c6e9",
    }
