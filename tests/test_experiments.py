import glob
import hashlib
import json
import math
import os
import subprocess
import sys
from importlib import resources

import numpy as np
import pytest

from usdlab.cli import build_parser, main
from usdlab.dictionary import Dictionary, SubspaceCollection
from usdlab.discretization import RatioOptions, find_usd_points
from usdlab.errors import ConfigError
from usdlab.experiments import (KINDS, fit_rate, read_csv, resummarize, run,
                                validate_config, write_csv)

CONFIG_DIR = os.path.join(os.path.dirname(__file__), os.pardir, "configs")


def test_fit_rate_exact_power_law():
    pts = [(x, x ** -0.5) for x in (2.0, 4.0, 8.0, 16.0)]
    fit = fit_rate(pts)
    assert fit.slope == pytest.approx(-0.5, abs=1e-12)
    assert fit.residual_rms == pytest.approx(0.0, abs=1e-12)


def test_fit_rate_constant_series():
    fit = fit_rate([(2.0, 3.0), (4.0, 3.0), (8.0, 3.0)])
    assert fit.slope == pytest.approx(0.0, abs=1e-12)


def test_fit_rate_noisy_power_law():
    rng = np.random.default_rng(0)
    xs = 2.0 ** np.arange(3, 14)
    ys = 4.0 * xs ** -0.75 * (1.0 + 0.01 * rng.standard_normal(len(xs)))
    fit = fit_rate(list(zip(xs, ys)))
    assert fit.slope == pytest.approx(-0.75, abs=0.05)
    assert fit.half_width > 0


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
    csv1 = open(r1.csv_path, "rb").read()
    csv2 = open(r2.csv_path, "rb").read()
    assert csv1 == csv2
    s1 = json.load(open(r1.summary_path))
    s2 = json.load(open(r2.summary_path))
    assert s1 == s2
    r3 = run(er_config(tmp_path / "c", seed=6))
    assert open(r3.csv_path, "rb").read() != csv1


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
    cert = json.load(open(os.path.join(cfg["out"], "certificate.json")))
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
    assert open(r1.csv_path).read() == open(r2.csv_path).read()


def test_svg_emission(tmp_path):
    cfg = er_config(tmp_path / "svg")
    cfg["svg"] = True
    run(cfg)
    svg_path = os.path.join(cfg["out"], "er_rate.svg")
    text = open(svg_path).read()
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


def test_cli_exit_code_config_error(tmp_path):
    cfg = er_config(tmp_path / "x")
    cfg["params"]["m_sweep"] = []
    path = write_config(tmp_path, cfg)
    assert main(["er-rate", "--config", path]) == 2
    # kind mismatch between subcommand and config
    ok = write_config(tmp_path, er_config(tmp_path / "y"), "ok.json")
    assert main(["fit", "--config", ok]) == 2


def test_cli_exit_code_cap_exceeded(tmp_path):
    cfg = {
        "kind": "usd_verify", "seed": 1, "out": str(tmp_path / "cap"),
        "params": {"max_abs_freq": 12, "v": 8, "p": 2,
                   "points": {"equispaced": 64}},
    }
    path = write_config(tmp_path, cfg)
    assert main(["usd-verify", "--config", path]) == 3


def test_cli_strict_flags_heuristic_certificates(tmp_path):
    cfg = {
        "kind": "usd_verify", "seed": 1, "out": str(tmp_path / "strict"),
        "params": {"max_abs_freq": 1, "v": 1, "p": 4,
                   "points": {"equispaced": 16},
                   "opts": {"starts": 4, "max_iters": 60}},
    }
    path = write_config(tmp_path, cfg)
    assert main(["usd-verify", "--config", path]) == 0
    assert main(["usd-verify", "--config", path, "--strict"]) == 1


def test_cli_seed_and_out_overrides(tmp_path):
    cfg = er_config(tmp_path / "base", seed=5)
    path = write_config(tmp_path, cfg)
    other = tmp_path / "override"
    assert main(["er-rate", "--config", path, "--seed", "6",
                 "--out", str(other)]) == 0
    summary = json.load(open(other / "summary.json"))
    assert summary["seed"] == 6


def test_module_invocation_smoke(tmp_path):
    cfg = write_config(tmp_path, er_config(tmp_path / "m"))
    proc = subprocess.run([sys.executable, "-m", "usdlab", "er-rate",
                           "--config", cfg], capture_output=True, text=True)
    assert proc.returncode == 0
    assert "PASS" in proc.stdout


def test_unknown_opts_keys_rejected(tmp_path):
    cfg = {
        "kind": "usd_verify", "seed": 1, "out": str(tmp_path / "o"),
        "params": {"max_abs_freq": 2, "v": 2, "p": 2,
                   "points": {"equispaced": 16},
                   "opts": {"starts": 4, "bogus": 1}},
    }
    path = tmp_path / "c.json"
    path.write_text(json.dumps(cfg))
    assert main(["usd-verify", "--config", str(path)]) == 2


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


def test_import_does_not_load_scipy_stats():
    code = "import sys, usdlab; print('scipy.stats' in sys.modules)"
    proc = subprocess.run([sys.executable, "-c", code], capture_output=True,
                          text=True, check=True)
    assert proc.stdout.strip() == "False"


def test_shipped_recovery_rate_config_output_is_byte_stable(tmp_path):
    # digests recorded from the coefficient-dictionary implementation of
    # TrigPolynomial; the summary does not record the output directory
    path = os.path.join(CONFIG_DIR, "recovery_rate.json")
    assert main(["recover", "--config", path, "--out", str(tmp_path),
                 "--threads", "1"]) == 0
    digests = {name: hashlib.sha256((tmp_path / name).read_bytes()).hexdigest()
               for name in ("recovery_rate.csv", "summary.json")}
    assert digests == {
        "recovery_rate.csv":
            "c80480a294b31bef11eca7a0c73fc38e384685784ecd6f83b42839ec555b8c62",
        "summary.json":
            "5f3e6392b528f142442d9635410c5f6e1f5504ae0e8b3639758bde8794e53ed4",
    }
