"""Command-line contract: exit codes, records, round-trips."""

import json
import os
import subprocess
import sys

import pytest

import ctrlwalk
from ctrlwalk import (
    ParameterError,
    __version__,
    calibrate_lemma5,
    calibrate_lemma6,
    estimate_hit,
    hit_probability,
    multiscale_qto1_schedule,
    policy_to_json,
    run_batch,
    schedule_policy,
    solve_extremal,
    sweep_policy,
)
from ctrlwalk import dp
from ctrlwalk.cli import _build_parser, _subcommands, parse_policy, run_command


def run(capsys, argv):
    code = run_command(argv)
    out = capsys.readouterr().out
    return code, out


def record_from(out):
    return json.loads(out)


def records_from(argv, out):
    """The records a run printed: NDJSON lines for exponent, one indented record otherwise."""
    lines = out.splitlines() if argv[0] == "exponent" else [out]
    return [json.loads(line) for line in lines]


def write_config(tmp_path, cfg):
    path = tmp_path / "cfg.json"
    path.write_text(json.dumps(cfg))
    return str(path)


# one valid config per subcommand, with its positional arguments
VALID_CONFIGS = {
    "evolve": ([], {"policy": "constant:q=0.5", "n": 4}),
    "solve": ([], {"q": 0.5, "n": 4}),
    "region": ([], {"q": 0.5, "n": 4}),
    "simulate": ([], {"policy": "constant:q=0.5", "n": 4, "trials": 10, "seed": 1}),
    "exponent": ([], {"policy_kind": "constant", "q": 0.5, "n_grid": "2,4,8", "min_n": 2}),
    "barriers": ([], {"policy": "constant:q=0.5", "n": 4, "trials": 10, "seed": 1}),
    "verify": (["reversibility"], {"q": 0.5, "band": 2}),
    "calibrate": (["lemma5"], {"q": 0.5}),
}

# small runs of every subcommand and every verify and calibrate target; {cert}
# names a file holding the certificate that verify lemma5 or lemma6 reads
ECHO_ARGS = {
    ("evolve", None): "--policy constant:q=0.5 --n 4",
    ("solve", None): "--q 0.5 --n 4",
    ("region", None): "--q 0.5 --n 4",
    ("simulate", None): "--policy constant:q=0.5 --n 4 --trials 10 --seed 1",
    ("exponent", None): "--policy-kind constant --q 0.5 --n-grid 2,4,8 --min-n 2",
    ("barriers", None): "--policy constant:q=0.5 --n 4 --trials 10 --seed 1",
    ("verify", "lemma0"): "--q 0.9 --h 1 --delta 0.1 --ell 240 --trials 100 --seed 7",
    ("verify", "lemma5"): "--cert {cert}",
    ("verify", "lemma6"): "--cert {cert}",
    ("verify", "reversibility"): "--q 0.5 --band 2",
    ("verify", "heatkernel"): "--q 0.5 --band 2 --t-grid 8,16",
    ("calibrate", "lemma5"): "--q 0.5",
    ("calibrate", "lemma6"): "--eps 0.2",
}

# every option of every subcommand, from the parser itself
OPTIONS = [
    pytest.param(name, action, id=f"{name}-{action.dest}")
    for name, sub in _subcommands(_build_parser()).items()
    for action in sub._actions
    if action.option_strings and action.dest != "help"
]


class TestExitCodes:
    def test_unknown_subcommand(self, capsys):
        assert run_command(["frobnicate"]) == 2

    def test_missing_seed_on_sampling_commands(self, capsys):
        code = run_command(["simulate", "--policy", "constant:q=0.5,u=0.5", "--n", "10"])
        assert code == 2
        code = run_command(
            ["barriers", "--policy", "constant:q=0.5,u=0.5", "--n", "64", "--trials", "10"]
        )
        assert code == 2

    def test_missing_required_parameter(self, capsys):
        assert run_command(["evolve", "--policy", "constant:q=0.5,u=0.5"]) == 2

    def test_bad_policy_string(self, capsys):
        code = run_command(["evolve", "--policy", "warp:q=0.5", "--n", "4"])
        assert code == 2
        code = run_command(["evolve", "--policy", "constant:u=0.5", "--n", "4"])
        assert code == 2

    def test_nan_schedule_alpha_is_a_parameter_error(self, capsys):
        argv = ["evolve", "--policy", "schedule-localization:q=0.5,alpha=nan", "--n", "1024"]
        assert run_command(argv) == 2
        assert capsys.readouterr().err == "error: alpha must be > 0, got nan\n"

    def test_zero_horizon_in_fit_is_exit_2(self, capsys):
        # was a ZeroDivisionError traceback from the fit's local slopes
        argv = ["exponent", "--policy-kind", "constant", "--q", "0.5",
                "--n-grid", "0,128,256,512", "--min-n", "0"]
        assert run_command(argv) == 2
        err = capsys.readouterr().err
        assert err == "error: min_n must be >= 1, got 0\n" and "Traceback" not in err

    @pytest.mark.parametrize("argv, text", [
        (["evolve", "--config"], '{"policy": "constant:q=0.5", "n": 4, "n": 6}'),
        (["evolve", "--n", "4", "--policy"],
         '{"kind": "constant", "q_cap": 0.5, "u_value": 0.5, "u_value": 0.0}'),
    ], ids=["config", "policy-file"])
    def test_repeated_key_in_json_file_is_exit_2(self, capsys, tmp_path, argv, text):
        # json.load kept the last value: the config ran n = 6, the policy u = 0
        path = tmp_path / "in.json"
        path.write_text(text)
        arg = str(path) if argv[-1] == "--config" else f"file:{path}"
        assert run_command(argv + [arg]) == 2
        key = "n" if argv[-1] == "--config" else "u_value"
        assert capsys.readouterr().err == f"error: {path} repeats key {key!r}\n"

    def test_unknown_policy_key_rejected(self, capsys):
        code = run_command(["evolve", "--policy", "constant:q=0.5,uu=0.1", "--n", "4"])
        assert code == 2
        assert "'uu'" in capsys.readouterr().err

    def test_policy_key_the_kind_does_not_read_rejected(self, capsys):
        code = run_command(["evolve", "--policy", "constant:q=0.5,band=3", "--n", "4"])
        assert code == 2
        assert "band" in capsys.readouterr().err
        code = run_command(["evolve", "--policy", "two-zone:q=0.5,band=2,A=3", "--n", "4"])
        assert code == 2

    def test_exponent_params_the_kind_does_not_read_rejected(self, capsys):
        argv = ["exponent", "--q", "0.9", "--n-grid", "16,32,64", "--min-n", "16"]
        code = run_command(argv + ["--policy-kind", "two-zone", "--params", '{"bnd": 3}'])
        assert code == 2
        assert "bnd" in capsys.readouterr().err
        code = run_command(argv + ["--policy-kind", "constant", "--params", '{"seed": 3}'])
        assert code == 2
        for extra in (
            ["--policy-kind", "two-zone", "--params", '{"band": 3}'],
            ["--policy-kind", "optimal", "--params", '{"objective": "max"}'],
            ["--policy-kind", "constant", "--method", "mc", "--seed", "1",
             "--params", '{"seed": 2, "trials": 500}'],
        ):
            assert run_command(argv + extra) == 0
        capsys.readouterr()

    @pytest.mark.parametrize("spec", ["constant:q=abc", "two-zone:q=0.5,band=1.5"])
    def test_unparsable_policy_value(self, spec):
        with pytest.raises(ParameterError):
            parse_policy(spec)

    def test_non_object_policy_file_is_exit_2(self, capsys, tmp_path):
        path = tmp_path / "policy.json"
        path.write_text("[1]")
        assert run_command(["evolve", "--policy", f"file:{path}", "--n", "4"]) == 2
        assert "JSON object" in capsys.readouterr().err

    def test_non_integer_band_in_policy_file_is_exit_2(self, capsys, tmp_path):
        path = tmp_path / "pol.json"
        path.write_text(json.dumps({"kind": "two-zone", "q_cap": 0.5, "band_halfwidth": 2.5}))
        assert run_command(["evolve", "--policy", f"file:{path}", "--n", "4"]) == 2
        assert "band_halfwidth must be an integer" in capsys.readouterr().err

    @pytest.mark.parametrize("t_end", [5.5, "5"])
    def test_non_integer_schedule_time_in_policy_file_is_exit_2(self, capsys, tmp_path, t_end):
        inner = {"kind": "constant", "q_cap": 0.5, "u_value": 0.5}
        pol = {"kind": "schedule", "q_cap": 0.5,
               "segments": [{"t_start": 0, "t_end": t_end, "inner": inner}]}
        path = tmp_path / "pol.json"
        path.write_text(json.dumps(pol))
        assert run_command(["evolve", "--policy", f"file:{path}", "--n", "5"]) == 2
        assert "t_end must be an integer" in capsys.readouterr().err

    @pytest.mark.parametrize("target", [[5], [0, 2, 9]])
    def test_config_target_not_a_pair_is_exit_2(self, capsys, tmp_path, target):
        cfg = tmp_path / "cfg.json"
        cfg.write_text(json.dumps({"policy": "constant:q=0.5", "n": 4, "target": target}))
        assert run_command(["evolve", "--config", str(cfg)]) == 2
        assert "(lo, hi) pair" in capsys.readouterr().err

    def test_seed_rule_reads_command_and_variant(self, capsys, tmp_path):
        cfg = tmp_path / "cfg.json"
        cfg.write_text(json.dumps({"q": 0.5, "band": 4, "method": "mc", "what": "lemma0"}))
        code, _ = run(capsys, ["verify", "reversibility", "--config", str(cfg)])
        assert code == 0
        code = run_command(["exponent", "--config", str(cfg), "--policy-kind", "constant",
                            "--n-grid", "128,256,512"])
        assert code == 2
        assert "--seed" in capsys.readouterr().err

    def test_policy_strings_share_sweep_defaults(self, capsys):
        assert parse_policy("two-zone:q=0.9", n=64) == sweep_policy("two-zone", 0.9, 64, {})
        assert parse_policy("schedule-qto1:q=0.9,A=2,n=256") == sweep_policy(
            "schedule-qto1", 0.9, 256, {"A": 2}
        )
        assert parse_policy("schedule-localization:q=0.5,T=512", n=8) == sweep_policy(
            "schedule-localization", 0.5, 512, {}
        )
        code, out = run(capsys, ["evolve", "--policy", "two-zone:q=0.9", "--n", "64"])
        assert code == 0
        assert record_from(out)["payload"]["policy"]["band_halfwidth"] == 4

    def test_calibration_failure_is_exit_3(self, capsys):
        assert run_command(["calibrate", "lemma6", "--eps", "1e-9"]) == 3

    def test_margin_hidden_by_rounding_is_exit_3(self, capsys, monkeypatch):
        # the float margin at q = 0.99993 once gave an eps above the exact margin; the first
        # candidate alone keeps the search short
        for name, grid in (("L5_ALPHAS", (0.25,)), ("L5_BETAS", (0.25,)), ("L5_K0S", (4,))):
            monkeypatch.setattr(ctrlwalk.defaults, name, grid)
        assert run_command(["calibrate", "lemma5", "--q", "0.99993"]) == 3
        assert "rounding allowance" in capsys.readouterr().err

    def test_verify_failure_is_exit_4(self, capsys, tmp_path):
        cert = calibrate_lemma5(0.5)
        cert["entries"][2]["sum"] += 1e-6
        path = tmp_path / "bad.json"
        path.write_text(json.dumps(cert))
        assert run_command(["verify", "lemma5", "--cert", str(path)]) == 4

    @pytest.mark.parametrize("mode", ["float64", "rational"])
    @pytest.mark.parametrize("q, band", [("1", "2"), ("1.5", "2"), ("0.5", "-1")])
    def test_verify_reversibility_bad_chain_is_exit_2(self, capsys, q, band, mode):
        argv = ["verify", "reversibility", "--q", q, "--band", band, "--mode", mode]
        assert run(capsys, argv) == (2, "")

    @pytest.mark.parametrize("mode", ["float64", "rational"])
    def test_verify_reversibility_negative_window_is_exit_2(self, capsys, mode):
        argv = ["verify", "reversibility", "--q", "0.5", "--band", "2", "--window", "-5",
                "--mode", mode]
        assert run(capsys, argv) == (2, "")

    @pytest.mark.parametrize("mode", ["float64", "rational"])
    def test_verify_reversibility_window_zero_is_kept(self, capsys, mode):
        argv = ["verify", "reversibility", "--q", "0.5", "--band", "2", "--window", "0",
                "--mode", mode]
        code, out = run(capsys, argv)
        assert code == 0
        assert record_from(out)["payload"]["window"] == 0

    @pytest.mark.parametrize("extra", [["--keep-values"], ["--cutoff", "3"]])
    def test_solve_value_options_need_values_csv(self, capsys, extra):
        # --keep-values no longer exists; --cutoff still needs --values-csv
        code = run_command(["solve", "--q", "0.5", "--n", "2", *extra])
        assert code == 2
        named = "arguments: --keep-values" if "--keep-values" in extra else "--values-csv"
        assert named in capsys.readouterr().err

    def test_solve_negative_cutoff_is_exit_2(self, capsys, tmp_path):
        argv = ["solve", "--q", "0.5", "--n", "2", "--values-csv", str(tmp_path / "v.csv"),
                "--cutoff", "-1"]
        assert run(capsys, argv) == (2, "")

    @pytest.mark.parametrize("argv", [
        ["simulate", "--policy", "constant:q=0.5,u=0.5", "--n", "8"],
        ["barriers", "--policy", "constant:q=0.5,u=0.5", "--n", "8"],
        ["verify", "lemma0", "--q", "0.5", "--h", "1", "--delta", "0.5", "--ell", "48"],
        ["exponent", "--policy-kind", "constant", "--q", "0.5", "--n-grid", "2,4,8",
         "--min-n", "2", "--method", "mc"],
    ])
    def test_zero_trials_is_exit_2(self, capsys, argv):
        # an explicit 0 is not replaced by the default trial count
        assert run_command([*argv, "--seed", "1", "--trials", "1000"]) == 0
        capsys.readouterr()
        assert run_command([*argv, "--seed", "1", "--trials", "0"]) == 2
        out, err = capsys.readouterr()
        assert out == "" and "trial" in err

    def test_version_flag(self, capsys):
        assert run_command(["--version"]) == 0
        assert __version__ in capsys.readouterr().out


class TestConfigValues:
    """A config value must be what its flag would give: type, choices, not null."""

    def test_every_subcommand_has_a_valid_config(self, capsys, tmp_path):
        assert set(VALID_CONFIGS) == set(_subcommands(_build_parser()))
        for name, (positional, cfg) in VALID_CONFIGS.items():
            argv = [name, *positional, "--config", write_config(tmp_path, cfg)]
            assert run_command(argv) == 0, name
        capsys.readouterr()

    @pytest.mark.parametrize("name, action", OPTIONS)
    def test_bad_value_is_exit_2_naming_the_key(self, capsys, tmp_path, name, action):
        positional, cfg = VALID_CONFIGS[name]
        bad = [None]
        if action.type is not None or action.choices is not None:
            bad += [True, ""]
        if action.type is int:
            bad += [1.5, 2.0, "3"]
        if action.type is float:
            bad += ["0.5"]
        for value in bad:
            path = write_config(tmp_path, {**cfg, action.dest: value})
            assert run_command([name, *positional, "--config", path]) == 2, value
            out, err = capsys.readouterr()
            assert out == "" and f"config key {action.dest!r}" in err, (value, err)

    @pytest.mark.parametrize("name, positional, cfg, named", [
        ("solve", [], {"q": 0.5, "n": 4.7}, "'n'"),
        ("solve", [], {"q": 0.5, "n": True}, "'n'"),
        ("evolve", [], {"policy": "constant:q=0.5", "n": 4, "start": 1.5}, "'start'"),
        ("evolve", [], {"policy": "constant:q=0.5", "n": 4, "mode": ""}, "'mode'"),
        ("simulate", [], {"policy": "constant:q=0.5", "n": 8, "trials": 100.9, "seed": 1},
         "'trials'"),
        ("simulate", [], {"policy": "constant:q=0.5", "n": 8, "trials": 100, "seed": 1.9},
         "'seed'"),
        ("verify", ["reversibility"], {"q": 0.5, "band": 2.5}, "'band'"),
        ("solve", [], {"q": 0.5, "n": 4, "objective": ""}, "'objective'"),
        ("exponent", [], {"policy_kind": "constant", "q": 0.5, "n_grid": "2,4,8", "min_n": 2,
                          "method": ""}, "'method'"),
        ("exponent", [], {"policy_kind": "constant", "q": 0.5, "n_grid": "2,4,8", "min_n": 2,
                          "params": ""}, "--params"),
        ("exponent", ["--method", "mc", "--seed", "1", "--params", '{"trials": 100.5}'],
         {"policy_kind": "constant", "q": 0.5, "n_grid": "2,4,8", "min_n": 2}, "trials"),
        ("exponent", [], {"policy_kind": "optimal", "q": 0.5, "n_grid": [128.7, 256, 512]},
         "n must be an integer"),
        ("verify", ["heatkernel"], {"q": 0.5, "t_grid": [64.5, 128]}, "t_grid"),
        ("evolve", [], {"policy": "constant:q=0.5", "n": 4, "target": True}, "target"),
        ("solve", [], {"q": 10**400, "n": 4}, "too large"),
        ("evolve", [], [{"policy": "constant:q=0.5", "n": 4}], "flat JSON object"),
        ("evolve", [], {"policy": 5, "n": 4}, "cannot parse policy from 5"),
        ("evolve", [], {"policy": "constant:q=0.5,u", "n": 4}, "bad policy parameter 'u'"),
    ])
    def test_listed_bad_configs_are_exit_2(self, capsys, tmp_path, name, positional, cfg, named):
        assert run_command([name, *positional, "--config", write_config(tmp_path, cfg)]) == 2
        out, err = capsys.readouterr()
        assert out == "" and named in err

    def test_policy_as_a_json_object(self, capsys, tmp_path):
        policy = policy_to_json(sweep_policy("two-zone", 0.5, 4, {"band": 1}))
        path = write_config(tmp_path, {"policy": policy, "n": 4})
        code, out = run(capsys, ["evolve", "--config", path])
        _, flags = run(capsys, ["evolve", "--policy", "two-zone:q=0.5,band=1", "--n", "4"])
        assert code == 0 and record_from(out)["config"]["policy"] == policy
        assert record_from(out)["payload"] == record_from(flags)["payload"]

    def test_typed_values_run_as_their_flags(self, capsys, tmp_path):
        # a JSON integer for a float flag reads as the float the flag would give
        path = write_config(tmp_path, {"q": 0, "n": 4})
        code, out = run(capsys, ["solve", "--config", path])
        assert code == 0
        assert record_from(out)["config"] == {"q": 0, "n": 4}  # the echo keeps what was given
        _, flags = run(capsys, ["solve", "--q", "0", "--n", "4"])
        assert out.split('"payload"')[1] == flags.split('"payload"')[1]

    def test_shared_defaults_stay_out_of_the_echo(self, capsys):
        code, out = run(capsys, ["evolve", "--policy", "constant:q=0.5", "--n", "4"])
        assert code == 0
        assert record_from(out)["config"] == {"policy": "constant:q=0.5", "n": 4}

    @pytest.mark.parametrize("argv, defaults", [
        (["evolve", "--policy", "constant:q=0.5", "--n", "4"],
         ["--start", "0", "--mode", "float64"]),
        (["solve", "--q", "0.5", "--n", "4"], ["--objective", "max"]),
        (["exponent", "--policy-kind", "constant", "--q", "0.5", "--n-grid", "2,4,8",
          "--min-n", "2"], ["--method", "exact"]),
        (["simulate", "--policy", "constant:q=0.5", "--n", "4", "--seed", "1"],
         ["--start", "0", "--trials", "10000"]),
        (["barriers", "--policy", "constant:q=0.5", "--n", "4", "--seed", "1", "--trials", "10"],
         ["--start", "0", "--beta", "0"]),
        (["verify", "reversibility", "--q", "0.5", "--band", "2"], ["--mode", "float64"]),
    ])
    def test_shared_defaults_are_the_documented_values(self, capsys, argv, defaults):
        plain, explicit = (
            [(r["payload"], r["provenance"]) for r in records_from(argv, run(capsys, a)[1])]
            for a in (argv, argv + defaults)
        )
        assert plain == explicit


class TestEvolveAndSolve:
    def test_evolve_lazy_return_probability(self, capsys):
        code, out = run(
            capsys,
            ["evolve", "--policy", "constant:q=0.5,u=0.5", "--n", "100", "--start", "0"],
        )
        rec = record_from(out)
        assert code == 0
        assert rec["command"] == "evolve"
        assert rec["provenance"] == "exact"
        assert rec["version"] == __version__
        assert abs(rec["payload"]["p"] - 0.05634847900925642) < 1e-15

    def test_evolve_rational_mode(self, capsys):
        code, out = run(
            capsys,
            ["evolve", "--policy", "constant:q=0.5,u=0.5", "--n", "10", "--mode", "rational"],
        )
        rec = record_from(out)
        assert code == 0
        assert rec["payload"]["p_exact"] == "46189/262144"

    def test_evolve_rational_beyond_cap_is_exit_2(self, capsys):
        code = run_command(
            ["evolve", "--policy", "constant:q=0.5,u=0.5", "--n", "65", "--mode", "rational"]
        )
        assert code == 2

    def test_solve_target_left_of_window(self, capsys):
        code, out = run(capsys, ["solve", "--q", "0.5", "--n", "2", "--target=-10:-5"])
        assert code == 0
        assert record_from(out)["payload"]["value"] == 0

    def test_solve_two_steps(self, capsys):
        code, out = run(capsys, ["solve", "--q", "0.5", "--n", "2", "--objective", "max"])
        rec = record_from(out)
        assert code == 0
        assert rec["payload"]["value"] == 0.5
        assert rec["payload"]["region"]["intervals"] == [[[-1, -1], [1, 1]], [[0, 0]]]

    def test_solve_exports(self, capsys, tmp_path):
        v, b, r = tmp_path / "v.csv", tmp_path / "b.csv", tmp_path / "r.json"
        code, _ = run(
            capsys,
            [
                "solve", "--q", "0.5", "--n", "6",
                "--values-csv", str(v), "--boundary-csv", str(b), "--region-json", str(r),
            ],
        )
        assert code == 0
        assert v.read_text().splitlines()[0] == "t,x,value"
        assert b.read_text().splitlines()[0] == "t,max_radius"
        assert "intervals" in json.loads(r.read_text())

    def test_values_csv_past_the_window(self, capsys, tmp_path):
        # a cutoff past n is refused: the solve holds no value off [-n, n]
        v = tmp_path / "v.csv"
        argv = ["solve", "--q", "0.5", "--n", "2", "--values-csv", str(v), "--cutoff", "3"]
        assert run_command(argv) == 2
        assert capsys.readouterr() == ("", "error: cutoff must be <= n=2, got 3\n")
        argv[-1] = "2"
        assert run(capsys, argv)[0] == 0
        rows = [line.split(",") for line in v.read_text().splitlines()[1:]]
        assert len(rows) == 3 * 5
        values = {(int(t), int(x)): float(value) for t, x, value in rows}
        assert values[0, 0] == 0.5 and values[2, 2] == 0.0 and values[2, 0] == 1.0

    @pytest.mark.parametrize("args, cutoff, message", [
        pytest.param("--q 0.5 --n 2", "3", "cutoff must be <= n=2, got 3", id="past-n"),
        pytest.param("--q 0.5 --n 2", "-1", "cutoff must be >= 0, got -1", id="negative"),
        # V_0(31) of this solve is C(30, 8)/2^30, not the 0.0 the CSV once held
        pytest.param("--q 0 --n 30 --target 17", "31", "cutoff must be <= n=30, got 31",
                     id="off-target"),
    ])
    def test_refused_cutoff_writes_no_file(self, capsys, tmp_path, args, cutoff, message):
        v = tmp_path / "v.csv"
        argv = ["solve", *args.split(), "--values-csv", str(v), "--cutoff", cutoff]
        assert run_command(argv) == 2
        assert capsys.readouterr() == ("", f"error: {message}\n")
        assert not v.exists()
        v.write_text("t,x,value\n0,0,0.5\n")  # a values CSV from an earlier run stays
        assert run_command(argv) == 2
        assert v.read_text() == "t,x,value\n0,0,0.5\n"

    def test_region_subcommand(self, capsys, tmp_path):
        b = tmp_path / "b.csv"
        code, out = run(
            capsys,
            ["region", "--q", "0.5", "--n", "4", "--objective", "min", "--boundary-csv", str(b)],
        )
        rec = record_from(out)
        assert code == 0
        assert rec["payload"]["objective"] == "min"
        assert len(b.read_text().splitlines()) == 1 + 4


class TestSampling:
    def test_simulate_record(self, capsys):
        code, out = run(
            capsys,
            [
                "simulate", "--policy", "two-zone:q=0.9,band=4",
                "--n", "100", "--trials", "2000", "--seed", "11",
            ],
        )
        rec = record_from(out)
        assert code == 0
        assert rec["provenance"] == {"method": "mc", "seed": 11, "trials": 2000}
        pl = rec["payload"]
        assert pl["ci_low"] <= pl["p_hat"] <= pl["ci_high"]
        assert pl["hits"] <= pl["trials"] == 2000

    def test_simulate_deterministic(self, capsys):
        argv = [
            "simulate", "--policy", "constant:q=0.5,u=0.5",
            "--n", "50", "--trials", "500", "--seed", "3",
        ]
        _, out1 = run(capsys, argv)
        _, out2 = run(capsys, argv)
        assert record_from(out1)["payload"] == record_from(out2)["payload"]

    def test_barriers_record(self, capsys):
        code, out = run(
            capsys,
            [
                "barriers", "--policy", "constant:q=0.5,u=0.5",
                "--n", "256", "--beta", "0", "--trials", "1000", "--seed", "3",
            ],
        )
        rec = record_from(out)
        assert code == 0
        pl = rec["payload"]
        assert pl["violations_exact"] == 0
        assert len(pl["stage_stats"]) == pl["N0"]

    def test_barriers_record_with_no_stage_entered(self, capsys):
        # walks from 100 never come within the first radius (6) in 64 steps
        code, out = run(capsys, ["barriers", "--policy", "constant:q=0.5,u=0.5", "--n", "64",
                                 "--start", "100", "--trials", "50", "--seed", "3"])
        pl = record_from(out)["payload"]
        assert code == 0 and pl["N0"] == 6 and pl["min_cond_escape"] is None
        stats = pl["stage_stats"]
        assert [s["entered_by_n"] for s in stats] == [0] * 6
        assert [s["cond_escape"] for s in stats] == [None] * 6
        assert [s["cond_escape_ci"] for s in stats] == [[None, None]] * 5 + [None]

    def test_simulate_dump_final_matches_run_batch(self, capsys, tmp_path):
        path = tmp_path / "final.csv"
        policy = "two-zone:q=0.9,band=4"
        code, out = run(
            capsys,
            ["simulate", "--policy", policy, "--n", "100", "--start", "2", "--trials", "300",
             "--seed", "11", "--dump-final", str(path)],
        )
        assert code == 0
        rows = path.read_text().splitlines()
        batch = run_batch(parse_policy(policy, n=100), 100, start=2, trials=300, seed=11)
        assert rows[0] == "trial,final"
        assert rows[1:] == [f"{i},{int(v)}" for i, v in enumerate(batch.final)]
        est = estimate_hit(parse_policy(policy, n=100), 100, start=2, trials=300, seed=11)
        assert record_from(out)["payload"]["p_hat"] == est.p_hat

    def test_verify_lemma0(self, capsys):
        code, out = run(
            capsys,
            [
                "verify", "lemma0", "--q", "0.9", "--h", "1", "--delta", "0.1",
                "--ell", "240", "--trials", "20000", "--seed", "7",
            ],
        )
        rec = record_from(out)
        assert code == 0
        assert 0.45 < rec["payload"]["estimate"] < 0.55
        assert rec["payload"]["violation"] is False

    def test_verify_lemma0_needs_seed(self, capsys):
        code = run_command(
            ["verify", "lemma0", "--q", "0.9", "--h", "1", "--delta", "0.1", "--ell", "240"]
        )
        assert code == 2


class TestVerifyAndCalibrate:
    def test_lemma5_end_to_end(self, capsys, tmp_path):
        out_path = tmp_path / "cert.json"
        code, _ = run(capsys, ["calibrate", "lemma5", "--q", "0.5", "--out", str(out_path)])
        assert code == 0
        cert = json.loads(out_path.read_text())["payload"]
        cert_path = tmp_path / "payload.json"
        cert_path.write_text(json.dumps(cert))
        code, out = run(capsys, ["verify", "lemma5", "--cert", str(cert_path)])
        rec = record_from(out)
        assert code == 0
        assert rec["payload"]["replay_max_diff"] == 0.0
        assert rec["payload"]["direct_sum_max_diff"] <= 1e-12
        assert list(rec["payload"]) == [
            "replay_max_diff", "all_exceed", "entries", "direct_sum_max_diff"]

    def test_lemma6_end_to_end(self, capsys, tmp_path):
        out_path = tmp_path / "cert.json"
        code, _ = run(capsys, ["calibrate", "lemma6", "--eps", "0.2", "--out", str(out_path)])
        assert code == 0
        cert = json.loads(out_path.read_text())["payload"]
        assert cert["A"] == 256
        cert_path = tmp_path / "payload.json"
        cert_path.write_text(json.dumps(cert))
        code, out = run(capsys, ["verify", "lemma6", "--cert", str(cert_path)])
        rec = record_from(out)
        assert code == 0
        assert rec["payload"]["replay_max_diff"] == 0.0
        assert list(rec["payload"]) == [
            "replay_max_diff", "all_below", "absorbing_cross_check_escape",
            "absorbing_cross_check_exit"]

    @pytest.mark.parametrize("what, argv", [("lemma5", ["--q", "0.5"]), ("lemma6", ["--eps", "0.2"])])
    def test_verify_reads_the_calibrate_record(self, capsys, tmp_path, what, argv):
        path, other = tmp_path / "cert.json", tmp_path / "other.json"
        assert run_command(["calibrate", what, *argv, "--out", str(path)]) == 0
        capsys.readouterr()
        code, out = run(capsys, ["verify", what, "--cert", str(path)])
        assert code == 0 and record_from(out)["payload"]["replay_max_diff"] == 0.0
        # a record of another lemma, or of verify itself, is refused
        wrong = "lemma6" if what == "lemma5" else "lemma5"
        assert run_command(["verify", wrong, "--cert", str(path)]) == 2
        assert capsys.readouterr().err == (
            f"error: --cert holds a calibrate {what} record; verify {wrong} reads the payload "
            f"of a calibrate {wrong} record, or a bare certificate\n")
        assert run_command(["verify", what, "--cert", str(path), "--out", str(other)]) == 0
        assert run_command(["verify", what, "--cert", str(other)]) == 2
        assert f"error: --cert holds a verify {what} record;" in capsys.readouterr().err

    @pytest.mark.parametrize("what, cert, message", [  # a function edits what calibrate writes
        ("lemma5", [1, 2], "certificate must be a JSON object"),
        ("lemma6", "cert", "certificate must be a JSON object"),
        pytest.param("lemma5", lambda c: {k: v for k, v in c.items() if k != "entries"},
                     "certificate lacks entries", id="lemma5-cert2-certificate lacks entries"),
        pytest.param("lemma5", lambda c: {**c, "entries": [{**c["entries"][0], "y": 0.5}, *c["entries"][1:]]},
                     "certificate.entries[0].y is 0.5; calibrate_lemma5 writes -1",
                     id="lemma5-cert3-certificate.entries[0].y is 0.5"),
        pytest.param("lemma6", lambda c: {**c, "escape_by_K": {"x": 0.1, **c["escape_by_K"]}},
                     "escape_by_K holds 'x', which calibrate_lemma6 does not write",
                     id="lemma6-cert4-escape_by_K holds 'x'"),
        pytest.param("lemma6", lambda c: {**c, "escape_by_K": {**c["escape_by_K"], "16": "0.1"}},
                     "must be a finite number, got '0.1'", id="lemma6-cert5-must be a finite number"),
    ])
    def test_malformed_certificate_is_exit_2(self, capsys, tmp_path, what, cert, message):
        if callable(cert):
            cert = cert(calibrate_lemma5(0.5) if what == "lemma5" else calibrate_lemma6(0.2))
        path = tmp_path / "cert.json"
        path.write_text(json.dumps(cert))
        assert run_command(["verify", what, "--cert", str(path)]) == 2
        assert message in capsys.readouterr().err

    def test_repeated_scale_in_certificate_is_exit_2(self, capsys, tmp_path):
        # a false "64" before the true one verified with exit 0: json.load kept the last
        text = json.dumps(calibrate_lemma6(0.2))
        tampered = text.replace('"escape_by_K": {', '"escape_by_K": {"64": 0.5, ')
        assert tampered != text
        path = tmp_path / "cert.json"
        for body, code in ((text, 0), (tampered, 2)):
            path.write_text(body)
            assert run_command(["verify", "lemma6", "--cert", str(path)]) == code
        assert capsys.readouterr().err.endswith(f"error: {path} repeats key '64'\n")

    def test_reversibility(self, capsys):
        code, out = run(
            capsys,
            ["verify", "reversibility", "--q", "0.9", "--band", "8", "--mode", "rational"],
        )
        rec = record_from(out)
        assert code == 0
        assert rec["payload"]["residual"] == 0.0

    def test_heatkernel(self, capsys):
        code, out = run(
            capsys,
            ["verify", "heatkernel", "--q", "0.5", "--band", "16", "--t-grid", "64,128,256,512"],
        )
        rec = record_from(out)
        assert code == 0
        assert rec["payload"]["top_octave_growth"] < 0.01

    @pytest.mark.parametrize("grid", ["16,32,100", "1", "64,256"])
    def test_heatkernel_grid_without_half_its_top_is_exit_2(self, capsys, grid):
        argv = ["verify", "heatkernel", "--q", "0.5", "--band", "4", "--t-grid", grid]
        assert run_command(argv) == 2
        out, err = capsys.readouterr()
        assert out == "" and "t_grid" in err

    def test_heatkernel_band_zero_is_kept(self, capsys):
        code, out = run(
            capsys,
            ["verify", "heatkernel", "--q", "0.5", "--band", "0", "--t-grid", "64,128"],
        )
        assert code == 0
        assert record_from(out)["payload"]["band"] == 0
        assert record_from(out)["payload"]["probes"] == [0]


class TestRecordsAndConfig:
    def test_out_writes_file(self, capsys, tmp_path):
        path = tmp_path / "rec.json"
        code, out = run(
            capsys,
            ["evolve", "--policy", "constant:q=0.5,u=0.5", "--n", "8", "--out", str(path)],
        )
        assert code == 0
        assert str(path) in out
        rec = json.loads(path.read_text())
        assert rec["command"] == "evolve"
        assert "created_utc" in rec

    @pytest.mark.parametrize("command, what", [
        (name, what) for name, sub in _subcommands(_build_parser()).items()
        for what in next((a.choices for a in sub._actions if a.dest == "what"), [None])
    ])
    def test_every_record_echoes_out(self, capsys, tmp_path, command, what):
        cert, path = tmp_path / "cert.json", tmp_path / "record.out"
        if command == "verify" and what in ("lemma5", "lemma6"):
            cert.write_text(json.dumps(
                calibrate_lemma5(0.5) if what == "lemma5" else calibrate_lemma6(0.2)))
        argv = [command, *filter(None, [what]), *ECHO_ARGS[command, what].format(cert=cert).split(),
                "--out", str(path)]
        assert run_command(argv) == 0
        assert capsys.readouterr().out == f"wrote {path}\n"
        recs = records_from(argv, path.read_text())
        assert [r["config"]["out"] for r in recs] == [str(path)] * len(recs)

    def test_relative_out_resolved_against_env(self, capsys, tmp_path, monkeypatch):
        monkeypatch.setenv("CTRLWALK_OUT_DIR", str(tmp_path))
        code, _ = run(
            capsys,
            ["evolve", "--policy", "constant:q=0.5,u=0.5", "--n", "8", "--out", "sub/rec.json"],
        )
        assert code == 0
        assert (tmp_path / "sub" / "rec.json").exists()

    def test_config_round_trip(self, capsys, tmp_path):
        # every subcommand, run from flags and again from its echoed config
        cert = tmp_path / "cert5.json"
        cert.write_text(json.dumps(calibrate_lemma5(0.5)))
        runs = [
            ["evolve", "--policy", "two-zone:q=0.9,band=3", "--n", "64", "--target=-2:2"],
            ["evolve", "--policy", "constant:q=0.5,u=0.5", "--n", "10", "--start", "1",
             "--mode", "rational"],
            ["solve", "--q", "0.5", "--n", "6", "--objective", "min", "--target", "0:2"],
            ["region", "--q", "0.5", "--n", "6", "--objective", "max"],
            ["simulate", "--policy", "two-zone:q=0.9,band=4", "--n", "100", "--start", "2",
             "--target", "0:4", "--trials", "500", "--seed", "42"],
            ["barriers", "--policy", "constant:q=0.5,u=0.5", "--n", "64", "--beta", "0",
             "--start", "1", "--trials", "300", "--seed", "3"],
            ["exponent", "--policy-kind", "optimal", "--q", "0.9", "--n-grid", "16,32,64",
             "--min-n", "16", "--method", "exact", "--params", '{"objective": "min"}'],
            ["exponent", "--policy-kind", "constant", "--q", "0.5", "--n-grid", "16,32,64",
             "--min-n", "16", "--method", "mc", "--trials", "300", "--seed", "2"],
            ["verify", "lemma0", "--q", "0.9", "--h", "1", "--delta", "0.1", "--ell", "240",
             "--trials", "500", "--seed", "7"],
            ["verify", "lemma5", "--cert", str(cert)],
            ["verify", "reversibility", "--q", "0.5", "--band", "3", "--window", "5",
             "--mode", "rational"],
            ["verify", "heatkernel", "--q", "0.5", "--band", "4", "--t-grid", "16,32,64"],
            ["calibrate", "lemma5", "--q", "0.5"],
        ]
        for argv in runs:
            code, out = run(capsys, argv)
            recs = records_from(argv, out)
            positional = argv[:2] if argv[0] in ("verify", "calibrate") else argv[:1]
            path = write_config(tmp_path, recs[0]["config"])
            code2, out2 = run(capsys, [*positional, "--config", path])
            recs2 = records_from(argv, out2)
            assert code == code2 == 0, argv
            assert [r["payload"] for r in recs] == [r["payload"] for r in recs2], argv
            assert [r["provenance"] for r in recs] == [r["provenance"] for r in recs2], argv

    def test_flags_override_config(self, capsys, tmp_path):
        cfg = tmp_path / "cfg.json"
        cfg.write_text(
            json.dumps({"policy": "constant:q=0.5,u=0.5", "n": 16, "trials": 500, "seed": 1})
        )
        code, out = run(capsys, ["simulate", "--config", str(cfg), "--trials", "700"])
        assert code == 0
        assert record_from(out)["payload"]["trials"] == 700

    @pytest.mark.parametrize("kind", ["bang-bang-table", "schedule"])
    def test_policy_file_written_by_policy_to_json(self, capsys, tmp_path, kind):
        if kind == "schedule":
            n, policy = 64, schedule_policy(0.9, multiscale_qto1_schedule(0.9, 2, 64))
        else:
            n, policy = 32, solve_extremal(0.5, 32, "max", keep_values=False)[1].as_policy()
        path = tmp_path / "policy.json"
        path.write_text(json.dumps(policy_to_json(policy)))
        code, out = run(capsys, ["evolve", "--policy", f"file:{path}", "--n", str(n)])
        rec = record_from(out)
        assert code == 0
        assert rec["payload"]["policy"] == json.loads(path.read_text())
        assert rec["payload"]["p"] == hit_probability(policy, n)

    def test_mc_round_trip(self, capsys, tmp_path):
        code, out = run(
            capsys,
            [
                "simulate", "--policy", "fast-until-zero:q=0.7",
                "--n", "100", "--trials", "2000", "--seed", "42",
            ],
        )
        rec1 = record_from(out)
        cfg = tmp_path / "cfg.json"
        cfg.write_text(json.dumps(rec1["config"]))
        _, out2 = run(capsys, ["simulate", "--config", str(cfg)])
        assert rec1["payload"] == record_from(out2)["payload"]


class TestExponentCommand:
    def test_ndjson_and_csv(self, capsys, tmp_path):
        nd, cs = tmp_path / "sweep.ndjson", tmp_path / "sweep.csv"
        code = run_command(
            [
                "exponent", "--policy-kind", "constant", "--q", "0.5",
                "--n-grid", "128,256,512,1024", "--method", "exact",
                "--out", str(nd), "--csv", str(cs),
            ]
        )
        capsys.readouterr()
        assert code == 0
        lines = [json.loads(line) for line in nd.read_text().splitlines()]
        assert len(lines) == 5  # four grid points and the fit
        for line in lines[:-1]:
            assert line["command"] == "exponent"
            assert set(line["payload"]) >= {"policy_kind", "q", "n", "p", "method"}
        fit = lines[-1]["payload"]["fit"]
        assert set(fit) >= {"sigma_hat", "intercept", "r2", "n_min", "n_max", "local_slopes"}
        assert 0.4 < fit["sigma_hat"] < 0.6
        assert [s[:2] for s in fit["local_slopes"]] == [[128, 256], [256, 512], [512, 1024]]
        assert all(line["payload"]["error_bound"] <= 2.0**-60 * line["payload"]["p"]
                   for line in lines[:-1])
        header = cs.read_text().splitlines()[0]
        assert header == "policy_kind,q,n,p,method,ci_low,ci_high"

    def test_non_object_params_is_exit_2(self, capsys):
        code = run_command(
            [
                "exponent", "--policy-kind", "constant", "--q", "0.9", "--n-grid", "16,32,64",
                "--method", "mc", "--seed", "1", "--params", "[1]",
            ]
        )
        assert code == 2
        assert "--params" in capsys.readouterr().err

    def test_optimal_mc_sweep_samples_the_bang_bang_policy(self, capsys):
        code, out = run(
            capsys,
            [
                "exponent", "--policy-kind", "optimal", "--q", "0.9", "--n-grid", "16,32,64",
                "--min-n", "16", "--method", "mc", "--seed", "2", "--trials", "300",
            ],
        )
        assert code == 0
        points = [json.loads(line)["payload"] for line in out.splitlines()[:-1]]
        assert [r["n"] for r in points] == [16, 32, 64]
        for r in points:
            bb = solve_extremal(0.9, r["n"], "max", keep_values=False)[1]
            assert r["p"] == estimate_hit(bb.as_policy(), r["n"], trials=300, seed=2 + r["n"]).p_hat

    @pytest.mark.parametrize("grid, extra, message", [
        ("8192,512,1024", [], "strictly increasing"),
        ("64,128,16384", ["--min-n", "1000"], "only 1 points at n >= 1000"),
        ("512,1024", [], "at least 3 points"),
    ])
    @pytest.mark.parametrize("kind", ["constant", "optimal"])
    def test_bad_grid_is_exit_2_before_any_pass(self, capsys, monkeypatch, kind, grid, extra,
                                                 message):
        def refuse(*args, **kwargs):
            raise AssertionError("a pass ran")

        for name in ("_forward", "_backward"):
            monkeypatch.setattr(dp, name, refuse)
        argv = ["exponent", "--policy-kind", kind, "--q", "0.9", "--n-grid", grid]
        assert run_command(argv + extra) == 2
        assert message in capsys.readouterr().err

    def test_mc_method_needs_seed(self, capsys):
        code = run_command(
            [
                "exponent", "--policy-kind", "constant", "--q", "0.5",
                "--n-grid", "128,256,512", "--method", "mc",
            ]
        )
        assert code == 2


class TestInstalledScript:
    def test_console_entry_point(self):
        # the child imports the package under test, installed or not
        src = os.path.dirname(os.path.dirname(ctrlwalk.__file__))
        proc = subprocess.run(
            [sys.executable, "-c", "from ctrlwalk.cli import main; main()"],
            input="",
            capture_output=True,
            text=True,
            env={**os.environ, "PYTHONPATH": src},
        )
        assert proc.returncode == 2  # no subcommand given
