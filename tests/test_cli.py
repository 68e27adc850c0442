import contextlib
import csv
import dataclasses
import hashlib
import io
import json
import random
import re
from fractions import Fraction
from math import gcd

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from reference import reference_curve_csv, reference_curve_rows

from ssalign import cli, dof, lemmas, pipeline, relay
from ssalign.channel import array_from_json, channel_from_json, slot_product
from ssalign.cli import main
from ssalign.errors import AlignmentDegenerate
from ssalign.lemmas import DEFAULT_SPEC
from ssalign.pipeline import construct
from ssalign.relay import build_relay_processor
from ssalign.units import execute_plan, plan_alignment


# A private function name such as ``_seed`` in argparse's message.
PRIVATE_NAME = re.compile(r"(?<![\w-])_[a-z]\w*")


def run(capsys, *argv):
    rc = main(list(argv))
    return rc, capsys.readouterr().out


class TestExitCodes:
    def test_build_passes(self, capsys):
        rc, out = run(capsys, "build", "--m", "3", "--n", "5", "--k", "3")
        assert rc == 0
        doc = json.loads(out)
        assert list(doc) == ["config", "plan", "channels", "units", "report"]
        assert doc["config"] == {"m": 3, "n": 5, "k": 3, "seed": 0, "improved": False}
        assert doc["report"]["pass"] is True

    def test_verify_snr_sweep_passes(self, capsys):
        # The slope is read where it has settled, so it measures the DoF.
        rc, out = run(capsys, "verify", "--m", "3", "--n", "5", "--k", "4",
                      "--seeds", "1", "--snr-sweep")
        assert rc == 0
        doc = json.loads(out)
        assert list(doc) == ["config", "expected_d_user", "expected_d_sum", "seeds",
                             "passes", "all_pass", "runs"]
        (row,) = doc["runs"]
        assert list(row) == ["seed", "pass", "d_sum", "d_sum_matches", "slope",
                             "slope_window_db", "slope_ok", "ok"]
        assert row["pass"] is True and row["d_sum_matches"] is True
        assert row["slope_ok"] is True and row["ok"] is True
        low, high = row["slope_window_db"]
        assert low in relay.SLOPE_SNR_DB and high in relay.SLOPE_SNR_DB and low < high
        assert row["slope"] == pytest.approx(10.0, rel=1e-3)

    def test_verify_slope_miss_exits_one(self, capsys, monkeypatch):
        # A slope off by half misses its 5% gate although the counted DoF is right.
        honest = cli.verify_end_to_end

        def halved(*args):
            report = honest(*args)
            return dataclasses.replace(report, slope=report.slope / 2)

        monkeypatch.setattr(cli, "verify_end_to_end", halved)
        rc, out = run(capsys, "verify", "--m", "3", "--n", "5", "--k", "4",
                      "--seeds", "1", "--snr-sweep")
        assert rc == 1
        doc = json.loads(out)
        (row,) = doc["runs"]
        assert row["pass"] is True and row["d_sum_matches"] is True
        assert row["slope_ok"] is False and row["ok"] is False
        assert doc["passes"] == 0 and doc["all_pass"] is False

    def test_build_verification_failure_exits_one(self, capsys, monkeypatch):
        # No desired coefficient clears the raised threshold, so no stream decodes.
        monkeypatch.setattr(relay, "DESIRED_COEFF_MIN", 1e9)
        rc, out = run(capsys, "build", "--m", "3", "--n", "5", "--k", "3")
        assert rc == 1
        report = json.loads(out)["report"]
        assert report["pass"] is False
        assert report["d_sum"] == 0

    def test_lemma_failure_exits_one(self, capsys, monkeypatch):
        # An empty intersection misses every intersection row that expects one.
        honest = lemmas.check_intersection

        def empty_intersections(*args):
            with monkeypatch.context() as patch:
                patch.setattr(lemmas, "_ranks", lambda stack: np.zeros(len(stack), dtype=int))
                return honest(*args)

        monkeypatch.setattr(lemmas, "check_intersection", empty_intersections)
        rc, out = run(capsys, "lemmas", "--trials", "2")
        assert rc == 1
        doc = json.loads(out)
        failures = {(r["params"]["m"], r["params"]["n"]): r["failures"]
                    for r in doc["results"] if r["lemma"] == "intersection"}
        assert failures == {(3, 5): 2, (2, 5): 0, (4, 4): 2}  # (2, 5) expects none
        assert doc["total_failures"] == 4

    @pytest.mark.parametrize("argv", [
        ["build", "--m", "3", "--n", "5", "--k", "2"],
        ["verify", "--m", "3", "--n", "5", "--k", "2", "--seeds", "1"],
        ["curve", "--k", "2"],
    ])
    def test_two_users_is_usage_error(self, capsys, argv):
        with pytest.raises(SystemExit) as info:
            main(argv)
        assert info.value.code == 2

    @pytest.mark.parametrize("argv", [
        ["build", "--m", "3", "--n", "5", "--k", "inf"],
        ["verify", "--m", "3", "--n", "5", "--k", "inf", "--seeds", "1"],
        ["curve", "--k", "many"],
    ])
    def test_non_integer_user_count_is_usage_error(self, capsys, argv):
        with pytest.raises(SystemExit) as info:
            main(argv)
        assert info.value.code == 2
        err = capsys.readouterr().err
        assert "--k" in err and "expected a user count >= 3" in err
        assert not PRIVATE_NAME.search(err)

    @pytest.mark.parametrize("argv,option", [
        (["build", "--m", "x", "--n", "5", "--k", "3"], "--m"),
        (["build", "--m", "3", "--n", "5.5", "--k", "3"], "--n"),
        (["build", "--m", "3", "--n", "5", "--k", "3", "--seed", "x"], "--seed"),
        (["verify", "--m", "3", "--n", "5", "--k", "3", "--seeds", "two"], "--seeds"),
        (["lemmas", "--trials", "1e3"], "--trials"),
    ])
    def test_non_integer_argument_names_no_private_function(self, capsys, argv, option):
        with pytest.raises(SystemExit) as info:
            main(argv)
        assert info.value.code == 2
        err = capsys.readouterr().err
        assert f"argument {option}: expected a" in err
        assert not PRIVATE_NAME.search(err)

    @pytest.mark.parametrize("argv", [
        ["build", "--m", "3", "--n", "5", "--k", "3", "--seed", "-1"],
        ["build", "--m", "3", "--n", "5", "--k", "3", "--seed", str(2**64)],
        ["verify", "--m", "3", "--n", "5", "--k", "3", "--seeds", "1", "--seed", "-1"],
        ["verify", "--m", "3", "--n", "5", "--k", "3", "--seeds", "2",
         "--seed", str(2**64 - 1)],
        ["lemmas", "--trials", "1", "--seed", "-1"],
    ])
    def test_seed_outside_unsigned_64_bits_is_usage_error(self, capsys, argv):
        with pytest.raises(SystemExit) as info:
            main(argv)
        assert info.value.code == 2
        assert "seed" in capsys.readouterr().err

    # Errors found after parsing go through the subcommand's own parser, like
    # argument-type errors, so they print that subcommand's usage.
    @pytest.mark.parametrize("argv", [
        ["curve", "--k", "3", "--ratios", "0"],
        ["curve", "--k", "3", "--ratios", "1e400"],  # beyond the largest float
        ["curve", "--k", "inf", "--ratios", "1e400"],
        ["curve", "--k", "3", "--ratios", "1e-400"],  # rounds to the float 0.0
        ["curve", "--k", "inf", "--ratios", "1e-400"],
        ["lemmas", "--trials", "1", "--config", "{missing}"],
        ["verify", "--m", "3", "--n", "5", "--k", "3", "--seed", str(2**64 - 1),
         "--seeds", "2"],
        ["build", "--m", "3", "--n", "5", "--k", "3", "--out", "{missing}"],
        ["curve", "--k", "x"],
    ])
    def test_usage_error_prints_the_subcommand_usage(self, capsys, tmp_path, argv):
        argv = [arg.format(missing=tmp_path / "missing" / "x.json") for arg in argv]
        with pytest.raises(SystemExit) as info:
            main(argv)
        assert info.value.code == 2
        err = capsys.readouterr().err
        assert err.startswith(f"usage: ssalign {argv[0]} ")
        assert f"\nssalign {argv[0]}: error: " in err

    def test_last_seed_of_the_range_runs(self, capsys):
        rc, out = run(capsys, "verify", "--m", "3", "--n", "5", "--k", "3", "--seeds", "1",
                      "--seed", str(2**64 - 1))
        assert rc == 0
        assert json.loads(out)["runs"][0]["seed"] == 2**64 - 1

    @pytest.mark.parametrize("command,extra", [
        ("build", ["--seed", "5"]),
        ("verify", ["--seeds", "2", "--seed", "5"]),
    ])
    def test_construction_failure_exits_three(self, capsys, command, extra):
        rc, out = run(capsys, command, "--m", "1", "--n", "2", "--k", "4", "--improved",
                      *extra)
        assert rc == 3
        doc = json.loads(out)
        assert doc["error"] == "ExtensionOverflow"
        assert doc["seed"] == 5
        # The plan failed before any channel was sampled.
        assert list(doc) == ["error", "message", "seed", "stage"]
        assert doc["stage"] == "plan"

    def test_repeated_calls_keep_their_own_exit_codes(self, capsys):
        # The parser is built once per process; each call still parses afresh.
        build = ["build", "--m", "3", "--n", "5", "--k", "3"]
        rc, first = run(capsys, *build)
        assert rc == 0 and json.loads(first)["config"]["seed"] == 0
        with pytest.raises(SystemExit) as info:
            main(["verify", "--m", "3", "--n", "5", "--k", "2", "--seeds", "1"])
        assert info.value.code == 2
        assert "expected a user count >= 3" in capsys.readouterr().err
        rc, out = run(capsys, "curve", "--k", "3", "--ratios", "1/2")
        assert rc == 0 and out.splitlines()[1].startswith("1,2,0.5,")
        rc, out = run(capsys, "verify", "--m", "1", "--n", "2", "--k", "4", "--improved",
                      "--seeds", "1", "--seed", "5")
        assert rc == 3 and json.loads(out)["error"] == "ExtensionOverflow"
        with pytest.raises(SystemExit) as info:
            main(["lemmas", "--trials", "0"])
        assert info.value.code == 2
        rc, out = run(capsys, *build, "--seed", "1")
        assert rc == 0 and json.loads(out)["config"]["seed"] == 1
        rc, again = run(capsys, *build)
        assert rc == 0 and again == first
        assert cli._build_parser() is cli._build_parser()

    def test_pair_survival_failure_exits_three(self, capsys, monkeypatch):
        # No stream keeps twice its norm, so the first uplink pair fails.
        monkeypatch.setattr(relay, "PAIR_SURVIVAL_MIN", 2.0)
        rc, out = run(capsys, "build", "--m", "3", "--n", "8", "--k", "4", "--seed", "7")
        assert rc == 3
        doc = json.loads(out)
        assert doc["error"] == "AlignmentDegenerate"
        assert doc["seed"] == 7
        # The document's channels replay the failure, message and all.
        ch = channel_from_json(doc["channels"])
        assert ch.seed == 7
        with pytest.raises(AlignmentDegenerate) as info:
            build_relay_processor(execute_plan(plan_alignment(3, 8, 4), ch))
        assert str(info.value) == doc["message"]


    @pytest.mark.parametrize("failure,argv,stage", [
        ("deaf", ["--m", "2", "--n", "6", "--k", "3", "--seed", "4"], "downlink"),
        ("survival", ["--m", "3", "--n", "8", "--k", "4", "--seed", "7"], "uplink"),
    ])
    def test_exit_three_document_replays_type_message_and_stage(self, capsys, monkeypatch,
                                                                  failure, argv, stage):
        if failure == "deaf":
            # User 0 hears nothing, so the random unit's downlink twin spans 4 of 6.
            sample = pipeline.sample_channel_set

            def deaf(cfg):
                ch = sample(cfg)
                downlink = ch.downlink.copy()
                downlink[0] = 0.0
                return dataclasses.replace(ch, downlink=downlink)

            monkeypatch.setattr(pipeline, "sample_channel_set", deaf)
        else:
            monkeypatch.setattr(relay, "PAIR_SURVIVAL_MIN", 2.0)
        rc, out = run(capsys, "build", *argv)
        assert rc == 3
        doc = json.loads(out)
        assert list(doc) == ["error", "message", "seed", "stage", "channels"]
        assert doc["stage"] == stage
        ch = channel_from_json(doc["channels"])
        m, n, k = (int(v) for v in argv[1:6:2])
        with pytest.raises(AlignmentDegenerate) as info:
            build_relay_processor(execute_plan(plan_alignment(m, n, k), ch))
        assert (type(info.value).__name__, str(info.value), info.value.stage) \
            == (doc["error"], doc["message"], doc["stage"])


class TestVerificationLookup:
    def test_build_reports_through_module_verifier(self, capsys, monkeypatch):
        # The benchmark's gate test corrupts cli.verify_end_to_end and expects
        # the build output to carry the corrupted count.
        honest = cli.verify_end_to_end

        def off_by_one(*args):
            report = honest(*args)
            return dataclasses.replace(report, counted_d_sum=report.counted_d_sum + 1)

        monkeypatch.setattr(cli, "verify_end_to_end", off_by_one)
        rc, out = run(capsys, "build", "--m", "3", "--n", "5", "--k", "3")
        assert rc == 0
        assert json.loads(out)["report"]["d_sum"] == dof.achievable_basic(3, 5, 3).d_sum + 1


class TestCurveLookup:
    def test_curve_calls_module_function(self, capsys, monkeypatch):
        # A stage tracer swaps module attributes, so the command must read
        # them when it runs, not when the CLI is imported.
        calls = []
        original = dof.curve

        def spy(k, mode, ratios, half_duplex):
            ratios = list(ratios)
            calls.append((k, mode, ratios, half_duplex))
            return original(k, mode, ratios, half_duplex)

        monkeypatch.setattr(dof, "curve", spy)
        rc, out = run(capsys, "curve", "--k", "4", "--mode", "basic", "--ratios", "1/2,2/3")
        assert rc == 0
        assert calls == [(4, "basic", [(1, 2), (2, 3)], False)]
        assert out.count("\n") == 3


class TestLemmas:
    # sha256 of the stdout recorded before the three rank checks shared one
    # measurement; the spec covers an empty intersection ([2, 5]), a stacked
    # rank and an extended direct sum.
    PINNED_SPEC = {"intersection": [[2, 5], [3, 5]], "stacked_rank": [[4, 2, 7]],
                   "direct_sum": [[3, 3, 2, 5, 2]]}

    @pytest.mark.parametrize("argv,config,digest", [
        (["--trials", "20", "--seed", "5"], False,
         "b5f402edb57a6099d690548ca6ce1bf211afe2a228e9c549e3c2bf17d21298b3"),
        (["--trials", "7", "--seed", "3"], True,
         "39a4bd8c08623194b3aa1fe037108b27d56fb465e86107dede806dc52addd8a1"),
    ])
    def test_stdout_is_pinned(self, capsys, tmp_path, argv, config, digest):
        if config:
            path = tmp_path / "battery.json"
            path.write_text(json.dumps(self.PINNED_SPEC))
            argv = [*argv, "--config", str(path)]
        rc, out = run(capsys, "lemmas", *argv)
        assert rc == 0
        assert hashlib.sha256(out.encode()).hexdigest() == digest

    def test_config_matches_builtin_battery(self, capsys, tmp_path):
        spec = tmp_path / "battery.json"
        spec.write_text(json.dumps(DEFAULT_SPEC))
        rc_default, out_default = run(capsys, "lemmas", "--trials", "3", "--seed", "4")
        rc_config, out_config = run(capsys, "lemmas", "--trials", "3", "--seed", "4",
                                    "--config", str(spec))
        assert rc_default == rc_config == 0
        assert out_config == out_default
        assert json.loads(out_default)["total_failures"] == 0

    @pytest.mark.parametrize("spec", [
        {"intersections": [[3, 5]]},
        {},
        {"intersection": []},
        {"intersection": [[3, 5, 7]]},
        {"intersection": [[3, 5]], "direct_sum": [[4, 3, 3]]},
        {"stacked_rank": [[3, 2, "4"]]},
        {"scaling": [{"k": 3}]},
        [[3, 5]],
        {"scaling": [{"k": 3, "grid": [5], "sigmas": [2]}]},
        {"scaling": [{"k": 3, "grid": 5, "sigmas": [2]}]},
        {"scaling": [{"k": "3", "grid": [[1, 2]], "sigmas": [2]}]},
        {"scaling": [{"k": 3, "grid": [[1, 2]], "sigmas": [2.5]}]},
        {"direct_sum": [[4, 3, 3, 8, 0]]},
        {"direct_sum": [[4, 3, 3, 8, -1]]},
    ])
    def test_bad_config_is_usage_error_before_any_trial(self, capsys, tmp_path, monkeypatch,
                                                        spec):
        calls = []
        monkeypatch.setattr(lemmas, "check_intersection",
                            lambda *args, **kw: calls.append(args))
        path = tmp_path / "battery.json"
        path.write_text(json.dumps(spec))
        with pytest.raises(SystemExit) as info:
            main(["lemmas", "--trials", "1", "--config", str(path)])
        assert info.value.code == 2
        captured = capsys.readouterr()
        assert captured.out == ""
        assert "--config" in captured.err
        assert calls == []

    def test_config_outside_check_domain_is_usage_error(self, capsys, tmp_path):
        path = tmp_path / "battery.json"
        path.write_text(json.dumps({"intersection": [[5, 3]]}))  # needs M <= N
        with pytest.raises(SystemExit) as info:
            main(["lemmas", "--trials", "1", "--config", str(path)])
        assert info.value.code == 2
        assert "M <= N" in capsys.readouterr().err

    @pytest.mark.parametrize("spec,why", [
        ({"intersection": [[0, 4]]}, "1 <= M <= N"),
        ({"intersection": [[-1, 4]]}, "1 <= M <= N"),
        ({"scaling": [{"k": 2, "grid": [[1, 2]], "sigmas": [2]}]}, "K >= 3"),
        ({"direct_sum": [[3, 2, 0, -1]]}, "M >= 1 and N >= 1"),
        ({"stacked_rank": [[-3, -1, 1]]}, "1 <= M <= N < KM"),
        ({"direct_sum": [[3, 2, 1, 0]]}, "M >= 1 and N >= 1"),
    ])
    def test_config_below_check_domain_is_usage_error(self, capsys, tmp_path, spec, why):
        path = tmp_path / "battery.json"
        path.write_text(json.dumps(spec))
        with pytest.raises(SystemExit) as info:
            main(["lemmas", "--trials", "1", "--config", str(path)])
        assert info.value.code == 2
        assert why in capsys.readouterr().err

    @pytest.mark.parametrize("spec", [
        {"direct_sum": [[4, 3, 7, 20, 1]], "scaling": [{"k": 2, "grid": [[1, 2]], "sigmas": [2]}]},
        {"intersection": [[3, 5], [5, 3]]},
        {"intersection": [[3, 5]], "stacked_rank": [[3, 2, 6]]},
        {"stacked_rank": [[3, 2, 4]], "direct_sum": [[3, 3, 2, 5, 0]]},
        {"intersection": [[3, 5]], "direct_sum": [[3, 2, 0, -1]]},
        {"intersection": [[3, 5]], "stacked_rank": [[-3, -1, 1]]},
        {"intersection": [[3, 5]], "direct_sum": [[3, 2, 1, 0]]},
    ])
    def test_later_row_outside_its_domain_fails_before_any_trial(self, capsys, tmp_path,
                                                               monkeypatch, spec):
        draws = []
        honest = lemmas._gaussian_draws
        monkeypatch.setattr(lemmas, "_gaussian_draws",
                            lambda *args: draws.append(args) or honest(*args))
        path = tmp_path / "battery.json"
        path.write_text(json.dumps(spec))
        with pytest.raises(SystemExit) as info:
            main(["lemmas", "--trials", "2", "--config", str(path)])
        assert info.value.code == 2
        assert capsys.readouterr().out == ""
        assert draws == []

    @pytest.mark.parametrize("text", [None, "{'intersection': [[3, 5]]}", "\xff\xfe"])
    def test_missing_or_non_json_config_is_usage_error(self, capsys, tmp_path, text):
        path = tmp_path / "battery.json"
        if text is not None:
            path.write_bytes(text.encode("latin-1"))
        with pytest.raises(SystemExit) as info:
            main(["lemmas", "--trials", "1", "--config", str(path)])
        assert info.value.code == 2
        assert str(path) in capsys.readouterr().err


class TestOut:
    @pytest.mark.parametrize("argv", [
        ["build", "--m", "3", "--n", "5", "--k", "3"],
        ["verify", "--m", "3", "--n", "5", "--k", "3", "--seeds", "1"],
        ["build", "--m", "1", "--n", "2", "--k", "4", "--improved"],  # exit-3 diagnostic
        ["curve", "--k", "3", "--ratios", "1/2"],
        ["lemmas", "--trials", "1"],
    ])
    def test_unwritable_out_is_usage_error(self, capsys, tmp_path, argv):
        path = tmp_path / "missing" / "x.json"
        with pytest.raises(SystemExit) as info:
            main([*argv, "--out", str(path)])
        assert info.value.code == 2
        captured = capsys.readouterr()
        assert captured.out == ""
        assert str(path) in captured.err

    @pytest.mark.parametrize("argv", [
        ["build", "--m", "3", "--n", "5", "--k", "3"],
        ["curve", "--k", "3", "--ratios", "1/2,2/3"],
    ])
    def test_out_file_holds_the_stdout_text(self, capsys, tmp_path, argv):
        rc, out = run(capsys, *argv)
        path = tmp_path / "out.txt"
        assert run(capsys, *argv, "--out", str(path)) == (rc, "")
        assert path.read_text() == out


def _curve_rows(capsys, *argv):
    rc, out = run(capsys, "curve", *argv)
    assert rc == 0
    return list(csv.DictReader(io.StringIO(out)))


def _fraction(row, prefix):
    return Fraction(int(row[f"{prefix}_num"]), int(row[f"{prefix}_den"]))


class TestCurveCsv:
    FAREY_12 = sorted(Fraction(p, q) for q in range(1, 13) for p in range(1, q + 1)
                      if gcd(p, q) == 1)

    def test_basic_rows_are_exact_on_farey_grid(self, capsys):
        rows = _curve_rows(capsys, "--k", "4", "--mode", "basic", "--ratios", "farey:12")
        assert [_fraction(row, "ratio") for row in rows] == self.FAREY_12
        for row in rows:
            r = _fraction(row, "ratio")
            assert (int(row["ratio_num"]), int(row["ratio_den"])) == (r.numerator,
                                                                        r.denominator)
            res = dof.achievable_basic(r.numerator, r.denominator, 4)
            assert _fraction(row, "value") == res.d_user / r.denominator
            assert float(row["value"]) == float(res.d_user / r.denominator)
            assert row["capacity_tight"] == str(res.capacity_tight).lower()
            assert row["mode"] == "basic"

    def test_half_duplex_halves_every_value(self, capsys):
        argv = ("--k", "4", "--mode", "basic", "--ratios", "farey:12")
        full = _curve_rows(capsys, *argv)
        half = _curve_rows(capsys, *argv, "--half-duplex")
        assert [_fraction(row, "ratio") for row in half] == self.FAREY_12
        assert [_fraction(row, "value") for row in half] == \
            [_fraction(row, "value") / 2 for row in full]

    def test_many_user_limit_rows(self, capsys):
        rows = _curve_rows(capsys, "--k", "inf", "--mode", "improved", "--ratios", "farey:12")
        assert [_fraction(row, "ratio") for row in rows] == self.FAREY_12
        for row in rows:
            r = _fraction(row, "ratio")
            assert _fraction(row, "value") == dof.asymptotic_dof(r, improved=True)
            assert row["mode"] == "asymptotic-improved"
            assert row["capacity_tight"] == "false"


def _boundaries(k):
    """The breakpoints of K's curves: the capacity thresholds, every theta_t and tau_t."""
    points = set(dof.capacity_thresholds(k))
    for t in range(2, k):
        coef = dof.gamma_theta_tau(1, 1, k, t)
        points |= {coef.theta_t, coef.tau_t} - {None}
    return points


class TestCurveMatchesReference:
    # Exact breakpoints are where a strict comparison written for a non-strict
    # one would show; ratios above 1 take the clamp at M = N.  K = 40 makes
    # the binomial constants large.
    EXPLICIT = sorted(_boundaries(4) | _boundaries(5) | _boundaries(6)
                      | {Fraction(5, 3), Fraction(2), Fraction(7, 2)})
    FAREY_30 = sorted({Fraction(p, q) for q in range(1, 31) for p in range(1, q + 1)})
    CURVES = [(k, mode) for k in (3, 4, 5, 6, 7, 40) for mode in ("outer", "basic", "improved")] \
        + [("inf", "basic"), ("inf", "improved")]

    @pytest.mark.parametrize("half_duplex", [False, True])
    @pytest.mark.parametrize("grid", ["farey", "explicit"])
    @pytest.mark.parametrize("k,mode", CURVES)
    def test_csv_equals_fraction_reference(self, capsys, k, mode, grid, half_duplex):
        if grid == "farey":
            spec, ratios = "farey:30", self.FAREY_30
        else:
            spec, ratios = ",".join(str(r) for r in self.EXPLICIT), self.EXPLICIT
        argv = ["curve", "--k", str(k), "--mode", mode, "--ratios", spec]
        rc, out = run(capsys, *argv, *(["--half-duplex"] if half_duplex else []))
        assert rc == 0
        assert out == reference_curve_csv(k, mode, ratios, half_duplex)


def _farey(q):
    return sorted({Fraction(p, d) for d in range(1, q + 1) for p in range(1, d + 1)})


class TestCurveWalk:
    """Finite-K basic and improved curves are walked by cells; every row is the point rule's."""

    FAREY_60 = _farey(60)

    @pytest.mark.parametrize("half_duplex", [False, True])
    @pytest.mark.parametrize("mode", ["basic", "improved"])
    @pytest.mark.parametrize("k", [*range(3, 13), 20, 64, 160])
    def test_rows_equal_the_reference(self, capsys, k, mode, half_duplex):
        duplex = ["--half-duplex"] if half_duplex else []
        rc, out = run(capsys, "curve", "--k", str(k), "--mode", mode, "--ratios", "farey:60",
                      *duplex)
        assert rc == 0
        assert out == reference_curve_csv(k, mode, self.FAREY_60, half_duplex)
        # Shuffled, with every breakpoint exactly, ratios above 1 and unreduced
        # duplicates: the cells are found and filled in any order.
        extra = _boundaries(k) | {Fraction(1, t) for t in range(1, k + 1)} \
            | {Fraction(5, 3), Fraction(2), Fraction(7, 2)}
        pairs = [(r.numerator, r.denominator) for r in [*self.FAREY_60, *sorted(extra)]]
        pairs += [(3 * c, 3 * d) for c, d in pairs[::5]]
        random.Random(k).shuffle(pairs)
        assert list(dof.curve(k, mode, pairs, half_duplex)) == \
            reference_curve_rows(k, mode, pairs, half_duplex)

    @pytest.mark.parametrize("mode", ["basic", "improved"])
    def test_a_dropped_breakpoint_raises(self, monkeypatch, mode):
        # theta_3 is the corner of K = 5's basic curve and the end of its
        # improved curve's interval 3, inside regime 3, (1/3, 1/2].
        k, t = 5, 3
        theta = Fraction(*dof._theta(k, t))
        bounds = [Fraction(*p) for p in dof._breakpoints(k, t)]
        assert Fraction(1, 3) < theta < Fraction(1, 2) and theta in bounds
        below, above = (bounds[bounds.index(theta) + step] for step in (-1, 1))
        # The merged cell's two outermost ratios first: the chord through them
        # misses every ratio between them on one side of the corner.
        ratios = self.FAREY_60
        inside = [r for r in ratios if below < r < above]
        order = [inside[0], inside[-1]] + [r for r in ratios if r not in (inside[0], inside[-1])]
        pairs = [(r.numerator, r.denominator) for r in order]
        assert list(dof.curve(k, mode, pairs)) == reference_curve_rows(k, mode, pairs)

        breakpoints = dof._breakpoints

        def without_theta(kk, tt):
            return tuple(p for p in breakpoints(kk, tt) if (kk, tt, Fraction(*p)) != (k, t, theta))
        monkeypatch.setattr(dof, "_breakpoints", without_theta)
        with pytest.raises(AssertionError, match="off the line of its curve cell"):
            list(dof.curve(k, mode, pairs))


class TestLargeKCurves:
    # sha256 of the stdout, recorded before the curves were walked by cells.
    @pytest.mark.parametrize("argv,digest", [
        ("--k 640 --mode improved --ratios farey:48",
         "092d5438285055c5ac0813f405cab8a361dc4020d35c0b6e7db6155bd356b2d7"),
        ("--k 160 --mode basic --ratios farey:120 --half-duplex",
         "f11d0901fcc00633400246a267fbdc583268f5c05385a327797d593d1b7cf3ce"),
    ])
    def test_stdout_is_pinned(self, capsys, argv, digest):
        rc, out = run(capsys, "curve", *argv.split())
        assert rc == 0
        assert hashlib.sha256(out.encode()).hexdigest() == digest


@pytest.mark.slow
@pytest.mark.parametrize("k", range(3, 65))
def test_every_mode_up_to_64_users_matches_the_reference(capsys, k):
    ratios = _farey(80)
    for mode in ("outer", "basic", "improved"):
        rc, out = run(capsys, "curve", "--k", str(k), "--mode", mode, "--ratios", "farey:80")
        assert rc == 0
        assert out == reference_curve_csv(k, mode, ratios)


# Ratios for the curve text: p/q up to 10**6 (above 1 they clamp), and values
# near 1e-300 and 1e300, whose float repr takes the exponent form.
RATIOS = st.one_of(
    st.builds(Fraction, st.integers(1, 10**6), st.integers(1, 10**6)),
    st.builds(lambda p, e: p * Fraction(10) ** e, st.integers(1, 999), st.integers(-303, -297)),
    st.builds(lambda p, e: p * Fraction(10) ** e, st.integers(1, 999), st.integers(297, 302)),
)
CURVE_SPECS = st.one_of(
    st.tuples(st.integers(3, 8), st.sampled_from(["outer", "basic", "improved"])),
    st.tuples(st.just("inf"), st.sampled_from(["basic", "improved"])),
)


def _curve_text(k, mode, spec, half_duplex):
    argv = ["curve", "--k", str(k), "--mode", mode, "--ratios", spec]
    out = io.StringIO()
    with contextlib.redirect_stdout(out):
        rc = main(argv + (["--half-duplex"] if half_duplex else []))
    assert rc == 0
    return out.getvalue()


class TestCurveTextReuse:
    """A value's text is reused from the row above or from its ratio; the bytes never change."""

    @settings(max_examples=150, deadline=None)
    @given(ratios=st.lists(RATIOS, min_size=1, max_size=40, unique=True).map(sorted),
           curve=CURVE_SPECS, half_duplex=st.booleans())
    def test_any_sorted_grid_matches_the_reference(self, ratios, curve, half_duplex):
        k, mode = curve
        spec = ",".join(str(r) for r in ratios)
        assert _curve_text(k, mode, spec, half_duplex) == \
            reference_curve_csv(k, mode, ratios, half_duplex)

    @pytest.mark.parametrize("k", [3, "inf"])
    def test_one_row_grid(self, k):
        ratios = [Fraction(2, 7)]
        assert _curve_text(k, "basic", "2/7", False) == reference_curve_csv(k, "basic", ratios)

    def test_farey_12_takes_all_three_sources(self):
        ratios = sorted({Fraction(p, q) for q in range(1, 13) for p in range(1, q + 1)})
        text = _curve_text(5, "improved", "farey:12", False)
        assert text == reference_curve_csv(5, "improved", ratios)
        rows = list(csv.DictReader(io.StringIO(text)))
        sources = {"above": 0, "ratio": 0, "new": 0}
        above = None
        for row in rows:
            value = (row["value_num"], row["value_den"])
            if value == above:
                sources["above"] += 1
            elif value == (row["ratio_num"], row["ratio_den"]):
                sources["ratio"] += 1
            else:
                sources["new"] += 1
            above = value
        assert sources == {"above": 25, "ratio": 11, "new": 10}


class TestRatioGrid:
    @pytest.mark.parametrize("q", [1, 2, 7, 12, 60])
    def test_farey_grid_is_the_sorted_reduced_set(self, capsys, q):
        rows = _curve_rows(capsys, "--k", "3", "--mode", "outer", "--ratios", f"farey:{q}")
        got = [(int(row["ratio_num"]), int(row["ratio_den"])) for row in rows]
        want = sorted({Fraction(p, d) for d in range(1, q + 1) for p in range(1, d + 1)})
        assert got == [(r.numerator, r.denominator) for r in want]
        ratios = [Fraction(*pair) for pair in got]
        assert all(a < b for a, b in zip(ratios, ratios[1:]))
        assert got[-1] == (1, 1)

    def test_farey_one_is_only_one(self, capsys):
        rows = _curve_rows(capsys, "--k", "3", "--mode", "outer", "--ratios", "farey:1")
        assert [(row["ratio_num"], row["ratio_den"]) for row in rows] == [("1", "1")]

    @pytest.mark.parametrize("k", ["3", "inf"])
    def test_ratio_below_the_largest_float_runs(self, capsys, k):
        # 1e400 is a usage error, having no float for the ratio column; 1e308 has one.
        rows = _curve_rows(capsys, "--k", k, "--ratios", "1e308")
        assert [(row["ratio_den"], row["ratio"]) for row in rows] == [("1", "1e+308")]

    @pytest.mark.parametrize("k", ["3", "inf"])
    def test_smallest_positive_float_ratio_runs(self, capsys, k):
        # 1e-400 is a usage error, its float being 0.0; 5e-324 is the smallest positive one.
        rows = _curve_rows(capsys, "--k", k, "--ratios", "5e-324")
        assert [(row["ratio_num"], row["ratio"]) for row in rows] == [("1", "5e-324")]

    def test_explicit_list_is_deduplicated_and_sorted(self, capsys):
        rows = _curve_rows(capsys, "--k", "3", "--mode", "outer", "--ratios", "2/3,1/2,2/4")
        assert [(row["ratio_num"], row["ratio_den"]) for row in rows] == \
            [("1", "2"), ("2", "3")]

    # Fraction reads PEP 515 underscores from Python 3.11 on and refuses them
    # before, so a ratio with one is refused on every version.
    @pytest.mark.parametrize("spec", ["1_000,2/3", "2/1_0", "0.2_5", "1e1_0"])
    def test_underscore_in_a_ratio_is_a_usage_error(self, capsys, spec):
        with pytest.raises(SystemExit) as info:
            main(["curve", "--k", "3", "--ratios", spec])
        assert info.value.code == 2
        captured = capsys.readouterr()
        assert captured.out == ""
        assert f"ssalign curve: error: bad ratio list {spec!r}" in captured.err


class TestBuildDocument:
    # (3, 5, 4) plans a symbol extension of 6, and its document holds -0.0s.
    ARGV = ("build", "--m", "3", "--n", "5", "--k", "4")

    @pytest.fixture(scope="class")
    def built(self):
        built = construct(3, 5, 4, 0)
        assert built.plan.extension > 1
        return built

    def test_entries_equal_library_arrays(self, capsys, built):
        rc, out = run(capsys, *self.ARGV)
        assert rc == 0
        assert out.endswith("\n") and out.count("\n") == 1
        doc = json.loads(out)
        for side in ("uplink", "downlink"):
            got = array_from_json(doc["channels"][side], 4)
            want = getattr(built.channels, side)
            assert got.shape[:2] == (4, built.plan.extension)
            # Equal bytes: every bit of every entry, signed zeros included.
            assert got.shape == want.shape and got.tobytes() == want.tobytes()
        assert len(doc["units"]) == len(built.units)
        for got, want in zip(doc["units"], built.units):
            assert list(got) == ["pattern_order", "group", "column_block", "pairs",
                                 "beamformers"]
            assert list(want.pairs) == sorted(want.pairs)
            assert got["pairs"] == [[a, b] for a, b in want.pairs]
            beams = array_from_json(got["beamformers"], 2)
            assert beams.shape == (3 * built.plan.extension, len(want.pairs))
            assert beams.tobytes() == want.beamformers.tobytes()

    def test_equivalent_uplink_recomputes_from_document(self, capsys, built):
        # The document omits H_a u; channels and beamformers give it back exactly.
        _, out = run(capsys, *self.ARGV)
        doc = json.loads(out)
        ch = channel_from_json(doc["channels"])
        assert len(doc["units"]) == len(built.units)
        for got, want in zip(doc["units"], built.units):
            beams = array_from_json(got["beamformers"], 2)
            images = []
            for a in sorted(got["group"]):
                cols = [i for i, pair in enumerate(got["pairs"]) if pair[0] == a]
                images.append(slot_product(ch.uplink[a], beams[:, cols]))
            assert np.array_equal(np.hstack(images), want.equivalent_uplink)

    def test_channels_replay_bit_identical(self, capsys, built):
        _, out = run(capsys, *self.ARGV)
        back = channel_from_json(json.loads(out)["channels"])
        units = execute_plan(built.plan, back)
        processor = build_relay_processor(units)
        assert len(units) == len(built.units)
        for got, want in zip(units, built.units):
            assert got.pairs == want.pairs
            assert np.array_equal(got.beamformers, want.beamformers)
        assert np.array_equal(processor.forward_matrix, built.processor.forward_matrix)
