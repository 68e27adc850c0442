import csv
import dataclasses
import io
import json
import re
from fractions import Fraction
from math import gcd

import numpy as np
import pytest

from ssalign import cli, dof, lemmas, relay
from ssalign.channel import channel_from_json, slot_product
from ssalign.cli import main
from ssalign.lemmas import DEFAULT_SPEC
from ssalign.pipeline import construct
from ssalign.relay import build_relay_processor
from ssalign.units import execute_plan


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

    def test_verify_slope_miss_exits_one(self, capsys):
        # The fixed 40/50/60 dB window sits below the high-SNR regime here, so
        # the slope misses its 5% gate although the counted DoF is right.
        rc, out = run(capsys, "verify", "--m", "3", "--n", "5", "--k", "4",
                      "--seeds", "1", "--snr-sweep")
        assert rc == 1
        doc = json.loads(out)
        assert list(doc) == ["config", "expected_d_user", "expected_d_sum", "seeds",
                             "passes", "all_pass", "runs"]
        (row,) = doc["runs"]
        assert row["pass"] is True and row["d_sum_matches"] is True
        assert row["slope_ok"] is False and row["ok"] is False

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

    def test_pair_survival_failure_exits_three(self, capsys, monkeypatch):
        # No stream keeps twice its norm, so the first uplink pair fails.
        monkeypatch.setattr(relay, "PAIR_SURVIVAL_MIN", 2.0)
        rc, out = run(capsys, "build", "--m", "3", "--n", "8", "--k", "4", "--seed", "7")
        assert rc == 3
        doc = json.loads(out)
        assert doc["error"] == "AlignmentDegenerate"
        assert doc["seed"] == 7


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
        # A stage tracer swaps module attributes, so the mode lookup must read
        # them when the command runs, not when the CLI is imported.
        calls = []
        original = dof.achievable_basic

        def spy(m, n, k):
            calls.append((m, n, k))
            return original(m, n, k)

        monkeypatch.setattr(dof, "achievable_basic", spy)
        rc, out = run(capsys, "curve", "--k", "4", "--mode", "basic", "--ratios", "1/2,2/3")
        assert rc == 0
        assert calls == [(1, 2, 4), (2, 3, 4)]
        assert out.count("\n") == 3


class TestLemmas:
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
    ])
    def test_later_row_outside_its_domain_fails_before_any_trial(self, capsys, tmp_path,
                                                               monkeypatch, spec):
        draws = []
        honest = lemmas.complex_gaussian
        monkeypatch.setattr(lemmas, "complex_gaussian",
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

    def test_explicit_list_is_deduplicated_and_sorted(self, capsys):
        rows = _curve_rows(capsys, "--k", "3", "--mode", "outer", "--ratios", "2/3,1/2,2/4")
        assert [(row["ratio_num"], row["ratio_den"]) for row in rows] == \
            [("1", "2"), ("2", "3")]


def _pairs(a):
    """Reference ``[re, im]`` conversion, one entry at a time."""
    if a.ndim == 1:
        return [[float(z.real), float(z.imag)] for z in a]
    return [_pairs(row) for row in a]


def _same_floats(got, want) -> bool:
    got, want = np.array(got, dtype=float), np.array(want, dtype=float)
    return (got.shape == want.shape and np.array_equal(got, want)
            and np.array_equal(np.signbit(got), np.signbit(want)))


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
            assert len(doc["channels"][side]) == 4
            for got_user, want_user in zip(doc["channels"][side], getattr(built.channels, side)):
                assert len(got_user) == built.plan.extension
                for got, want in zip(got_user, want_user, strict=True):
                    assert _same_floats(got, _pairs(want))
        assert len(doc["units"]) == len(built.units)
        for got, want in zip(doc["units"], built.units):
            assert set(got) == {"pattern_order", "group", "column_block", "beamformers"}
            assert list(want.pairs) == sorted(want.pairs)
            assert list(got["beamformers"]) == [f"{a},{b}" for a, b in want.pairs]
            for (a, b), v in zip(want.pairs, want.beamformers.T, strict=True):
                assert _same_floats(got["beamformers"][f"{a},{b}"], _pairs(v))

    def test_equivalent_uplink_recomputes_from_document(self, capsys, built):
        # The document omits H_a u; channels and beamformers give it back exactly.
        _, out = run(capsys, *self.ARGV)
        doc = json.loads(out)
        ch = channel_from_json(doc["channels"])
        assert len(doc["units"]) == len(built.units)
        for got, want in zip(doc["units"], built.units):
            beams = got["beamformers"]
            images = []
            for a in sorted(got["group"]):
                # Sender a's columns, each a list of [re, im] pairs, as one complex matrix.
                run_a = [beams[key] for key in beams if key.split(",")[0] == str(a)]
                columns = np.array(run_a).view(np.complex128)[..., 0].T
                images.append(slot_product(ch.uplink[a], columns))
            assert np.array_equal(np.hstack(images), want.equivalent_uplink)

    def test_channels_replay_bit_identical(self, capsys, built):
        _, out = run(capsys, *self.ARGV)
        back = channel_from_json(json.loads(out)["channels"])
        units = execute_plan(built.plan, back)
        processor = build_relay_processor(units, back)
        assert len(units) == len(built.units)
        for got, want in zip(units, built.units):
            assert got.pairs == want.pairs
            assert np.array_equal(got.beamformers, want.beamformers)
        assert np.array_equal(processor.forward_matrix, built.processor.forward_matrix)
