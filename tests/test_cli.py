import dataclasses
import json

import pytest

from ssalign import cli, dof
from ssalign.cli import main
from ssalign.lemmas import DEFAULT_SPEC


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
