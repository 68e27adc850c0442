"""The benchmark ladder runs a rung in its own process and records every field."""

import argparse
import importlib.util
import json
import subprocess
import sys
from pathlib import Path

import pytest

LADDER = Path(__file__).resolve().parents[1] / "bench" / "ladder.py"

TOP_KEYS = {"commit", "src_dirty", "src_sha256", "src_lines", "host", "seeds", "rungs", "oracle"}
RUNG_KEYS = {"rung", "m", "n", "k", "improved", "uncapped", "closed_form_d_sum", "extension",
             "n_active", "pass", "d_sum", "smallest_desired", "wall_s", "stages_s", "svd_calls",
             "svd_max_dim", "peak_rss_mb", "seeds"}
ORACLE_KEYS = {"battery_trials", "repeats", "battery_s", "battery_pass", "battery_svd_calls",
               "curves_s", "curve_s", "curves_cli_s", "peak_rss_mb", "curve_cold_s"}
STAGES = {"units.plan_s", "units.execute_s", "channel.sample_s", "relay.uplink_s",
          "relay.downlink_s", "relay.forward_s", "relay.verify_s"}


def ladder(*args):
    return subprocess.run([sys.executable, str(LADDER), *args], stdout=subprocess.PIPE,
                          stderr=subprocess.PIPE, text=True)


def test_one_rung_records_every_field(tmp_path):
    out = tmp_path / "ladder.json"
    done = ladder("--rungs", "3,5,3", "--seeds", "0", "--out", str(out))
    assert done.returncode == 0, done.stderr
    doc = json.loads(out.read_text())
    assert set(doc) == TOP_KEYS
    [rung] = doc["rungs"]
    assert set(rung) == RUNG_KEYS
    assert (rung["pass"], rung["d_sum"], rung["closed_form_d_sum"]) == (True, ["9/1"], "9/1")
    assert set(rung["stages_s"]) == STAGES
    assert rung["svd_calls"] > 0 and rung["smallest_desired"] > 0
    assert set(doc["oracle"]) == ORACLE_KEYS
    assert doc["oracle"]["battery_pass"] and len(doc["oracle"]["curve_s"]) == 14
    assert doc["oracle"]["curves_cli_s"] > 0 and doc["oracle"]["repeats"] >= 1
    assert doc["oracle"]["curve_cold_s"] > 0


def test_bad_rung_is_a_usage_error(tmp_path):
    done = ladder("--rungs", "3,5", "--out", str(tmp_path / "ladder.json"))
    assert done.returncode == 2
    assert "rung '3,5' is not M,N,K with an optional ,improved and then ,uncapped" in done.stderr


def load_ladder():
    spec = importlib.util.spec_from_file_location("ladder", LADDER)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


def test_rung_suffixes_parse_without_running_the_rung():
    ladder_module = load_ladder()
    parse = ladder_module.parse_rung
    assert parse("3,5,3") == (3, 5, 3, False, False)
    assert parse("5,9,5,improved") == (5, 9, 5, True, False)
    assert parse("12,23,7,uncapped") == (12, 23, 7, False, True)
    assert parse("4,9,5,improved,uncapped") == (4, 9, 5, True, True)
    for bad in ("3,5", "3,5,3,uncapped,improved", "3,5,3,capped", "3,5,3,improved,improved"):
        with pytest.raises(argparse.ArgumentTypeError):
            parse(bad)
    # The cap-lifted rungs are on the ladder, past the cap they lift, and
    # the CI smoke rung is not one of them.
    from ssalign import units
    from ssalign.errors import ExtensionOverflow

    lifted = [rung for rung in ladder_module.RUNGS if rung.endswith(",uncapped")]
    assert lifted == ["3,7,6,uncapped", "4,11,6,uncapped", "12,23,7,uncapped"]
    for rung in lifted:
        m, n, k, improved, _ = parse(rung)
        with pytest.raises(ExtensionOverflow):
            units.plan_alignment(m, n, k, improved)
    assert not parse("3,5,3")[4]
