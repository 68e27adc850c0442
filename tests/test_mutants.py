"""The mutation battery edits a copy of the tree and reports which test kills each edit."""

import importlib.util
import json
import subprocess
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parents[1]
BATTERY = ROOT / "bench" / "mutants.py"


def load_battery():
    spec = importlib.util.spec_from_file_location("mutants", BATTERY)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


def test_every_edit_applies_to_the_tree_once():
    battery = load_battery()
    names = [name for name, *_ in battery.MUTANTS]
    assert len(set(names)) == len(names)
    for name, path, old, new in battery.MUTANTS:
        assert (ROOT / path).read_text().count(old) == 1, name
        assert old != new, name


def test_a_known_mutant_is_killed_by_one_test_file(tmp_path):
    out = tmp_path / "mutants.json"
    done = subprocess.run([sys.executable, str(BATTERY), "--out", str(out),
                           "--only", "rank-rel-constant", "--tests", "tests/test_linalg.py"],
                          stdout=subprocess.PIPE, stderr=subprocess.PIPE, text=True)
    assert done.returncode == 0, done.stderr
    doc = json.loads(out.read_text())
    [result] = doc["mutants"]
    assert (result["name"], result["file"], result["killed"]) == \
        ("rank-rel-constant", "src/ssalign/linalg.py", True)
    assert result["first_failure"].startswith("tests/test_linalg.py::")
    assert (doc["killed"], doc["survived"]) == (1, [])
    # The tree itself is left as it was.
    assert "RANK_REL = 1e-10" in (ROOT / "src" / "ssalign" / "linalg.py").read_text()
