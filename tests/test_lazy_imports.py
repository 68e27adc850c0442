"""``import ssalign`` and the ``curve`` command load no numpy; a numeric name loads it all.

Each case runs in a fresh interpreter, because this test process has loaded
every module long before.  Loading the whole numeric stack at once matters
to the benchmark's stage tracer, which wraps functions of loaded modules
only.  The ``dof`` path is also checked under ``python -S``, where no site
hook can load a module first, against the heavy standard-library modules a
cold ``curve`` has no use for.
"""

import hashlib
import json
import os
import subprocess
import sys
from pathlib import Path

import pytest

import ssalign

ROOT = Path(__file__).resolve().parents[1]
NUMERIC = ["numpy", *(f"ssalign.{name}" for name in
                      ("linalg", "channel", "units", "relay", "pipeline", "lemmas"))]
# Costly imports the dof path has no use for: its records are named tuples,
# so it needs no dataclasses, which loads inspect (and ast, dis, tokenize).
HEAVY = ["dataclasses", "inspect", "numpy", "typing"]
CURVE = ["curve", "--k", "3", "--mode", "basic", "--ratios", "farey:8"]
CURVE_SHA256 = json.loads((ROOT / "perfbench" / "curves.sha256.json").read_text())[
    "sha256"][" ".join(CURVE)]


def fresh(script: str, watch: list[str] = NUMERIC,
          flags: tuple[str, ...] = ()) -> tuple[list[str], str]:
    """The ``watch`` modules loaded after ``script`` runs in a new interpreter, and its stdout."""
    probe = (f"{script}\nimport json, sys\n"
             f"print(json.dumps(sorted(set({watch!r}) & set(sys.modules))))")
    path = os.pathsep.join(filter(None, [str(ROOT / "src"), os.environ.get("PYTHONPATH")]))
    done = subprocess.run([sys.executable, *flags, "-c", probe],
                          env={**os.environ, "PYTHONPATH": path},
                          stdout=subprocess.PIPE, stderr=subprocess.PIPE, text=True)
    assert done.returncode == 0, done.stderr
    *out, last = done.stdout.splitlines(keepends=True)
    return json.loads(last), "".join(out)


def test_import_and_curve_load_no_numpy():
    loaded, out = fresh(f"import ssalign\nimport ssalign.dof\nimport ssalign.cli\n"
                        f"ssalign.cli.main({CURVE!r})")
    assert loaded == []
    assert hashlib.sha256(out.encode()).hexdigest() == CURVE_SHA256


def test_dof_names_and_unknown_names_load_no_numpy():
    loaded, out = fresh("import ssalign\nfrom ssalign import cli\n"
                        "print(ssalign.achievable_basic(3, 5, 3).d_sum)\n"
                        "for module in (ssalign, cli):\n"
                        "    try:\n"
                        "        module.nullspace_basis\n"
                        "    except AttributeError as exc:\n"
                        "        print(exc)")
    assert loaded == []
    assert out.splitlines() == ["9", "module 'ssalign' has no attribute 'nullspace_basis'",
                                "module 'ssalign.cli' has no attribute 'nullspace_basis'"]


@pytest.mark.parametrize("script,out", [
    ("import ssalign\nimport ssalign.dof", ""),
    ("import ssalign\nprint(ssalign.achievable_basic(3, 5, 3).d_sum)\n"
     "print(ssalign.gamma_theta_tau(3, 5, 4, 2).tau_t)", "9\n7/16\n"),
], ids=["import", "records"])
def test_dof_path_loads_no_heavy_module_without_site(script, out):
    assert fresh(script, HEAVY, ("-S",)) == ([], out)


def test_curve_loads_no_heavy_module_without_site():
    loaded, out = fresh(f"from ssalign import cli\ncli.main({CURVE!r})", HEAVY, ("-S",))
    assert loaded == []
    assert hashlib.sha256(out.encode()).hexdigest() == CURVE_SHA256


@pytest.mark.parametrize("script", [
    "import ssalign\nssalign.construct",
    "from ssalign import RANK_REL",
    "from ssalign import cli\ncli.verify_end_to_end",
    "from ssalign import cli\ncli.main(['lemmas', '--trials', '1'])",
])
def test_one_numeric_name_loads_the_whole_stack(script):
    loaded, _ = fresh(script)
    assert loaded == sorted(NUMERIC)


def test_loading_keeps_a_name_bound_before():
    # perfbench's gate test patches cli.verify_end_to_end; build must call the patch.
    loaded, out = fresh("from ssalign import cli\n"
                        "def refuse(*args):\n"
                        "    raise RuntimeError('patched')\n"
                        "cli.verify_end_to_end = refuse\n"
                        "try:\n"
                        "    cli.main(['build', '--m', '3', '--n', '5', '--k', '3'])\n"
                        "except RuntimeError as exc:\n"
                        "    print(exc)")
    assert loaded == sorted(NUMERIC)
    assert out == "patched\n"


def test_star_import_and_dir_give_every_exported_name():
    loaded, out = fresh("import ssalign\n"
                        "listed = set(dir(ssalign))\n"
                        "namespace = {}\n"
                        "exec('from ssalign import *', namespace)\n"
                        "print(sorted(set(ssalign.__all__) - listed))\n"
                        "print(sorted(set(ssalign.__all__) - set(namespace)))")
    assert out.splitlines() == ["[]", "[]"]
    assert loaded == sorted(NUMERIC)
    assert len(ssalign.__all__) == len(set(ssalign.__all__))
