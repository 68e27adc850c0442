"""The mutation battery: one-line edits of the correctness checks, each of which tier-1 must kill.

    python bench/mutants.py --out mutants.json
    python bench/mutants.py --out one.json --only rank-rel-constant --tests tests/test_linalg.py

Each mutant is a named edit of one file: its old text, which must occur
exactly once, and its new text.  The edit is made in a copy of the tree in a
temporary directory (``src``, ``tests``, ``bench``, ``perfbench`` and
``pyproject.toml``), and tier-1 runs there with ``-x``, ``src`` of the copy
first on the path, less ``tests/test_mutants.py``, the battery's own tests.
A mutant is killed when some test fails, and survives when every test
passes.  The result is a JSON document with, per mutant, its
name, file, whether it was killed, the first failing test and the seconds
it took; the exit code is 0 only if every mutant was killed.

The table covers the checks that must never get looser: each threshold as
its constant and as its inline comparison, the plan check, the unit span
checks, the user-stack and joint-independence checks, pair survival on both
links, the decodability rule, and the slope's settling rule.  It also covers
the build path's shortcuts: the aligned nullspace's columns, the mixing
columns, the channel blocks shared by a group's units, and the forward
matrix's complement terms.  Standard library only.
"""

from __future__ import annotations

import argparse
import json
import os
import shutil
import subprocess
import sys
import tempfile
import time
from pathlib import Path

ROOT = Path(__file__).resolve().parents[1]
COPIED = ("src", "tests", "bench", "perfbench", "pyproject.toml")
# Tier-1, less this battery's own tests: they read the unmutated table's
# texts, and one of them runs a mutant itself.
TIER1 = ("-m", "pytest", "-q", "-x", "-p", "no:cacheprovider", "-rfE",
         "--continue-on-collection-errors", "--ignore=tests/test_mutants.py")

LINALG = "src/ssalign/linalg.py"
UNITS = "src/ssalign/units.py"
RELAY = "src/ssalign/relay.py"

# (name, file, old text, new text)
MUTANTS = (
    ("rank-rel-constant", LINALG, "RANK_REL = 1e-10", "RANK_REL = 1e-2"),
    ("rank-rel-inline", LINALG, "thresh = RANK_REL * s[..., 0] * max(shape)",
     "thresh = 1e-2 * s[..., 0] * max(shape)"),
    ("leakage-abs-constant", LINALG, "LEAKAGE_ABS = 1e-8", "LEAKAGE_ABS = 1e3"),
    ("leakage-abs-inline", RELAY, "(leakage <= LEAKAGE_ABS)", "(leakage <= 1e3)"),
    ("certificate-margin-constant", LINALG, "CERTIFICATE_MARGIN = 0.5",
     "CERTIFICATE_MARGIN = 1e300"),
    ("certificate-margin-inline", LINALG, "return ~(bound < CERTIFICATE_MARGIN)",
     "return ~(bound < 1e300)"),
    ("desired-coeff-min-constant", RELAY, "DESIRED_COEFF_MIN = 1e-6", "DESIRED_COEFF_MIN = 0"),
    ("desired-coeff-min-inline", RELAY, "(desired > DESIRED_COEFF_MIN)", "(desired > 0.0)"),
    ("own-coeff-dropped", RELAY, "np.all(decodable & (own > DESIRED_COEFF_MIN))",
     "np.all(decodable)"),
    ("pair-survival-min-constant", RELAY, "PAIR_SURVIVAL_MIN = 1e-6", "PAIR_SURVIVAL_MIN = 0"),
    ("pair-survival-min-inline", RELAY, "(kept < PAIR_SURVIVAL_MIN * norms)", "(kept < 0 * norms)"),
    ("pair-survival-uplink-only", RELAY,
     "failed += [(*batch[u], p) for u, p in zip(*np.nonzero(bad))]",
     "failed += [(*batch[u], p) for u, p in zip(*np.nonzero(bad)) if batch[u][0] == 0]"),
    ("slope-settle-rel-constant", RELAY, "SLOPE_SETTLE_REL = 1e-3", "SLOPE_SETTLE_REL = 1"),
    ("slope-settle-rel-inline", RELAY, "<= SLOPE_SETTLE_REL * np.abs(slopes[:-1])",
     "<= 1 * np.abs(slopes[:-1])"),
    ("check-plan-dropped", UNITS, "    _check_plan(plan)\n    return plan", "    return plan"),
    ("check-plan-dims", UNITS, "if plan.dims_used > plan.active_relay:",
     "if plan.dims_used > 2 * plan.active_relay:"),
    ("check-plan-nullity", UNITS, "if a.count * (t - 1) > nullity:",
     "if a.count * (t - 1) > 2 * nullity:"),
    ("unit-span-check", UNITS, "if ranks[u] == want else AlignmentDegenerate(",
     "if ranks[u] >= 0 else AlignmentDegenerate("),
    ("user-stack-check", UNITS, "deficient = np.flatnonzero(ranks != stacks.shape[2])",
     "deficient = np.flatnonzero(ranks < 0)"),
    ("twin-errors-dropped", UNITS,
     '    _raise_first_error(twins, name="downlink twin of unit", side="downlink")\n', ""),
    ("joint-independence", RELAY, "if singular_value_ranks(sigma, (rows, width)) < width:",
     "if singular_value_ranks(sigma, (rows, width)) < 0:"),
    # The build path's shortcuts.
    ("nullspace-slice-shifted", UNITS,
     'mode="complete")[0][..., rows:]', 'mode="complete")[0][..., rows - 1:-1]'),
    ("mixing-last-columns", UNITS, "firsts[key] = draw[:, :key[1]].copy()",
     "firsts[key] = draw[:, -key[1]:].copy()"),
    ("mixing-columns-short", UNITS, "return min((t - 1) * count, width)",
     "return min(count, width)"),
    ("shared-blocks-unsorted", UNITS,
     "_positions((li, tuple(sorted(group))) for li, group in zip(links, groups))",
     "_positions((li, tuple(group)) for li, group in zip(links, groups))"),
    ("forward-complement-dropped", RELAY, "    if cu.shape[1]:\n        pairs",
     "    if False:\n        pairs"),
    ("forward-complement-count", RELAY, "cd @ (pairs * (cd.conj().T @ cu))",
     "cd @ (cd.conj().T @ cu)"),
)


def _copy_tree(dest: Path) -> None:
    ignore = shutil.ignore_patterns("__pycache__", "*.pyc", ".pytest_cache", ".hypothesis")
    for name in COPIED:
        source = ROOT / name
        if source.is_dir():
            shutil.copytree(source, dest / name, ignore=ignore)
        else:
            shutil.copy2(source, dest / name)


def _first_failure(output: str) -> str | None:
    for line in output.splitlines():
        if line.startswith(("FAILED ", "ERROR ")):
            return line.split(" - ")[0].split(" ", 1)[1]
    return None


def run_mutant(name: str, path: str, old: str, new: str, tests: list[str]) -> dict:
    """Apply one edit to a fresh copy of the tree and run tier-1 there with ``-x``."""
    with tempfile.TemporaryDirectory(prefix="mutant-") as tmp:
        tree = Path(tmp)
        _copy_tree(tree)
        target = tree / path
        text = target.read_text()
        if text.count(old) != 1:
            raise ValueError(f"mutant {name}: old text occurs {text.count(old)} times in {path}")
        target.write_text(text.replace(old, new))
        env = {**os.environ, "PYTHONDONTWRITEBYTECODE": "1",
               "PYTHONPATH": os.pathsep.join([str(tree / "src"), os.environ.get("PYTHONPATH", "")])}
        start = time.perf_counter()
        done = subprocess.run([sys.executable, *TIER1, *tests], cwd=tree, env=env,
                              stdout=subprocess.PIPE, stderr=subprocess.STDOUT, text=True)
        seconds = time.perf_counter() - start
    if done.returncode not in (0, 1):
        raise RuntimeError(f"mutant {name}: pytest exited {done.returncode}\n{done.stdout[-2000:]}")
    return {"name": name, "file": path, "killed": done.returncode == 1,
            "first_failure": _first_failure(done.stdout), "seconds": round(seconds, 2)}


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--out", required=True, help="write the JSON result here")
    parser.add_argument("--only", nargs="+", choices=[m[0] for m in MUTANTS], metavar="NAME",
                        help="run only these mutants (default: all)")
    parser.add_argument("--tests", nargs="+", default=[],
                        help="test paths to run in place of the whole of tier-1")
    args = parser.parse_args(argv)
    results = []
    for name, path, old, new in MUTANTS:
        if args.only and name not in args.only:
            continue
        result = run_mutant(name, path, old, new, args.tests)
        verdict = f"killed by {result['first_failure']}" if result["killed"] else "SURVIVED"
        print(f"{name}: {verdict} ({result['seconds']:.1f} s)", file=sys.stderr)
        results.append(result)
    survived = [r["name"] for r in results if not r["killed"]]
    doc = {"mutants": results, "killed": len(results) - len(survived), "survived": survived}
    Path(args.out).write_text(json.dumps(doc, indent=1) + "\n")
    return 1 if survived else 0


if __name__ == "__main__":
    sys.exit(main())
