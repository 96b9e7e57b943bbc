"""Run bundled presets in this tree and in PARENT_TREE and compare their outputs.

    python3 scripts/compare_presets.py PARENT_TREE [--preset NAME ...] [--blas-threads N]

PARENT_TREE is another checkout of this repository, for example one made
with `git archive`.  Each preset (all bundled presets unless --preset is
given) runs through `tdg run` in both trees, each with its own `src` on
PYTHONPATH and OMP_NUM_THREADS, OPENBLAS_NUM_THREADS and MKL_NUM_THREADS
set to N (default 1).  The bytes of a run depend on the BLAS thread count,
not on timing, so a numerical change is checked once with N = 1 and once
with N = 2.  The two runs of a preset go at the same time, as two
subprocesses, when their 2N BLAS threads fit on the available CPUs, and
one after the other otherwise: oversubscribed OpenBLAS threads slow down
several-fold (`ex2_lshape_h_k20`, N = 2, 2 CPUs: 10 s alone, 41 s for
two runs at once).

Per preset it prints whether every CSV and VTK file is byte-identical and
whether the n_elements/dofs trajectory of every convergence.csv is
unchanged.  When a CSV differs, it also prints each float column that
moved, with its largest relative change |new - old| / |old| and the file
and data row (counted from 1) where that change happens.  Exits 1 if a
trajectory changed or a run failed, else 0.
"""

import argparse
import csv
import math
import os
import subprocess
import sys
import tempfile
from pathlib import Path

ROOT = Path(__file__).resolve().parents[1]
THREAD_VARS = ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS")
sys.path.insert(0, str(ROOT / "src"))

from tdg.config import preset_names  # noqa: E402


def start_preset(tree, preset, out, threads):
    env = dict(os.environ, PYTHONPATH=str(Path(tree) / "src"))
    env.update((var, str(threads)) for var in THREAD_VARS)
    cmd = [sys.executable, "-m", "tdg.cli", "run", "--preset", preset, "--out", str(out)]
    return subprocess.Popen(cmd, env=env, stdout=subprocess.DEVNULL, stderr=subprocess.PIPE,
                            text=True)


def succeeded(run, tree, preset):
    _, stderr = run.communicate()
    if run.returncode:
        print(f"{preset}: tdg run failed in {tree}:\n{stderr}", file=sys.stderr)
    return run.returncode == 0


def outputs(out, suffix):
    return {p.relative_to(out): p.read_bytes() for p in sorted(out.rglob(f"*{suffix}"))}


def trajectories(out):
    result = {}
    for path in sorted(out.rglob("convergence.csv")):
        with path.open(newline="") as f:
            rows = [(r["n_elements"], r["dofs"]) for r in csv.DictReader(f)]
        result[path.relative_to(out)] = rows
    return result


def _rows(path):
    with path.open(newline="") as f:
        return list(csv.DictReader(f))


def moved_columns(parent_out, change_out):
    """{column: (largest relative change, file, data row)} over the float cells that differ."""
    moved = {}
    for rel in outputs(change_out, ".csv"):
        if not (parent_out / rel).exists():
            continue
        for row, (old, new) in enumerate(zip(_rows(parent_out / rel), _rows(change_out / rel)), 1):
            for column, text in old.items():
                if new.get(column) == text:
                    continue
                try:
                    a, b = float(text), float(new.get(column))
                except (TypeError, ValueError):
                    continue
                change = abs(b - a) / abs(a) if a else math.inf
                if math.isnan(change):
                    change = math.inf
                if change > moved.get(column, (-1.0,))[0]:
                    moved[column] = (change, rel, row)
    return moved


def main(argv=None):
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("parent_tree", help="checkout to compare against")
    parser.add_argument("--preset", action="append", help="preset to run (repeatable)")
    parser.add_argument("--blas-threads", type=int, default=1, metavar="N",
                        help="BLAS threads of every run (default 1)")
    args = parser.parse_args(argv)
    failed = False
    together = 2 * args.blas_threads <= len(os.sched_getaffinity(0))
    with tempfile.TemporaryDirectory() as tmp:
        for preset in args.preset or preset_names():
            outs = [Path(tmp) / side / preset for side in ("parent", "change")]
            trees = (args.parent_tree, ROOT)
            # The generator starts each run only once the one before it has ended.
            runs = (start_preset(tree, preset, out, args.blas_threads)
                    for tree, out in zip(trees, outs))
            if together:
                runs = list(runs)
            if not all([succeeded(run, tree, preset) for run, tree in zip(runs, trees)]):
                failed = True
                continue
            same = {suffix: outputs(outs[0], suffix) == outputs(outs[1], suffix)
                    for suffix in (".csv", ".vtk")}
            kept = trajectories(outs[0]) == trajectories(outs[1])
            failed |= not kept
            print(f"{preset}: csv {'identical' if same['.csv'] else 'DIFFER'}, "
                  f"vtk {'identical' if same['.vtk'] else 'DIFFER'}, "
                  f"trajectory {'kept' if kept else 'CHANGED'}", flush=True)
            if not same[".csv"]:
                for column, (change, rel, row) in sorted(moved_columns(*outs).items()):
                    print(f"  {column}: largest relative change {change:.2g} ({rel} row {row})",
                          flush=True)
    return 1 if failed else 0


if __name__ == "__main__":
    sys.exit(main())
