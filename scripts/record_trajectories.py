"""Record the trajectories of the fast presets for tests/test_trajectories.py.

    python3 scripts/record_trajectories.py

Runs each preset in FAST_PRESETS in process, with no output directory, and
writes tests/preset_trajectories.json: per preset, the n_elements, dofs,
rel_l2_error and estimate columns of its records.  Re-record only in a
change that means to move answers, and show old and new side by side.
"""

import json
import os
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parents[1]
OUT = ROOT / "tests" / "preset_trajectories.json"
# One BLAS thread per library unless set, as `tdg run` does.  Set before numpy loads.
for name in ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS"):
    os.environ.setdefault(name, "1")
sys.path.insert(0, str(ROOT / "src"))

from tdg.config import load_preset  # noqa: E402
from tdg.driver import run_experiment  # noqa: E402

FAST_PRESETS = (
    "ex1_hankel_hp_k20", "ex1_hankel_hp_k50", "ex2_lshape_hp_k20", "ex3_reflection",
    "ex3_refraction", "ex4_cube_k20", "ex4_cube_k50", "table2", "table3",
)
COLUMNS = ("n_elements", "dofs", "rel_l2_error", "estimate")


def trajectory(name):
    """{column: [value per record]} of one in-process run of the preset."""
    records = run_experiment(load_preset(name))
    return {column: [getattr(r, column) for r in records] for column in COLUMNS}


def main():
    recorded = {name: trajectory(name) for name in FAST_PRESETS}
    OUT.write_text(json.dumps(recorded, indent=1) + "\n", newline="\n")
    print(f"wrote {OUT.relative_to(ROOT)}")


if __name__ == "__main__":
    main()
