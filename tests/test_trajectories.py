"""The fast presets keep their recorded trajectories.

tests/preset_trajectories.json is written by scripts/record_trajectories.py.
Each preset runs in process with no output directory.  Its n_elements and
dofs per record must match exactly; rel_l2_error and estimate to rtol 1e-5,
the perfbench gate's tolerance, which covers BLAS thread counts and kernels.
scripts/compare_presets.py stays the byte check for every preset.
"""

import json
from pathlib import Path

import pytest
from numpy.testing import assert_allclose

from tdg.config import load_preset
from tdg.driver import run_experiment

RECORDED = json.loads((Path(__file__).with_name("preset_trajectories.json")).read_text())


@pytest.mark.parametrize("name", sorted(RECORDED))
def test_preset_keeps_its_trajectory(name):
    want = RECORDED[name]
    records = run_experiment(load_preset(name))
    assert [(r.n_elements, r.dofs) for r in records] == list(zip(want["n_elements"],
                                                                 want["dofs"]))
    for column in ("rel_l2_error", "estimate"):
        got = [getattr(r, column) for r in records]
        assert_allclose(got, want[column], rtol=1e-5, atol=0.0, err_msg=column)
