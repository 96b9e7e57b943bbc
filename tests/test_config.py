"""Config parsing, validation diagnostics, hashing, and packaged presets."""

import math
import re
from pathlib import Path

import pytest

from tdg.config import (
    ConfigError,
    DEFAULTS,
    PROTOCOLS,
    SECTIONS,
    load_config,
    load_config_text,
    load_preset,
    override,
    preset_names,
)

EXPECTED_PRESETS = [
    "calibration",
    "ex1_hankel_h_k20",
    "ex1_hankel_h_k50",
    "ex1_hankel_hp_k20",
    "ex1_hankel_hp_k50",
    "ex2_lshape_h_k20",
    "ex2_lshape_h_k50",
    "ex2_lshape_hp_k20",
    "ex2_lshape_hp_k50",
    "ex3_reflection",
    "ex3_refraction",
    "ex4_cube_k20",
    "ex4_cube_k50",
    "table2",
    "table3",
]


def test_defaults_resolve_from_empty_text():
    config = load_config_text("")
    assert config.problem.domain.kind == "unit_square"
    assert config.n == 8
    assert config.problem.kind == "hankel_source"
    assert config.problem.k == 20.0
    assert config.q0 == 3
    assert (config.penalties.alpha, config.penalties.beta, config.penalties.delta) \
        == (0.5, 0.5, 0.5)
    assert config.protocol == "adapt"
    assert config.adapt.mode == "hp"
    assert config.adapt.fraction == 0.25
    assert config.adapt.policy == "none"
    assert config.adapt.max_iters == 10
    assert config.stop_on_stagnation is True
    assert config.cond_limit == 1e14
    assert (config.q_min, config.q_max, config.passes) == (2, 9, 2)
    assert config.calibration_q == (3, 4, 5, 6, 7, 8)
    assert config.calibration_k == (20.0, 30.0, 40.0, 50.0)
    assert config.write_vtk is True
    assert config.problem.domain.boundary_partition == {"all": "robin"}


def test_readme_configuration_reference_loads():
    # Once its comments are stripped, the README's example block must load,
    # so a key removed or renamed in the code cannot stay listed there.
    readme = (Path(__file__).resolve().parents[1] / "README.md").read_text()
    section = readme.split("## Configuration reference", 1)[1]
    block = section.split("```ini\n", 1)[1].split("```", 1)[0]
    load_config_text(re.sub(r";.*", "", block))


def test_readme_preset_table_lists_every_preset():
    # Each bundled preset is named once in the README's table, and nothing else is.
    readme = (Path(__file__).resolve().parents[1] / "README.md").read_text()
    table = readme.split("### Bundled presets", 1)[1].split("\n\n", 2)[1]
    rows = table.splitlines()[2:]
    listed = [name for row in rows for name in re.findall(r"`(\w+)`", row.split("|")[1])]
    assert sorted(listed) == preset_names()


def test_sections_and_protocols_are_pinned():
    assert SECTIONS == ("domain", "problem", "discretization", "adaptivity", "output")
    assert PROTOCOLS == ("adapt", "table2", "table3", "calibration")
    assert set(DEFAULTS) == set(SECTIONS)


def test_unknown_key_and_section_are_rejected():
    with pytest.raises(ConfigError, match=r"\[domain\] unknown key 'shape'"):
        load_config_text("[domain]\nshape = unit_square\n")
    with pytest.raises(ConfigError, match=r"unknown config section \[mesh\]"):
        load_config_text("[mesh]\nn = 4\n")
    for key in ("lambda_gap", "delta_ball"):
        with pytest.raises(ConfigError, match=rf"\[adaptivity\] unknown key '{key}'"):
            load_config_text(f"[adaptivity]\n{key} = 2.0\n")


def test_boundary_parsing_variants():
    config = load_config_text("[domain]\nboundary = xmin=dirichlet\n")
    assert config.problem.domain.boundary_partition == {"xmin": "dirichlet", "all": "robin"}
    config = load_config_text(
        "[domain]\nboundary = all=dirichlet, ymax=robin\n"
    )
    assert config.problem.domain.boundary_partition == {"all": "dirichlet", "ymax": "robin"}
    config = load_config_text(
        "[domain]\nkind = l_shape\nboundary = reentrant=dirichlet\n"
        "[problem]\nkind = singular_corner\n"
    )
    assert config.problem.domain.boundary_partition["reentrant"] == "dirichlet"


def test_boundary_parsing_errors():
    with pytest.raises(ConfigError, match=r"\[domain\] boundary: expected side=tag"):
        load_config_text("[domain]\nboundary = robin\n")
    with pytest.raises(ConfigError, match=r"\[domain\] boundary: unknown side 'north'"):
        load_config_text("[domain]\nboundary = north=robin\n")
    with pytest.raises(ConfigError, match=r"\[domain\] boundary: unknown tag 'neumann'"):
        load_config_text("[domain]\nboundary = xmin=neumann\n")


def test_type_errors_carry_section_and_key():
    with pytest.raises(ConfigError, match=r"\[domain\] n: expected an integer, got 'eight'"):
        load_config_text("[domain]\nn = eight\n")
    with pytest.raises(ConfigError, match=r"\[adaptivity\] fraction: expected a number"):
        load_config_text("[adaptivity]\nfraction = some\n")
    with pytest.raises(ConfigError, match=r"\[output\] write_vtk: expected a boolean"):
        load_config_text("[output]\nwrite_vtk = maybe\n")


def test_range_validation():
    with pytest.raises(ConfigError, match=r"\[domain\] n: must be >= 1"):
        load_config_text("[domain]\nn = 0\n")
    with pytest.raises(ConfigError, match=r"\[discretization\] q0: must be >= 1"):
        load_config_text("[discretization]\nq0 = 0\n")
    with pytest.raises(ConfigError, match=r"\[adaptivity\] max_iters: must be >= 0"):
        load_config_text("[adaptivity]\nmax_iters = -1\n")
    with pytest.raises(ConfigError, match=r"\[adaptivity\] q_min\.\.q_max"):
        load_config_text("[adaptivity]\nq_min = 5\nq_max = 4\n")
    with pytest.raises(ConfigError, match=r"\[adaptivity\] passes: must be >= 0"):
        load_config_text("[adaptivity]\npasses = -2\n")
    with pytest.raises(ConfigError, match=r"\[adaptivity\]"):
        load_config_text("[adaptivity]\nfraction = 0\n")


def test_enumerated_choices():
    with pytest.raises(ConfigError, match=r"\[domain\] kind: unknown domain 'disk'"):
        load_config_text("[domain]\nkind = disk\n")
    with pytest.raises(ConfigError, match=r"\[problem\] kind: unknown problem 'poisson'"):
        load_config_text("[problem]\nkind = poisson\n")
    with pytest.raises(ConfigError, match=r"\[adaptivity\] protocol: unknown protocol"):
        load_config_text("[adaptivity]\nprotocol = table9\n")
    with pytest.raises(ConfigError, match=r"\[adaptivity\] mode: expected one of"):
        load_config_text("[adaptivity]\nmode = p_only\n")
    with pytest.raises(ConfigError, match=r"\[adaptivity\] policy:"):
        load_config_text("[adaptivity]\npolicy = sometimes\n")


def test_policy_aliases_rejected():
    for alias in ("marked", "marked_p_only", "all-elements", "ALL"):
        with pytest.raises(ConfigError, match=r"\[adaptivity\] policy:"):
            load_config_text(f"[adaptivity]\npolicy = {alias}\n")


def test_problem_validation_is_wrapped():
    with pytest.raises(ConfigError, match=r"\[problem\]"):
        load_config_text("[problem]\nkind = singular_corner\n")
    with pytest.raises(ConfigError, match=r"\[problem\]"):
        load_config_text(
            "[domain]\nkind = square2\n[problem]\nkind = transmission\nomega = 11\n"
        )
    with pytest.raises(ConfigError, match=r"\[problem\]"):
        load_config_text("[problem]\nimpedance_sign = 0.5\n")
    # A plane wave needs one finite component per axis, not all zero.
    for domain, direction in (("unit_cube", "direction = 1,1\n"), ("unit_square", ""),
                              ("unit_square", "direction = 0,0\n")):
        with pytest.raises(ConfigError, match=r"\[problem\] plane_wave direction"):
            load_config_text(f"[domain]\nkind = {domain}\n[problem]\nkind = plane_wave\n"
                             f"{direction}")
    transmission = load_config_text(
        "[domain]\nkind = square2\n[problem]\nkind = transmission\n"
        "omega = 11\nindex_below = 2\nindex_above = 1\nincidence_deg = 69\n"
    )
    for key, text in (("index_below", "-2"), ("omega", "-11"), ("omega", "0"),
                      ("index_above", "0")):
        with pytest.raises(ConfigError, match=rf"\[problem\] transmission {key} must be positive"):
            override(transmission, {"problem": {key: text}})


def test_transmission_config_builds():
    config = load_config_text(
        "[domain]\nkind = square2\nboundary = all=dirichlet\n"
        "[problem]\nkind = transmission\nomega = 11\nindex_below = 2\n"
        "index_above = 1\nincidence_deg = 69\n"
    )
    assert config.problem.omega == 11.0
    assert config.problem.incidence_deg == 69.0


def test_plane_wave_direction_parsing():
    config = load_config_text(
        "[domain]\nkind = unit_cube\nn = 2\n"
        "[problem]\nkind = plane_wave\nk = 20\ndirection = 1, 1, 1\n"
    )
    assert config.problem.direction == (1.0, 1.0, 1.0)
    # The evaluated field uses the normalized direction: d.x = sqrt(3) here.
    import numpy as np

    value = config.problem.exact_solution(np.array([[1.0, 1.0, 1.0]]))[0]
    assert value == pytest.approx(complex(math.cos(20.0 * math.sqrt(3.0)),
                                          math.sin(20.0 * math.sqrt(3.0))), abs=1e-12)


def test_canonical_text_and_hash_stability():
    a = load_config_text("[domain]\nn = 4\n[problem]\nk = 25\n")
    b = load_config_text("[problem]\nk = 25\n[domain]\nn =   4\n")
    assert a.canonical_text() == b.canonical_text()
    assert a.config_hash() == b.config_hash()
    c = load_config_text("[domain]\nn = 4\n[problem]\nk = 26\n")
    assert a.config_hash() != c.config_hash()
    assert "domain.n=4" in a.canonical_text()
    assert len(a.config_hash()) == 64


def test_override_validates_like_a_file():
    base = load_config_text("[domain]\nn = 4\n")
    changed = override(base, {"adaptivity": {"max_iters": "2", "policy": "all"}})
    assert (changed.adapt.max_iters, changed.adapt.policy) == (2, "all")
    assert changed.config_hash() == load_config_text(
        "[domain]\nn = 4\n[adaptivity]\nmax_iters = 2\npolicy = all\n"
    ).config_hash()
    assert base.raw["adaptivity"]["policy"] == "none"  # the input is left as it was
    with pytest.raises(ConfigError, match=r"\[adaptivity\] policy: expected one of"):
        override(base, {"adaptivity": {"policy": "bogus"}})
    with pytest.raises(ConfigError, match=r"\[adaptivity\] unknown key 'budget'"):
        override(base, {"adaptivity": {"budget": "2"}})


def test_load_config_roundtrip(tmp_path):
    path = tmp_path / "exp.ini"
    path.write_text("[domain]\nn = 2\n[adaptivity]\nmax_iters = 1\n")
    config = load_config(path)
    assert config.n == 2
    assert config.adapt.max_iters == 1
    for unreadable in (tmp_path / "missing.ini", tmp_path):
        with pytest.raises(ConfigError, match="cannot read config file"):
            load_config(unreadable)


def test_preset_inventory():
    assert preset_names() == EXPECTED_PRESETS


@pytest.mark.parametrize("name", EXPECTED_PRESETS)
def test_every_preset_builds(name):
    config = load_preset(name)
    if name.startswith("table2"):
        assert config.protocol == "table2"
    elif name.startswith("table3"):
        assert config.protocol == "table3"
    elif name == "calibration":
        assert config.protocol == "calibration"
        assert config.stop_on_stagnation is False
    else:
        assert config.protocol == "adapt"
    if "_h_" in name:
        assert config.adapt.mode == "h_only"
    if "_hp_" in name:
        assert config.adapt.mode == "hp"
    if name.startswith("ex4"):
        assert config.problem.domain.kind == "unit_cube"


def test_unknown_preset_lists_alternatives():
    with pytest.raises(ConfigError, match="unknown preset 'nope'"):
        load_preset("nope")
    try:
        load_preset("nope")
    except ConfigError as exc:
        for name in EXPECTED_PRESETS:
            assert name in str(exc)
