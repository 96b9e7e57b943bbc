"""Experiment configuration: INI-style files, validation, and presets."""

from __future__ import annotations

import configparser
import hashlib
import math
from dataclasses import dataclass, field
from importlib import resources
from pathlib import Path

from .directional import POLICIES
from .hp_adapt import MODES, AdaptConfig
from .mesh import ROBIN, DomainSpec, MeshError, _DOMAINS
from .problems import PROBLEM_KINDS, ProblemSpec


class ConfigError(Exception):
    """Raised for malformed or inconsistent experiment configuration."""


SECTIONS = ("domain", "problem", "discretization", "adaptivity", "output")
PROTOCOLS = ("adapt", "table2", "table3", "calibration")

DEFAULTS = {
    "domain": {
        "kind": "unit_square",
        "n": "8",
        "boundary": "all=robin",
    },
    "problem": {
        "kind": "hankel_source",
        "k": "20.0",
        "direction": "",
        "omega": "",
        "index_below": "",
        "index_above": "",
        "incidence_deg": "",
    },
    "discretization": {
        "q0": "3",
    },
    "adaptivity": {
        "protocol": "adapt",
        "mode": "hp",
        "fraction": "0.25",
        "policy": "none",
        "max_iters": "10",
        "stop_on_stagnation": "true",
        "cond_limit": "1e14",
        "q_min": "2",
        "q_max": "9",
        "passes": "2",
        "calibration_q": "3,4,5,6,7,8",
        "calibration_k": "20,30,40,50",
    },
    "output": {
        "write_vtk": "true",
    },
}


@dataclass
class ExperimentConfig:
    """Validated, fully-resolved settings for one experiment run."""

    raw: dict
    n: int
    problem: ProblemSpec
    q0: int
    protocol: str
    adapt: AdaptConfig
    stop_on_stagnation: bool
    cond_limit: float
    q_min: int
    q_max: int
    passes: int
    calibration_q: tuple
    calibration_k: tuple
    write_vtk: bool

    def canonical_text(self):
        lines = []
        for section in sorted(self.raw):
            for key in sorted(self.raw[section]):
                lines.append(f"{section}.{key}={self.raw[section][key]}")
        return "\n".join(lines)

    def config_hash(self):
        return hashlib.sha256(self.canonical_text().encode()).hexdigest()


def _get(raw, section, key, convert, what):
    text = raw[section][key]
    try:
        return convert(text)
    except (TypeError, ValueError) as exc:
        raise ConfigError(f"[{section}] {key}: expected {what}, got {text!r}") from exc


def _get_bool(raw, section, key):
    states = configparser.ConfigParser.BOOLEAN_STATES
    text = raw[section][key].strip().lower()
    if text not in states:
        raise ConfigError(f"[{section}] {key}: expected a boolean, got {text!r}")
    return states[text]


def _float_list(text):
    return tuple(float(part) for part in text.split(",") if part.strip())


def _int_list(text):
    return tuple(int(part) for part in text.split(",") if part.strip())


def _parse_boundary(text):
    partition = {}
    for chunk in text.split(","):
        chunk = chunk.strip()
        if not chunk:
            continue
        if "=" not in chunk:
            raise ConfigError(f"[domain] boundary: expected side=tag entries, got {chunk!r}")
        side, tag = (part.strip().lower() for part in chunk.split("=", 1))
        partition[side] = tag
    partition.setdefault("all", ROBIN)
    return partition


def _resolve(parser):
    raw = {}
    for section in SECTIONS:
        raw[section] = dict(DEFAULTS[section])
        if parser.has_section(section):
            for key, value in parser.items(section):
                if key not in DEFAULTS[section]:
                    raise ConfigError(f"[{section}] unknown key {key!r}")
                raw[section][key] = value.strip()
    for section in parser.sections():
        if section not in SECTIONS:
            raise ConfigError(f"unknown config section [{section}]")
    return raw


def _build(raw):
    kind = raw["domain"]["kind"]
    if kind not in _DOMAINS:
        raise ConfigError(f"[domain] kind: unknown domain {kind!r}")
    partition = _parse_boundary(raw["domain"]["boundary"])
    try:
        domain = DomainSpec(kind=kind, boundary_partition=partition)
    except MeshError as exc:
        raise ConfigError(f"[domain] boundary: {exc}") from exc
    n = _get(raw, "domain", "n", int, "an integer")
    if n < 1:
        raise ConfigError(f"[domain] n: must be >= 1, got {n}")

    pkind = raw["problem"]["kind"]
    if pkind not in PROBLEM_KINDS:
        raise ConfigError(f"[problem] kind: unknown problem {pkind!r}")
    opt = lambda key: (
        _get(raw, "problem", key, float, "a number") if raw["problem"][key] else None
    )
    direction = (
        _float_list(raw["problem"]["direction"]) if raw["problem"]["direction"] else None
    )
    try:
        problem = ProblemSpec(
            kind=pkind,
            domain=domain,
            k=opt("k"),
            direction=direction,
            omega=opt("omega"),
            index_below=opt("index_below"),
            index_above=opt("index_above"),
            incidence_deg=opt("incidence_deg"),
        )
    except Exception as exc:
        raise ConfigError(f"[problem] {exc}") from exc

    q0 = _get(raw, "discretization", "q0", int, "an integer")
    if q0 < 1:
        raise ConfigError(f"[discretization] q0: must be >= 1, got {q0}")

    protocol = raw["adaptivity"]["protocol"]
    if protocol not in PROTOCOLS:
        raise ConfigError(f"[adaptivity] protocol: unknown protocol {protocol!r}")
    mode = raw["adaptivity"]["mode"]
    if mode not in MODES:
        raise ConfigError(f"[adaptivity] mode: expected one of {MODES}, got {mode!r}")
    policy = raw["adaptivity"]["policy"]
    if policy not in POLICIES:
        raise ConfigError(f"[adaptivity] policy: expected one of {POLICIES}, got {policy!r}")
    fraction = _get(raw, "adaptivity", "fraction", float, "a number")
    max_iters = _get(raw, "adaptivity", "max_iters", int, "an integer")
    if max_iters < 0:
        raise ConfigError(f"[adaptivity] max_iters: must be >= 0, got {max_iters}")
    try:
        adapt = AdaptConfig(
            mode=mode,
            fraction=fraction,
            policy=policy,
            max_iters=max_iters,
        )
    except ValueError as exc:
        raise ConfigError(f"[adaptivity] {exc}") from exc
    cond_limit = _get(raw, "adaptivity", "cond_limit", float, "a number")
    if not cond_limit > 0:  # written so that nan fails too
        raise ConfigError(f"[adaptivity] cond_limit: must be > 0, got {cond_limit}")

    q_min = _get(raw, "adaptivity", "q_min", int, "an integer")
    q_max = _get(raw, "adaptivity", "q_max", int, "an integer")
    if not 1 <= q_min <= q_max:
        raise ConfigError(f"[adaptivity] q_min..q_max: need 1 <= {q_min} <= {q_max}")
    passes = _get(raw, "adaptivity", "passes", int, "an integer")
    if passes < 0:
        raise ConfigError(f"[adaptivity] passes: must be >= 0, got {passes}")
    calibration_q = _get(raw, "adaptivity", "calibration_q", _int_list, "a list of integers")
    if not calibration_q or min(calibration_q) < 1:
        raise ConfigError(f"[adaptivity] calibration_q: need one or more degrees >= 1, "
                          f"got {raw['adaptivity']['calibration_q']!r}")
    calibration_k = _get(raw, "adaptivity", "calibration_k", _float_list, "a list of numbers")
    if not calibration_k or not all(0 < k < math.inf for k in calibration_k):
        raise ConfigError(f"[adaptivity] calibration_k: need one or more finite wavenumbers "
                          f"> 0, got {raw['adaptivity']['calibration_k']!r}")

    return ExperimentConfig(
        raw=raw,
        n=n,
        problem=problem,
        q0=q0,
        protocol=protocol,
        adapt=adapt,
        stop_on_stagnation=_get_bool(raw, "adaptivity", "stop_on_stagnation"),
        cond_limit=cond_limit,
        q_min=q_min,
        q_max=q_max,
        passes=passes,
        calibration_q=calibration_q,
        calibration_k=calibration_k,
        write_vtk=_get_bool(raw, "output", "write_vtk"),
    )


def override(config, values):
    """Validated copy of `config` with `{section: {key: text}}` replaced."""
    raw = {section: dict(entries) for section, entries in config.raw.items()}
    for section, entries in values.items():
        for key, text in entries.items():
            if key not in DEFAULTS[section]:
                raise ConfigError(f"[{section}] unknown key {key!r}")
            raw[section][key] = text
    return _build(raw)


def load_config(path):
    """Parse and validate a config file into an ExperimentConfig."""
    try:
        text = Path(path).read_text()
    except OSError as exc:
        raise ConfigError(f"cannot read config file {path}") from exc
    return load_config_text(text, source=str(path))


def load_config_text(text, source="<string>"):
    """Parse and validate config text; parse errors name `source`, one line."""
    parser = configparser.ConfigParser(interpolation=None)
    try:
        parser.read_string(text, source)
    except configparser.Error as exc:
        raise ConfigError(" ".join(str(exc).split())) from exc
    return _build(_resolve(parser))


def preset_names():
    root = resources.files("tdg") / "presets"
    return sorted(p.name[:-4] for p in root.iterdir() if p.name.endswith(".ini"))


def load_preset(name):
    """Load one of the packaged preset configurations by name."""
    root = resources.files("tdg") / "presets"
    candidate = root / f"{name}.ini"
    if not candidate.is_file():
        raise ConfigError(
            f"unknown preset {name!r}; available: {', '.join(preset_names())}"
        )
    return load_config_text(candidate.read_text())
