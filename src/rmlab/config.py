"""Experiment configuration: strict JSON in, validated dataclasses out.

Unknown keys are rejected everywhere. A typo in a physics parameter must
fail loudly, not fall back to a default. Validation collects every
violation before reporting so a config can be fixed in one pass.
``_KEYS`` is the one key table: every section's keys and their JSON types.
"""

from __future__ import annotations

import hashlib
import json
import math
from dataclasses import asdict, dataclass, field
from importlib import resources
from typing import Any, Mapping

from .pauli import TWO_PI
from .protocol import EXACT_SHOTS, ReadoutErrorModel, _check_n_meas
from .pulses import golden_schedule
from .scenarios import J_E, J_NNN, J_O, J_QUENCH, MU_EDGE, ScenarioConfig
from .statevector import _check_sites

__all__ = [
    "SHOT_BUDGET",
    "ConfigError",
    "ProtocolConfig",
    "EstimatorTargets",
    "ExperimentConfig",
    "parse_config",
    "config_to_dict",
    "config_hash",
    "validate",
    "load_config",
    "shipped_config_names",
]

# experimental shot ceiling: N_U * N_meas below 1e5 per repetition
SHOT_BUDGET = 100_000

MODES = ("ideal", "pulsed")


class ConfigError(ValueError):
    """Carries every violation found, one message per line."""

    def __init__(self, violations: list[str]) -> None:
        super().__init__("\n".join(violations))
        self.violations = list(violations)


@dataclass(frozen=True)
class ProtocolConfig:
    mode: str = "ideal"
    n_unitaries: int = 100
    n_meas: float = EXACT_SHOTS
    n_ave: int = 1
    eps_percent: float = 0.0
    fluctuation_scope: str = "per_unitary"
    readout: ReadoutErrorModel | None = None
    tol: float = 1e-6


@dataclass(frozen=True)
class EstimatorTargets:
    subsystems: tuple[tuple[int, ...], ...] = ()
    variance: bool = False
    energy: bool = False


@dataclass(frozen=True)
class ExperimentConfig:
    scenario: ScenarioConfig
    protocol: ProtocolConfig = field(default_factory=ProtocolConfig)
    targets: EstimatorTargets = field(default_factory=EstimatorTargets)
    seed: int = 0
    out: str = "results"


# ---------------------------------------------------------------------------
# Parsing
# ---------------------------------------------------------------------------


# JSON types by the name an error message gives them; a bool is never a number
_JSON_TYPES = {
    "an integer": lambda v: type(v) is int,
    "a number": lambda v: type(v) in (int, float),
    "a string": lambda v: type(v) is str,
    '"exact"': lambda v: v == "exact",
    "true or false": lambda v: type(v) is bool,
    "a list": lambda v: type(v) is list,
    "an object": lambda v: type(v) is dict,
    "null": lambda v: v is None,
}
_INT, _NUM, _STR, _BOOL = ("an integer",), ("a number",), ("a string",), ("true or false",)
_OBJ = ("an object",)

# the one key table: every section's keys and the JSON types each takes
_KEYS = {
    "top level": {"scenario": _OBJ, "protocol": _OBJ, "estimators": _OBJ, "seed": _INT, "out": _STR},
    "scenario": {"kind": _STR, "num_sites": _INT, "phase": _STR, "t_prep": _NUM, "ramp": _STR,
                 "quench_time": _NUM, "j_quench_mhz": _NUM},
    "protocol": {"mode": _STR, "n_unitaries": _INT, "n_meas": ("an integer", '"exact"'),
                 "n_ave": _INT, "eps_percent": _NUM, "fluctuation_scope": _STR,
                 "readout": ("an object", "null"), "tol": _NUM},
    "protocol.readout": {"p_up_given_down": _NUM, "p_down_given_up": _NUM},
    "estimators": {"subsystems": ("a list",), "variance": _BOOL, "energy": _BOOL},
}


def _section(raw: Mapping[str, Any], where: str, errs: list[str]) -> dict:
    """The keys of section ``where`` that ``_KEYS`` accepts, numbers as floats.

    Every unknown key and wrong JSON type is appended to ``errs``.
    """
    keys = _KEYS[where]
    out = {}
    for key, value in raw.items():
        want = keys.get(key)
        if want is None:
            errs.append(f"{where}: unknown key {key!r} (allowed: {', '.join(sorted(keys))})")
        elif not any(_JSON_TYPES[name](value) for name in want):
            got = {dict: "an object", list: "a list"}.get(type(value)) or json.dumps(value)
            errs.append(f"{where}.{key}: expected {' or '.join(want)}, got {got}")
        else:
            out[key] = float(value) if want == _NUM else value
    return out


def _finite_number(text: str, kind: type = float) -> float | int:
    """JSON number hook: NaN, Infinity and literals past the float range are errors."""
    if not math.isfinite(float(text)):
        raise ConfigError([f"non-finite number {text[:20]} is not allowed"])
    return kind(text)


def parse_config(text: str) -> ExperimentConfig:
    """Parse a JSON document, raising ConfigError with every problem found.

    The cross-field rules are ``validate``'s, which the runner calls once.
    """
    errs: list[str] = []
    try:
        doc = json.loads(
            text,
            parse_float=_finite_number,
            parse_int=lambda t: _finite_number(t, int),
            parse_constant=_finite_number,
        )
    except json.JSONDecodeError as e:
        raise ConfigError([f"not valid JSON: {e}"]) from e
    if not isinstance(doc, dict):
        raise ConfigError(["top level must be an object"])

    top = _section(doc, "top level", errs)
    if "scenario" not in doc:
        errs.append("top level: missing required section 'scenario'")
    scen_raw = _section(top.pop("scenario", {}), "scenario", errs)
    prot_raw = _section(top.pop("protocol", {}), "protocol", errs)
    est_raw = _section(top.pop("estimators", {}), "estimators", errs)
    readout_raw = prot_raw.pop("readout", None)
    if readout_raw is not None:
        readout_raw = _section(readout_raw, "protocol.readout", errs)
    subsystems = est_raw.get("subsystems", [])
    for i, sites in enumerate(subsystems):
        if type(sites) is not list or not all(type(s) is int for s in sites):
            errs.append(f"estimators.subsystems[{i}]: must be a list of site indices")
    if errs:
        raise ConfigError(errs)

    # what the table cannot say: units, the "exact" sentinel, tuples
    if "j_quench_mhz" in scen_raw:
        scen_raw["j_quench"] = TWO_PI * scen_raw.pop("j_quench_mhz")
    if prot_raw.get("n_meas") == "exact":
        prot_raw["n_meas"] = EXACT_SHOTS
    est_raw["subsystems"] = tuple(tuple(sites) for sites in subsystems)
    try:
        scenario = ScenarioConfig(**scen_raw)
    except (TypeError, ValueError) as e:
        errs.append(f"scenario: {e}")
    try:
        readout = None if readout_raw is None else ReadoutErrorModel(**readout_raw)
    except ValueError as e:
        errs.append(f"protocol.readout: {e}")
    if errs:
        raise ConfigError(errs)
    return ExperimentConfig(
        scenario, ProtocolConfig(readout=readout, **prot_raw), EstimatorTargets(**est_raw), **top
    )


# ---------------------------------------------------------------------------
# Validation
# ---------------------------------------------------------------------------


def validate(cfg: ExperimentConfig, allow_large: bool = False) -> tuple[list[str], list[str]]:
    """All violations and advisory warnings for a parsed config.

    The scenario and readout dataclasses validate themselves on
    construction; this covers the cross-field rules.
    """
    errs: list[str] = []
    warns: list[str] = []
    scen, prot = cfg.scenario, cfg.protocol

    if prot.mode not in MODES:
        errs.append(f"protocol.mode: must be one of {MODES}")
    if prot.n_unitaries < 1:
        errs.append("protocol.n_unitaries: must be at least 1")
    try:
        exact = _check_n_meas(prot.n_meas)
    except ValueError as e:
        errs.append(f"protocol.n_meas: {e}")
        exact = None
    if prot.n_ave < 1:
        errs.append("protocol.n_ave: must be at least 1")
    if not 0.0 <= prot.eps_percent < 100.0:
        errs.append("protocol.eps_percent: must be in [0, 100)")
    if prot.eps_percent > 0 and prot.mode != "pulsed":
        errs.append("protocol.eps_percent: amplitude noise requires pulsed mode")
    if prot.fluctuation_scope not in ("per_unitary", "per_shot"):
        errs.append("protocol.fluctuation_scope: must be per_unitary or per_shot")
    if not (math.isfinite(prot.tol) and prot.tol > 0):
        errs.append("protocol.tol: must be finite and positive")
    if cfg.seed < 0:
        # repetition seeds come from np.random.SeedSequence, which takes no negatives
        errs.append("seed: must be a non-negative integer")

    if exact is False:
        total = prot.n_unitaries * prot.n_meas
        if total > SHOT_BUDGET and not allow_large:
            errs.append(
                f"protocol: N_U * N_meas = {total} exceeds the shot budget "
                f"{SHOT_BUDGET}; pass allow_large to override"
            )
        if prot.n_meas < 2 and cfg.targets.subsystems:
            # the purity estimator's shot-noise correction divides by N_meas - 1
            errs.append("protocol.n_meas: purity estimation needs at least 2 shots per unitary")

    subsystems = cfg.targets.subsystems
    for i, sites in enumerate(subsystems):
        try:
            # the estimators' own check; "sites=1,2" labels results.csv rows,
            # so a subsystem also has one spelling
            if list(_check_sites(sites, scen.num_sites)) != sorted(sites):
                raise ValueError("sites must be sorted")
        except ValueError as e:
            errs.append(f"estimators.subsystems[{i}]: {e}")
        if sites in subsystems[:i]:
            # run would give both one results.csv row, oracle one row each
            errs.append(f"estimators.subsystems[{i}]: repeats subsystems[{subsystems.index(sites)}]")
    if not subsystems and not cfg.targets.variance and not cfg.targets.energy:
        errs.append("estimators: nothing to estimate (no subsystems, variance, or energy)")

    if prot.mode == "pulsed":
        if scen.kind == "quench":
            max_j = abs(scen.j_quench)
        else:
            max_j = max(abs(J_E), abs(J_O), abs(J_NNN), abs(MU_EDGE))
        # rotation window times strongest coupling: spurious interaction
        # phase accrued while the rotations run
        phase = golden_schedule().T * max_j
        if phase > 1.0:
            warns.append(
                f"rotation window accrues {phase:.2f} rad of interaction phase; "
                "estimates will be visibly biased"
            )
    return errs, warns


# ---------------------------------------------------------------------------
# Serialization and shipped configs
# ---------------------------------------------------------------------------


def config_to_dict(cfg: ExperimentConfig) -> dict:
    """Normalized plain-dict form, inverse of parse_config."""
    d = asdict(cfg)
    scen, prot, est = d["scenario"], d["protocol"], d.pop("targets")
    scen["j_quench_mhz"] = scen.pop("j_quench") / TWO_PI
    if scen["t_prep"] is None:
        scen.pop("t_prep")
    if prot["n_meas"] == EXACT_SHOTS:
        prot["n_meas"] = "exact"
    est["subsystems"] = [list(sites) for sites in est["subsystems"]]
    return d | {"estimators": est}


def config_hash(cfg: ExperimentConfig) -> str:
    """Experiment identity: everything but the output directory."""
    payload = config_to_dict(cfg)
    payload.pop("out")
    text = json.dumps(payload, sort_keys=True, separators=(",", ":"))
    return hashlib.sha256(text.encode()).hexdigest()


def shipped_config_names() -> list[str]:
    root = resources.files("rmlab").joinpath("data/configs")
    return sorted(p.name[: -len(".json")] for p in root.iterdir() if p.name.endswith(".json"))


def load_config(path_or_name: str) -> ExperimentConfig:
    """Load a config from a filesystem path or a shipped config name."""
    if path_or_name in shipped_config_names():
        text = (
            resources.files("rmlab")
            .joinpath(f"data/configs/{path_or_name}.json")
            .read_text()
        )
    else:
        try:
            with open(path_or_name) as f:
                text = f.read()
        except OSError as e:
            raise ConfigError(
                [f"{path_or_name}: not a readable file or shipped config "
                 f"(shipped: {', '.join(shipped_config_names())})"]
            ) from e
    return parse_config(text)
