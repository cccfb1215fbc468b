"""Config parsing, cross-field validation, and serialization round-trips."""

import json
import math
from dataclasses import replace

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from rmlab.config import (
    _KEYS,
    MODES,
    SHOT_BUDGET,
    ConfigError,
    EstimatorTargets,
    ExperimentConfig,
    ProtocolConfig,
    config_hash,
    config_to_dict,
    load_config,
    parse_config,
    shipped_config_names,
    validate,
)
from rmlab.estimators import purity_estimate
from rmlab.pauli import TWO_PI
from rmlab.protocol import (
    EXACT_SHOTS,
    MeasurementRecord,
    ReadoutErrorModel,
    _certify_grid,
    _check_n_meas,
    _drive_operators,
    run_ideal,
    sample_unitaries,
)
from rmlab.pulses import golden_schedule
from rmlab.scenarios import KINDS, PHASES, RAMPS, ScenarioConfig
from rmlab.statevector import all_down, exact_purity

MINIMAL = {
    "scenario": {"kind": "af", "num_sites": 4},
    "estimators": {"subsystems": [[1, 2]]},
}


def doc(**over):
    d = json.loads(json.dumps(MINIMAL))
    for key, value in over.items():
        if isinstance(value, dict) and isinstance(d.get(key), dict):
            d[key].update(value)
        else:
            d[key] = value
    return json.dumps(d)


# ---------------------------------------------------------------------------
# Parsing
# ---------------------------------------------------------------------------


def test_minimal_document_parses_with_defaults():
    cfg = parse_config(doc())
    assert cfg.scenario == ScenarioConfig(kind="af", num_sites=4)
    assert cfg.protocol == ProtocolConfig()
    assert cfg.protocol.n_meas == EXACT_SHOTS
    assert cfg.targets == EstimatorTargets(subsystems=((1, 2),))
    assert cfg.seed == 0 and cfg.out == "results"


def test_full_document_parses():
    cfg = parse_config(doc(
        scenario={"kind": "quench", "num_sites": 8, "quench_time": 1.0, "j_quench_mhz": 0.18},
        protocol={
            "mode": "pulsed", "n_unitaries": 50, "n_meas": 800, "n_ave": 10,
            "eps_percent": 3, "fluctuation_scope": "per_shot",
            "readout": {"p_up_given_down": 0.01, "p_down_given_up": 0.03},
            "tol": 1e-5,
        },
        estimators={"subsystems": [[1], [1, 2]], "variance": True},
        seed=7,
        out="elsewhere",
    ))
    assert cfg.scenario.j_quench == pytest.approx(TWO_PI * 0.18)
    assert cfg.protocol.readout == ReadoutErrorModel(0.01, 0.03)
    assert cfg.protocol.eps_percent == 3.0
    assert cfg.targets.variance and not cfg.targets.energy
    assert cfg.seed == 7 and cfg.out == "elsewhere"


@pytest.mark.parametrize("section, key, literal", [
    ("scenario", "t_prep", "NaN"),
    ("scenario", "quench_time", "Infinity"),
    ("scenario", "j_quench_mhz", "NaN"),
    ("protocol", "tol", "NaN"),
    ("protocol", "tol", "1e999"),
    ("scenario", "t_prep", "1" + "0" * 400),
])
def test_non_finite_numbers_are_config_errors(section, key, literal):
    # json.loads reads NaN, Infinity and overflowing float literals as
    # floats; an integer past the float range overflows on conversion
    text = doc(protocol={"mode": "pulsed", "n_meas": 100}).replace(
        f'"{section}": {{', f'"{section}": {{"{key}": {literal}, ', 1
    )
    with pytest.raises(ConfigError, match="non-finite number"):
        parse_config(text)


@pytest.mark.parametrize("tol", [0.0, math.nan, math.inf])
def test_tol_rule_agrees_with_the_run(tol):
    # the run's grid certificate raises ValueError for the same values
    cfg = parse_config(doc(protocol={"mode": "pulsed", "n_meas": 100}))
    cfg = replace(cfg, protocol=replace(cfg.protocol, tol=tol))
    assert "protocol.tol: must be finite and positive" in validate(cfg)[0]
    with pytest.raises(ValueError, match="tol"):
        num_sites = cfg.scenario.num_sites
        _certify_grid(all_down(num_sites), golden_schedule(), _drive_operators(num_sites, None), tol)


def test_invalid_json_is_a_config_error():
    with pytest.raises(ConfigError, match="not valid JSON"):
        parse_config("{nope")
    with pytest.raises(ConfigError, match="top level"):
        parse_config("[1, 2]")


def test_missing_scenario_section():
    with pytest.raises(ConfigError, match="missing required section 'scenario'"):
        parse_config(json.dumps({"estimators": {"variance": True}}))


def test_unknown_keys_rejected_everywhere():
    bad = doc(
        scenario={"flavor": "up"},
        protocol={"shots": 3},
        estimators={"purity": True},
        extra=1,
    )
    with pytest.raises(ConfigError) as err:
        parse_config(bad)
    text = str(err.value)
    assert "scenario: unknown key 'flavor'" in text
    assert "protocol: unknown key 'shots'" in text
    assert "estimators: unknown key 'purity'" in text
    assert "top level: unknown key 'extra'" in text


def test_violations_are_collected_not_first_only():
    with pytest.raises(ConfigError) as err:
        parse_config(doc(scenario={"num_sites": "eight"}, seed="zero"))
    assert len(err.value.violations) >= 2


def test_bool_does_not_pass_as_int():
    with pytest.raises(ConfigError, match="protocol.n_unitaries"):
        parse_config(doc(protocol={"n_unitaries": True}))


def test_n_meas_exact_sentinel():
    cfg = parse_config(doc(protocol={"n_meas": "exact"}))
    assert cfg.protocol.n_meas == EXACT_SHOTS
    with pytest.raises(ConfigError, match="n_meas"):
        parse_config(doc(protocol={"n_meas": "lots"}))


def test_bad_readout_probability():
    with pytest.raises(ConfigError, match="readout"):
        parse_config(doc(protocol={"readout": {"p_up_given_down": 1.5}}))


def test_scenario_rules_surface_as_config_errors():
    with pytest.raises(ConfigError, match="scenario"):
        parse_config(doc(scenario={"kind": "ssh_gs", "num_sites": 7}))
    with pytest.raises(ConfigError, match="t_prep"):
        parse_config(doc(scenario={"kind": "adiabatic", "num_sites": 6}))
    # 1e308 MHz is finite in JSON, but not once turned into rad/us
    with pytest.raises(ConfigError, match="scenario: j_quench must be finite"):
        parse_config(doc(scenario={"j_quench_mhz": 1e308}))


def test_subsystem_entries_must_be_int_lists():
    with pytest.raises(ConfigError, match="subsystems"):
        parse_config(doc(estimators={"subsystems": [["one"]]}))


@pytest.mark.parametrize("over, message", [
    ({"protocol": {"n_unitaries": True}}, "protocol.n_unitaries: expected an integer, got true"),
    ({"protocol": {"n_meas": 2.5}}, 'protocol.n_meas: expected an integer or "exact", got 2.5'),
    ({"protocol": {"n_meas": "lots"}}, 'protocol.n_meas: expected an integer or "exact", got "lots"'),
    ({"protocol": {"readout": [0.1]}}, "protocol.readout: expected an object or null, got a list"),
    ({"scenario": {"t_prep": "long"}}, 'scenario.t_prep: expected a number, got "long"'),
    ({"estimators": {"energy": 1}}, "estimators.energy: expected true or false, got 1"),
    ({"seed": {}}, "top level.seed: expected an integer, got an object"),
])
def test_type_errors_name_json_types(over, message):
    with pytest.raises(ConfigError) as err:
        parse_config(doc(**over))
    assert err.value.violations == [message]


# ---------------------------------------------------------------------------
# Cross-field validation
# ---------------------------------------------------------------------------


def problems(text: str) -> list[str]:
    """Cross-field violations of a document that parses."""
    return validate(parse_config(text))[0]


def test_eps_requires_pulsed_mode():
    errs = problems(doc(protocol={"eps_percent": 3, "n_meas": 100}))
    assert any("requires pulsed" in e for e in errs)


def test_sites_outside_chain_rejected():
    assert "estimators.subsystems[0]: sites must lie in 1..4" in problems(
        doc(estimators={"subsystems": [[1, 5]]})
    )


def test_sites_must_be_sorted_and_distinct():
    for sites, message in (([2, 1], "sites must be sorted"), ([1, 1], "repeated sites in subsystem")):
        assert f"estimators.subsystems[0]: {message}" in problems(doc(estimators={"subsystems": [sites]}))


@pytest.mark.parametrize("sites", [[], [0], [15], [1, 1], list(range(1, 14))], ids=str)
def test_one_subsystem_rule_for_validate_and_both_estimators(sites):
    # validate words its error as the estimators' shared site check does
    psi = all_down(14)
    record = run_ideal(psi, sample_unitaries(14, 1, np.random.default_rng(0)), 2)
    messages = []
    for estimate, target in ((exact_purity, psi), (purity_estimate, record)):
        with pytest.raises(ValueError) as err:
            estimate(target, sites)
        messages.append(str(err.value))
    cfg = doc(scenario={"kind": "ssh_gs", "num_sites": 14}, estimators={"subsystems": [sites]})
    assert messages[0] == messages[1]
    assert f"estimators.subsystems[0]: {messages[0]}" in problems(cfg)


def test_nothing_to_estimate_rejected():
    assert any("nothing to estimate" in e for e in problems(doc(estimators={"subsystems": []})))


def test_n_meas_rule_is_the_protocols():
    # validate and MeasurementRecord report the one protocol rule
    with pytest.raises(ValueError) as rule:
        _check_n_meas(0)
    assert problems(doc(protocol={"n_meas": 0})) == [f"protocol.n_meas: {rule.value}"]
    with pytest.raises(ValueError) as record:
        MeasurementRecord(num_sites=2, mode="ideal", n_meas=0, labels=np.zeros((0, 2)), outcomes=np.zeros((0, 4)))
    assert str(record.value) == str(rule.value)


def test_single_shot_rejected_with_a_purity_target():
    # the purity estimator's shot-noise correction divides by N_meas - 1
    errs = problems(doc(protocol={"n_meas": 1}))
    assert errs == ["protocol.n_meas: purity estimation needs at least 2 shots per unitary"]
    # without a purity target one shot per unitary is a valid run
    energy_only = {"subsystems": [], "energy": True}
    assert problems(doc(protocol={"n_meas": 1}, estimators=energy_only)) == []
    assert problems(doc(protocol={"n_meas": 2})) == []


def test_budget_only_enforced_by_validate():
    # parsing accepts a large run; the runner gates it behind --allow-large
    cfg = parse_config(doc(protocol={"n_unitaries": 300, "n_meas": 400}))
    assert cfg.protocol.n_unitaries * cfg.protocol.n_meas > SHOT_BUDGET
    errs, _ = validate(cfg)
    assert any("shot budget" in e for e in errs)
    errs, _ = validate(cfg, allow_large=True)
    assert errs == []


def test_exact_readout_is_not_a_budget_violation():
    cfg = parse_config(doc(protocol={"n_unitaries": 10_000_000}))
    errs, _ = validate(cfg)
    assert errs == []


def test_pulsed_warning_on_strong_coupling():
    cfg = parse_config(doc(
        scenario={"kind": "quench", "num_sites": 4, "j_quench_mhz": 2.0},
        protocol={"mode": "pulsed", "n_meas": 100},
    ))
    _, warns = validate(cfg)
    assert any("interaction phase" in w for w in warns)
    calm = parse_config(doc(
        scenario={"kind": "quench", "num_sites": 4, "j_quench_mhz": 0.18},
        protocol={"mode": "pulsed", "n_meas": 100},
    ))
    assert validate(calm)[1] == []


def test_interaction_window_is_the_golden_schedule(monkeypatch):
    import types

    import rmlab.config as config

    calm = parse_config(doc(
        scenario={"kind": "quench", "num_sites": 4, "j_quench_mhz": 0.18},
        protocol={"mode": "pulsed", "n_meas": 100},
    ))
    # a 10 us rotation window turns the calm coupling into a strong one
    monkeypatch.setattr(config, "golden_schedule", lambda: types.SimpleNamespace(T=10.0))
    assert any("interaction phase" in w for w in validate(calm)[1])


def test_every_valid_af_config_prepares():
    from rmlab.scenarios import prepare_scenario
    from rmlab.statevector import MAX_SITES

    accepted = []
    for num_sites in range(1, MAX_SITES + 2):
        try:
            cfg = parse_config(doc(scenario={"kind": "af", "num_sites": num_sites}))
        except ConfigError:
            continue
        assert validate(cfg)[0] == []
        assert prepare_scenario(cfg.scenario).state.num_sites == num_sites
        accepted.append(num_sites)
    assert accepted == list(range(2, MAX_SITES + 1, 2))


# ---------------------------------------------------------------------------
# Serialization
# ---------------------------------------------------------------------------


def test_config_dict_round_trip_preserves_hash():
    cfg = load_config("noisy_pipeline_L8")
    again = parse_config(json.dumps(config_to_dict(cfg)))
    assert again == cfg
    assert config_hash(again) == config_hash(cfg)


def test_hash_ignores_document_key_order():
    a = parse_config(doc())
    shuffled = json.dumps(json.loads(doc()), sort_keys=True)
    b = parse_config(shuffled)
    assert config_hash(a) == config_hash(b)


def test_hash_ignores_how_a_readout_rate_is_spelled():
    # JSON 0 and 0.0 are one number; every number-valued key becomes a float
    a = parse_config(doc(protocol={"readout": {"p_up_given_down": 0}}))
    b = parse_config(doc(protocol={"readout": {"p_up_given_down": 0.0}}))
    assert config_hash(a) == config_hash(b)


# values these keys accept, drawn in place of any value of their type so
# that drawn documents often parse
_CHOICES = {
    "kind": KINDS, "num_sites": (4, 6, 8), "phase": PHASES, "ramp": RAMPS, "mode": MODES,
    "fluctuation_scope": ("per_unitary", "per_shot"), "out": ("results",),
}
_REQUIRED = {"top level": ("scenario",), "scenario": ("kind", "num_sites")}
_VALUES = {
    "an integer": st.integers(-1, 10),
    "a string": st.text(max_size=3),
    "a number": st.one_of(
        st.integers(0, 3),
        st.floats(0, 1, exclude_max=True),
        st.floats(allow_nan=False, allow_infinity=False),
    ),
    '"exact"': st.just("exact"),
    "true or false": st.booleans(),
    "a list": st.lists(st.lists(st.integers(1, 8), max_size=3), max_size=3),
    "null": st.none(),
}


def _documents(where="top level"):
    """Section ``where`` with each key of ``_KEYS`` left out or given a value
    of a JSON type the table allows; an object is the key's own section."""

    def value(key, want):
        if key in _CHOICES:
            return st.sampled_from(_CHOICES[key])
        inner = key if where == "top level" else f"{where}.{key}"
        return st.one_of(*(_documents(inner) if name == "an object" else _VALUES[name] for name in want))

    required = _REQUIRED.get(where, ())
    keys = {key: value(key, want) for key, want in _KEYS[where].items()}
    return st.fixed_dictionaries({key: keys.pop(key) for key in required}, optional=keys)


@given(_documents())
@example({"scenario": {"kind": "af", "num_sites": 4, "j_quench_mhz": 1e308}})
@example({"scenario": {"kind": "af", "num_sites": 4},
          "protocol": {"n_meas": "exact", "readout": {"p_up_given_down": 0}}})
@settings(max_examples=300, deadline=None)
def test_every_document_that_parses_round_trips(document):
    try:
        cfg = parse_config(json.dumps(document))
    except ConfigError:
        return
    again = parse_config(json.dumps(config_to_dict(cfg)))
    assert again == cfg
    assert config_hash(again) == config_hash(cfg)


def test_hash_sensitive_to_physics_fields():
    a = parse_config(doc())
    b = parse_config(doc(protocol={"n_unitaries": 99}))
    assert config_hash(a) != config_hash(b)


# ---------------------------------------------------------------------------
# Shipped configs
# ---------------------------------------------------------------------------


def test_shipped_configs_all_load_and_validate():
    names = shipped_config_names()
    assert "dimer_purity_L8" in names and "quench_profile_L8" in names
    for name in names:
        cfg = load_config(name)
        errs, warns = validate(cfg)
        assert errs == [], f"{name}: {errs}"
        assert warns == [], f"{name}: {warns}"


def test_shipped_configs_fit_the_shot_budget():
    for name in shipped_config_names():
        prot = load_config(name).protocol
        if prot.n_meas != EXACT_SHOTS:
            assert prot.n_unitaries * prot.n_meas <= SHOT_BUDGET


def test_load_config_from_path(tmp_path):
    p = tmp_path / "cfg.json"
    p.write_text(doc())
    assert load_config(str(p)) == parse_config(doc())


def test_load_config_unknown_name():
    with pytest.raises(ConfigError, match="not a readable file or shipped config"):
        load_config("no_such_config")
