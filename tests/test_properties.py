"""Property tests of the input boundary: CLI options, link flags, model cards, the model's classes and counts.

Any JSON value a config file or a model card can hold must come out either
as a value of the declared kind or as a ValueError naming what was wrong;
any other exception is a crash at the boundary.  No sweep or link runs here.
"""

import json
import re

import numpy as np
import pytest
from hypothesis import example, given, settings, strategies as st

from pvlc import cli
from pvlc.calibration import ResponseSample, load_model_card
from pvlc.device import ModuleSpec, PVCellParams, check_count, is_finite
from pvlc.experiments import export_eye
from pvlc.link import LinkConfig
from pvlc.seeding import payload_bits

JSON_SCALARS = (
    st.none()
    | st.booleans()
    | st.integers(-100, 100)
    | st.integers(-(10**400), 10**400)
    | st.floats()                  # NaN and +-inf included
    | st.text(max_size=8)
    | st.sampled_from(["1,2", "0.3", "0,inf", "nan", "1e400", ",", "2.5", " 4 "])
)
JSON_VALUES = (
    JSON_SCALARS
    | st.lists(JSON_SCALARS, max_size=4)
    | st.dictionaries(st.text(max_size=4), JSON_SCALARS, max_size=3)
)

# Each test runs these values, then hypothesis' own draws: a per-key budget
# of 25 keeps the 38 parametrized tests to a few seconds.
EDGE_CASES = [10**400, -(2**1024), float("nan"), float("inf"), True, 0, [1.5], [True], [], "nan", "0,inf"]


def edge_cases(test):
    for value in EDGE_CASES:
        test = example(value=value)(test)
    return settings(deadline=None, max_examples=25)(test)


# One test per sweep option checks it in the row of every sweep kind that reads it.
GROUPS = {name: name if name in ("fit", "simulate") else "sweep" for name in cli.OPTIONS}
OPTION_KEYS = sorted({(GROUPS[name], key) for name, options in cli.OPTIONS.items() for key, *_ in options})
LINK_KEYS = {key: (field, kind) for key, field, kind, _ in cli.LINK_FLAGS}


def is_number(value, kind):
    return type(value) is kind and is_finite(value)


@edge_cases
@given(value=JSON_VALUES)
@pytest.mark.parametrize("command,key", OPTION_KEYS)
def test_resolved_option_has_declared_kind(command, key, value):
    for name, options in cli.OPTIONS.items():
        if GROUPS[name] == command and key in (option for option, *_ in options):
            check_resolved(options, key, value)


def check_resolved(options, key, value):
    kind, default = next((k, d) for name, k, d, _ in options if name == key)
    try:
        resolved = cli._resolve({key: value}, options)[key]
    except ValueError as exc:
        assert cli._flag(key) in str(exc)
        return
    if value is None:
        assert resolved is default
    elif isinstance(kind, list):
        assert isinstance(resolved, list) and resolved
        assert all(is_number(item, kind[0]) for item in resolved)
    elif kind is str:
        assert isinstance(resolved, str)
    else:
        assert is_number(resolved, kind) and resolved > 0


@edge_cases
@given(value=JSON_VALUES)
@pytest.mark.parametrize("key", list(LINK_KEYS))
def test_link_config_has_declared_kind(key, value):
    field, kind = LINK_KEYS[key]
    merged = {"seed": 1} | {key: value}
    try:
        config = cli._link_config(merged, "simulate")
    except ValueError as exc:
        # the flag check names the flag, LinkConfig's range check the field
        assert cli._flag(key) in str(exc) or field in str(exc)
        return
    assert isinstance(config, LinkConfig)
    if value is not None:
        resolved = getattr(config, field)
        assert is_number(resolved, kind)


VALID_CARD = {
    "cell_count": 2, "n": 1.5, "i0": 1e-10, "eta": 2e-9, "temperature": 300.0,
    "fit": {"rmse": 1e-4, "converged": True},
}


@edge_cases
@given(value=JSON_VALUES)
@pytest.mark.parametrize("field", [*VALID_CARD, "fit.rmse", "fit.converged"])
def test_model_card_field_yields_spec_or_value_error(field, value):
    card = json.loads(json.dumps(VALID_CARD))
    *parent, name = field.split(".")
    (card["fit"] if parent else card)[name] = value
    try:
        spec = load_model_card(json.dumps(card).encode())
    except ValueError:
        return
    assert isinstance(spec, ModuleSpec)


VALID_FIELDS = {
    PVCellParams: dict(n=1.5, i0=1e-10, eta=2e-9, temperature=300.0),
    ModuleSpec: dict(cell_count=2, params=PVCellParams(1.5, 1e-10, 2e-9)),
    ResponseSample: dict(lux=100.0, volts=0.3),
}
CLASS_FIELDS = [(cls, name) for cls, fields in VALID_FIELDS.items() for name in fields if name != "params"]


@edge_cases
@given(value=JSON_VALUES)
@pytest.mark.parametrize("cls,field", CLASS_FIELDS, ids=[f"{c.__name__}.{f}" for c, f in CLASS_FIELDS])
def test_class_field_is_finite_or_value_error(cls, field, value):
    try:
        obj = cls(**VALID_FIELDS[cls] | {field: value})
    except ValueError as exc:
        assert str(exc).startswith(f"{field} must be")
        return
    assert is_finite(getattr(obj, field))


COUNT_VALUES = (
    st.none()
    | st.booleans()
    | st.booleans().map(np.bool_)
    | st.integers(-3, 300)
    | st.integers(-3, 300).map(np.int64)
    | st.integers(0, 2**64 - 1).map(np.uint64)
    | st.integers(-(10**400), 10**400)
    | st.floats()
    | st.text(max_size=4)
)
# (minimum, call) of an integer argument at four boundaries, by the name it is checked under
COUNT_SITES = {
    "cell_count": (1, lambda n: ModuleSpec(n, PVCellParams(1.5, 1e-10, 2e-9))),
    "seed": (0, lambda n: LinkConfig(seed=n)),
    "traces": (1, lambda n: export_eye(np.zeros(64), 2, n)),
    "base_seed": (0, lambda n: payload_bits(4, n)),
}


@settings(deadline=None, max_examples=60)
@given(value=COUNT_VALUES)
@example(value=10**400)
@example(value=np.True_)
@example(value=8.0)
@example(value="8")
@example(value=np.int64(0))
@example(value=np.uint64(2**62))   # a product of numpy integers would overflow
@pytest.mark.parametrize("name", list(COUNT_SITES))
def test_count_argument_accepts_what_check_count_accepts(name, value):
    minimum, call = COUNT_SITES[name]
    try:
        check_count(name, value, minimum)
    except ValueError as exc:
        with pytest.raises(ValueError, match=f"^{re.escape(str(exc))}$"):
            call(value)
        return
    try:
        call(value)
    except ValueError as exc:   # more traces than the 64-sample waveform holds
        assert name == "traces" and str(exc).startswith("waveform has 64 samples")
