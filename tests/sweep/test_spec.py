"""Campaign specs: validation, loaders, deterministic expansion."""

import json

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.sweep import CampaignSpec, FaultAxis, loads_toml

SMOKE_TOML = """
# a comment
name = "demo"            # trailing comment
agents = ["overclock", "harvest"]
scales = [2, 4]
seeds = [0, 1]
duration_s = 30
rack_size = 2

[[fault]]
kind = "bad_data"
intensities = [0.5, 0.9]
start_s = 5
duration_s = 10
racks = [0]

[[fault]]
kind = "crash_restart"
intensities = [1.0]
start_s = 5
duration_s = 10
racks = [0]
"""


def _spec(**overrides):
    defaults = dict(
        name="t",
        agents=("overclock",),
        scales=(2,),
        seeds=(0,),
        duration_s=30,
        rack_size=2,
        faults=(),
    )
    defaults.update(overrides)
    return CampaignSpec(**defaults)


# -- validation --------------------------------------------------------------


def test_spec_rejects_unknown_agent():
    with pytest.raises(ValueError, match="agent"):
        _spec(agents=("toaster",))


def test_spec_rejects_bad_scales_and_seeds():
    with pytest.raises(ValueError):
        _spec(scales=(0,))
    with pytest.raises(ValueError):
        _spec(scales=())
    with pytest.raises(ValueError):
        _spec(seeds=())


def test_spec_rejects_fault_window_past_duration():
    axis = FaultAxis(kind="bad_data", intensities=(0.5,), start_s=30,
                     duration_s=10)
    with pytest.raises(ValueError, match="starts at"):
        _spec(duration_s=30, faults=(axis,))


def test_spec_rejects_racks_outside_smallest_scale():
    axis = FaultAxis(kind="bad_data", intensities=(0.5,), start_s=5,
                     duration_s=10, racks=(3,))
    with pytest.raises(ValueError, match="racks"):
        _spec(scales=(2, 16), rack_size=2, faults=(axis,))


def test_fault_axis_validation():
    with pytest.raises(ValueError, match="kind"):
        FaultAxis(kind="meteor", intensities=(0.5,))
    with pytest.raises(ValueError, match="intensities"):
        FaultAxis(kind="bad_data", intensities=())
    with pytest.raises(ValueError, match="baseline"):
        FaultAxis(kind="bad_data", intensities=(0.0,))
    with pytest.raises(ValueError):
        FaultAxis(kind="bad_data", intensities=(1.5,))


# -- expansion ---------------------------------------------------------------


def test_expand_emits_one_baseline_per_combination_plus_cells():
    spec = loads_toml(SMOKE_TOML)
    units = spec.expand()
    # 2 agents × 2 scales × 2 seeds × (1 baseline + 2 + 1 faulted cells)
    assert len(units) == 2 * 2 * 2 * 4
    baselines = [u for u in units if u.is_baseline]
    assert len(baselines) == 8
    assert len({u.unit_id() for u in units}) == len(units)


def test_expand_order_is_deterministic_and_canonical():
    spec = loads_toml(SMOKE_TOML)
    first = [u.unit_id() for u in spec.expand()]
    second = [u.unit_id() for u in spec.expand()]
    assert first == second
    assert first == sorted(
        first,
        key=lambda i: [u.sort_key() for u in spec.expand()
                       if u.unit_id() == i][0],
    )


# -- loaders -----------------------------------------------------------------


def test_from_dict_rejects_unknown_keys():
    with pytest.raises(ValueError, match="unknown campaign keys"):
        CampaignSpec.from_dict(
            {"name": "x", "agents": ["overclock"], "scales": [2],
             "surprise": 1}
        )


def test_from_dict_rejects_unknown_fault_keys_and_missing_fields():
    base = {"name": "x", "agents": ["overclock"], "scales": [2]}
    with pytest.raises(ValueError, match="unknown fault keys"):
        CampaignSpec.from_dict(
            {**base, "fault": [{"kind": "bad_data", "intensities": [0.5],
                                "color": "red"}]}
        )
    with pytest.raises(ValueError, match="needs 'kind'"):
        CampaignSpec.from_dict({**base, "fault": [{"intensities": [0.5]}]})
    with pytest.raises(ValueError, match="missing key"):
        CampaignSpec.from_dict({"name": "x", "agents": ["overclock"]})


def test_from_dict_rejects_scalar_where_array_expected():
    with pytest.raises(ValueError, match="must be an array"):
        CampaignSpec.from_dict(
            {"name": "x", "agents": "overclock", "scales": [2]}
        )


def test_loads_toml_round_trip():
    spec = loads_toml(SMOKE_TOML)
    assert spec.name == "demo"
    assert spec.agents == ("overclock", "harvest")
    assert spec.scales == (2, 4)
    assert spec.seeds == (0, 1)
    assert len(spec.faults) == 2
    assert spec.faults[0].intensities == (0.5, 0.9)
    assert spec.faults[1].kind == "crash_restart"


# -- fuzzing the TOML loader --------------------------------------------------


def test_deeply_nested_toml_array_is_a_value_error():
    depth = 5_000
    with pytest.raises(ValueError, match="nested too deeply"):
        loads_toml("a = " + "[" * depth + "]" * depth)


def _toml(value):
    """A TOML rendering of a JSON-ish value (inline forms only)."""
    if isinstance(value, bool):
        return "true" if value else "false"
    if isinstance(value, (int, str)):
        return json.dumps(value)
    if isinstance(value, float):
        if value != value:
            return "nan"
        if value in (float("inf"), float("-inf")):
            return "inf" if value > 0 else "-inf"
        return repr(value)
    if isinstance(value, list):
        return "[" + ", ".join(_toml(item) for item in value) + "]"
    return "{" + ", ".join(
        f"{json.dumps(key)} = {_toml(item)}" for key, item in value.items()
    ) + "}"


_toml_values = st.recursive(
    st.booleans()
    | st.integers(min_value=-(2**63), max_value=2**63 - 1)
    | st.floats()
    | st.text(max_size=6)
    | st.sampled_from(["overclock", "harvest", "bad_data", "dropout"]),
    lambda children: st.lists(children, max_size=3)
    | st.dictionaries(st.text(max_size=4), children, max_size=2),
    max_leaves=6,
)
_VALID_TOP = {
    "name": "fuzz", "agents": ["overclock"], "scales": [4], "seeds": [0],
    "duration_s": 60, "rack_size": 4,
}
_VALID_FAULT = {
    "kind": "bad_data", "intensities": [0.5], "start_s": 10,
    "duration_s": 30, "racks": [0],
}


def _overridden(valid):
    """The valid table with some keys given arbitrary values."""
    return st.dictionaries(
        st.sampled_from(sorted(valid) + ["bogus"]),
        _toml_values | _toml_values.map(lambda value: [value]),
        max_size=3,
    ).map(lambda overrides: {**valid, **overrides})


@settings(max_examples=500, deadline=None)
@given(
    top=_overridden(_VALID_TOP),
    faults=st.lists(_overridden(_VALID_FAULT), max_size=2),
)
def test_campaign_shaped_toml_loads_or_raises_value_error(top, faults):
    """Well-formed TOML whose campaign keys hold values of any type: the
    loader returns a spec or raises ``ValueError``, never a
    ``TypeError``/``OverflowError`` from a coercion."""
    lines = [f"{key} = {_toml(value)}" for key, value in top.items()]
    for fault in faults:
        lines.append("[[fault]]")
        lines.extend(f"{key} = {_toml(value)}" for key, value in fault.items())
    try:
        spec = loads_toml("\n".join(lines))
    except ValueError:
        return
    assert isinstance(spec, CampaignSpec)


@settings(max_examples=300, deadline=None)
@given(text=st.text(max_size=200))
def test_arbitrary_text_loads_or_raises_value_error(text):
    try:
        loads_toml(text)
    except ValueError:
        pass
