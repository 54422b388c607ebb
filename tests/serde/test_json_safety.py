"""JSON-safety regression: no numpy types may leak into state dicts.

Every policy is driven exclusively with numpy inputs (arrays and
``np.float64`` scalars — the realistic telemetry path), then its
``to_state()`` output is (i) walked recursively asserting every leaf is a
*native* Python type (``np.float64`` is a float subclass, so a plain
``json.dumps`` success is not strict enough) and (ii) serialised with the
stdlib encoder.  ``MetricSpec.to_dict`` gets the same treatment with
numpy-typed parameters.
"""

import json

import numpy as np
import pytest

from repro import serde
from repro.service import MetricSpec, Monitor
from repro.sketches import available_policies, make_policy
from repro.streaming import CountWindow
from repro.streaming.aggregates import (
    CountOperator,
    MaxOperator,
    MeanOperator,
    MinOperator,
    SumOperator,
    VarianceOperator,
)
from repro.streaming.sources import Chunk
from repro.workloads import get_dataset

WINDOW = CountWindow(size=1024, period=256)
PHIS = (0.5, 0.9, 0.99)

CASES = {
    "exact": {},
    "qlove": {},
    "cmqs": {"epsilon": 0.05},
    "am": {"epsilon": 0.05},
    "random": {"epsilon": 0.05, "seed": 5},
    "moment": {"k": 8},
}


def assert_native(obj, path="$"):
    """Fail if any node is not an exact native JSON-compatible type."""
    if obj is None or obj is True or obj is False:
        return
    if type(obj) in (int, float, str):
        return
    if type(obj) is dict:
        for key, value in obj.items():
            assert type(key) is str, f"{path}: non-str dict key {key!r}"
            assert_native(value, f"{path}.{key}")
        return
    if type(obj) is list:
        for i, item in enumerate(obj):
            assert_native(item, f"{path}[{i}]")
        return
    raise AssertionError(
        f"{path}: non-native type {type(obj).__name__} ({obj!r}) leaked "
        "into a state dict"
    )


def test_battery_covers_every_registered_policy():
    assert set(CASES) == set(available_policies())


@pytest.mark.parametrize("name", sorted(CASES))
def test_policy_state_is_strictly_native(name):
    dataset = "normal" if name == "moment" else "netmon"
    values = get_dataset(dataset, 900, seed=0)
    policy = make_policy(name, PHIS, WINDOW, **CASES[name])
    # Numpy-flavoured ingestion: arrays, array slices and np scalars.
    policy.accumulate_batch(values[:256])
    policy.seal_subwindow()
    policy.accumulate_batch(np.asarray(values[256:512], dtype=np.float64))
    policy.seal_subwindow()
    for scalar in values[512:530]:
        policy.accumulate(scalar)  # np.float64, not float
    state = policy.to_state()
    assert_native(state)
    reparsed = json.loads(json.dumps(state))  # stdlib encoder must not raise
    assert reparsed["policy"] == name


def test_metric_spec_to_dict_coerces_numpy_params():
    spec = MetricSpec(
        name="rtt",
        quantiles=np.asarray([0.5, 0.99]),
        window={"size": np.int64(1024), "period": np.int64(256)},
        policy="cmqs",
        policy_params={"epsilon": np.float64(0.05)},
    )
    data = spec.to_dict()
    assert_native(data)
    json.dumps(data)
    assert MetricSpec.from_dict(data).to_dict() == data


def test_monitor_state_is_strictly_native():
    values = get_dataset("netmon", 2000, seed=1)
    monitor = Monitor()
    monitor.register(
        MetricSpec(
            name="rtt",
            quantiles=[0.5, 0.99],
            window={"size": 1000, "period": 250},
            policy="qlove",
            policy_params={"fewk": {"samplek_fraction": 0.02}},
        )
    )
    monitor.observe_batch("rtt", values)
    state = monitor.to_state()
    assert_native(state)
    json.dumps(state)


def test_aggregate_states_are_strictly_native():
    chunk = Chunk(values=np.arange(32, dtype=np.float64))
    for operator in (
        CountOperator(),
        SumOperator(),
        MeanOperator(),
        VarianceOperator(),
        MinOperator(),
        MaxOperator(),
    ):
        state = operator.accumulate_batch(operator.initial_state(), chunk)
        data = operator.state_to_dict(state)
        assert_native(data)
        revived = operator.state_from_dict(json.loads(json.dumps(data)))
        assert operator.compute_result(revived) == operator.compute_result(state)


def test_as_native_coerces_numpy_scalars_and_arrays():
    raw = {
        "a": np.int64(3),
        "b": np.float64(1.5),
        "c": np.asarray([1.0, 2.0]),
        "d": [np.bool_(True), (np.int32(1), "x")],
    }
    native = serde.as_native(raw)
    assert_native(native)
    assert native == {"a": 3, "b": 1.5, "c": [1.0, 2.0], "d": [True, [1, "x"]]}


def test_as_native_keeps_builtins_and_walks_other_mappings():
    import enum
    from collections import OrderedDict
    from types import MappingProxyType

    class Level(enum.IntEnum):
        HIGH = 2

    raw = OrderedDict(
        a=True,
        b=None,
        c=(1, 2.5, "s"),
        d=MappingProxyType({"x": np.float32(0.5), "y": float("-inf")}),
        e=Level.HIGH,
    )
    native = serde.as_native(raw)
    assert type(native) is dict and type(native["d"]) is dict
    assert native == {
        "a": True, "b": None, "c": [1, 2.5, "s"],
        "d": {"x": 0.5, "y": float("-inf")}, "e": 2,
    }
    assert native["a"] is True and type(native["c"][0]) is int
    assert native["e"] is Level.HIGH  # int subclasses pass through as before
    nested = {"k": [1, [2.0, {"z": "w"}]]}
    assert serde.as_native(nested) == nested
