"""Unit tests for repro.util.validation."""

import pytest

from repro.envvars import (
    REPRO_DISK_CACHE,
    REPRO_STRICT_EXPECTATIONS,
    REPRO_TRACE_STORE,
)
from repro.eval import cli, diskcache
from repro.trace import store
from repro.util.validation import check_positive, check_power_of_two, check_probability


class TestCheckPositive:
    def test_accepts_positive(self):
        check_positive("x", 1)
        check_positive("x", 0.5)

    @pytest.mark.parametrize("value", [0, -1, -0.5])
    def test_rejects_nonpositive(self, value):
        with pytest.raises(ValueError, match="x"):
            check_positive("x", value)


class TestCheckPowerOfTwo:
    @pytest.mark.parametrize("value", [1, 2, 64, 8192])
    def test_accepts_powers(self, value):
        check_power_of_two("x", value)

    @pytest.mark.parametrize("value", [0, -2, 3, 6, 100])
    def test_rejects_non_powers(self, value):
        with pytest.raises(ValueError, match="x"):
            check_power_of_two("x", value)


class TestCheckProbability:
    @pytest.mark.parametrize("value", [0.0, 0.5, 1.0])
    def test_accepts_unit_interval(self, value):
        check_probability("p", value)

    @pytest.mark.parametrize("value", [-0.01, 1.01, 5])
    def test_rejects_outside(self, value):
        with pytest.raises(ValueError, match="p"):
            check_probability("p", value)


#: every boolean REPRO_* knob: (variable, reader, default when unset/empty).
BOOLEAN_KNOBS = [
    (REPRO_DISK_CACHE, diskcache.enabled, True),
    (REPRO_TRACE_STORE, store.enabled, True),
    (REPRO_STRICT_EXPECTATIONS, lambda: cli._strict_enabled(None), False),
]


@pytest.mark.parametrize("variable, reader, default", BOOLEAN_KNOBS)
@pytest.mark.parametrize(
    "raw, expected",
    [
        ("1", True), ("TRUE", True), (" On ", True),
        ("0", False), ("No", False),
        ("", None),
        ("of", ValueError), ("disabled", ValueError), ("ture", ValueError),
    ],
)
def test_boolean_env_knobs_share_one_parser(
    monkeypatch, variable, reader, default, raw, expected
):
    monkeypatch.setenv(variable, raw)
    if expected is ValueError:
        with pytest.raises(ValueError, match=f"{variable}=.*1/true/yes/on"):
            reader()
    else:
        assert reader() is (default if expected is None else expected)
    monkeypatch.delenv(variable)
    assert reader() is default
