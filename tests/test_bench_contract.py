"""The benchmark traces library functions by replacing module attributes,
so each function it names must exist, or its traced runs fail before they
start."""

import sys
from pathlib import Path

import pytest

sys.path.insert(0, str(Path(__file__).resolve().parents[1] / "bench"))

import tracing  # noqa: E402
import workloads  # noqa: E402


def test_wrapped_functions_exist():
    missing = [label for (module, name, _, _), label
               in zip(tracing.WRAPPED, tracing.FUNCTIONS)
               if not callable(getattr(module, name, None))]
    assert missing == []


@pytest.mark.parametrize("workload", sorted(workloads.BUILDERS))
def test_expected_calls_are_wrapped(workload):
    expected = workloads.build(workload, 0).expected_calls
    assert expected and set(expected) <= set(tracing.FUNCTIONS)
