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


@pytest.mark.parametrize("workload", sorted(workloads.BUILDERS))
def test_one_traced_pass_is_correct(workload):
    """One pass of every operation with the tracer installed, as a traced
    bench run makes it: every check passes, known defects included, so the
    corrupted C1000 table must be rejected, and every expected call
    records a span.  Checks run outside the traced region, as in the bench."""
    w = workloads.build(workload, 0)
    tracer = tracing.Tracer(memory=False)
    tracer.install()
    tracer.active = True
    try:
        results = [op.run() for op in w.ops]
    finally:
        tracer.active = False
        tracer.uninstall()
    failed = {op.name: error for op, result in zip(w.ops, results)
              if (error := op.check(result)) is not None}
    assert failed == {}
    calls = tracing.call_counts(tracer.spans)
    assert [name for name in w.expected_calls if not calls.get(name)] == []
