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
    """One traced pass (`traced_pass`): every check passes, known defects
    included, so the corrupted C1000 table must be rejected, and every
    expected call records a span.  Checks run outside the traced region,
    as in the bench."""
    w, results, spans = traced_pass(workload)
    failed = {op.name: error for op, result in zip(w.ops, results)
              if (error := op.check(result)) is not None}
    assert failed == {}
    calls = tracing.call_counts(spans)
    assert [name for name in w.expected_calls if not calls.get(name)] == []


def traced_pass(workload):
    """The workload, its results and the spans of one pass of every
    operation with the tracer installed, as a traced bench run makes it."""
    w = workloads.build(workload, 0)
    tracer = tracing.Tracer(memory=False)
    tracer.install()
    tracer.active = True
    try:
        results = [op.run() for op in w.ops]
    finally:
        tracer.active = False
        tracer.uninstall()
    return w, results, tracer.spans


def test_sweep_call_shape_is_pinned():
    """One sweep pass makes one verdict per (psi, subgroup) through its own
    `classify_subgroup` call, and one phi, one circle table and one
    commutator test per psi (281 catalogue maps and the D4xD4 tower), so
    a change that drops a per-row or per-map call fails here, and not
    only in the per-layer metrics, which no run gates."""
    _, _, spans = traced_pass("sweep")
    calls, metrics = tracing.call_counts(spans), tracing.layer_metrics(spans)
    assert {name: calls[name] for name in (
        "ideals.classify_subgroup", "braces.circle_table", "maps.phi_of",
        "groups.commutator_condition")} == {
        "ideals.classify_subgroup": 2982, "braces.circle_table": 282,
        "maps.phi_of": 282, "groups.commutator_condition": 282}
    assert (metrics["ideals.verdicts"], metrics["ideals.sli_verdicts"]) == (2982, 1738)


def test_corpus_call_shape_is_pinned():
    """One corpus pass verifies each bracoid once, where it is built or
    taken in: 28 phi-towers and 5 C2 bracoids in their builders, one C2
    bracoid that a fixture checks itself, and the one that
    `build_ybe_from_contained_brace` takes (57 when every certified
    `verify_ybe` verified its bracoid again).  So a change that re-derives
    a certificate fails here, and not only in the per-layer metrics."""
    _, _, spans = traced_pass("corpus")
    calls = tracing.call_counts(spans)
    assert {name: calls[name] for name in (
        "bracoids.verify_bracoid", "ybe.verify_ybe", "groups.verify_group_table")} == {
        "bracoids.verify_bracoid": 35, "ybe.verify_ybe": 24,
        "groups.verify_group_table": 28}
