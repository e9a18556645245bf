"""Per-layer spans recorded from outside the library.

The tracer wraps public module functions by assigning module attributes.
The library resolves its calls, within a module too, through module
globals, so every call reaches the wrapper.  Each call records a span
(function, start, end, parent span, an observed value) in memory; the
per-layer metrics are computed from the spans when the run ends.  A
layer's time is self time: its spans minus the child spans they contain.

With ``memory=True`` the tracer wraps only the functions of MEMORY_LAYERS,
which allocate whole tables, and records the tracemalloc peak of each call.
tracemalloc runs only while such a call is open, so the pure-Python layers
do not pay for it; a separate pass carries this overhead, so it stays out
of the self times.
"""

from __future__ import annotations

import functools
import time
import tracemalloc
from collections import defaultdict

from skewbracoid import (braces, bracoids, cli, corpus, groups, ideals, maps,
                         serialize, ybe)

MIB = 2**20


def _length(args, result):
    return len(result)


def _sli(args, result):
    return bool(result.strong_left_ideal_of)


def _exhaustive(args, result):
    return result.checked == "exhaustive"


def _inline_json_length(args, result):
    text = args[0]
    return len(text) if text.lstrip().startswith("{") else 0


def _first_arg(args, result):
    return args[0]


# (module, function, layer, observer of (args, result)).  A layer metric
# "<layer>_s" sums the self time of its functions.
WRAPPED = [
    (groups, "cyclic", "groups.build", None),
    (groups, "dihedral", "groups.build", None),
    (groups, "symmetric", "groups.build", None),
    (groups, "direct_product", "groups.build", None),
    (groups, "semidirect", "groups.build", None),
    (groups, "from_table", "groups.build", None),
    (groups, "build_group", "groups.build", None),
    (groups, "verify_group_table", "groups.verify_table", None),
    (groups, "enumerate_subgroups", "groups.subgroups", _length),
    (groups, "closure", "groups.subgroups", None),
    (groups, "is_normal", "groups.predicates", None),
    (groups, "commutator_condition", "groups.predicates", None),
    (groups, "coset_space", "groups.predicates", None),
    (groups, "center", "groups.predicates", None),
    (maps, "enumerate_abelian_maps", "maps.enumerate", _length),
    (maps, "phi_of", "maps.phi", None),
    (maps, "make_map", "maps.make", None),
    (maps, "trivial_map", "maps.make", None),
    (maps, "product_swap_map", "maps.make", None),
    (maps, "psi_iterate", "maps.make", None),
    (maps, "phi_power", "maps.make", None),
    (maps, "map_analysis", "maps.make", None),
    (maps, "left_regular_map", "maps.make", None),
    (ideals, "classify_subgroup", "ideals.classify", _sli),
    (ideals, "find_strong_left_ideals", "ideals.classify", None),
    (ideals, "named_subgroups", "ideals.classify", None),
    (braces, "table_of", "braces.circle", None),
    (braces, "circle_table", "braces.circle", None),
    (braces, "opposite_table", "braces.circle", None),
    (braces, "verify_brace", "braces.verify", _exhaustive),
    (braces, "make_brace", "braces.verify", None),
    (braces, "braces_from_map", "braces.verify", None),
    (braces, "brace_block", "braces.verify", None),
    (bracoids, "bracoid_from_C1", "bracoids.build", None),
    (bracoids, "bracoid_from_C2", "bracoids.build", None),
    (bracoids, "phi_tower_bracoid", "bracoids.build", None),
    (bracoids, "reduce_bracoid", "bracoids.build", None),
    (bracoids, "verify_bracoid", "bracoids.verify", None),
    (bracoids, "find_contained_brace", "bracoids.contained", None),
    (ybe, "build_ybe_idempotent", "ybe.build", None),
    (ybe, "build_ybe_product", "ybe.build", None),
    (ybe, "build_ybe_abelian_pair", "ybe.build", None),
    (ybe, "build_ybe_from_contained_brace", "ybe.build", None),
    (ybe, "verify_ybe", "ybe.verify", None),
    (serialize, "export_json", "serialize.export", _length),
    (serialize, "export_pretty", "serialize.export", _length),
    (serialize, "parse_group", "serialize.parse", None),
    (serialize, "parse_map", "serialize.parse", None),
    (corpus, "run_all", "corpus.self", None),
    (corpus, "run_fixture", "corpus.self", _first_arg),
    (cli, "main", "cli.self", None),
    (cli, "_load_json_arg", "cli.self", _inline_json_length),
]

FUNCTIONS = [f"{module.__name__.rsplit('.', 1)[1]}.{name}"
             for module, name, _, _ in WRAPPED]
LAYERS = sorted({layer for _, _, layer, _ in WRAPPED})
PEAK_LAYERS = ("groups", "braces", "ybe")
MEMORY_LAYERS = ("groups.build", "groups.verify_table", "braces.circle",
                 "braces.verify", "ybe.build", "ybe.verify")


class Tracer:
    """Installs the wrappers; records spans only while `active` is set."""

    def __init__(self, memory: bool = False):
        self.memory = memory
        self.active = False
        # (function index, start, end, parent index, observed value, peak)
        self.spans: list[tuple] = []
        self._stack: list[int] = []
        self._peaks: list[int] = []  # running peak of each open span
        self._originals = [getattr(module, name) for module, name, _, _ in WRAPPED]

    def install(self) -> None:
        for fid, ((module, name, layer, observe), fn) in enumerate(
                zip(WRAPPED, self._originals)):
            if not self.memory or layer in MEMORY_LAYERS:
                setattr(module, name, self._wrap(fid, fn, observe))

    def uninstall(self) -> None:
        for (module, name, _, _), fn in zip(WRAPPED, self._originals):
            setattr(module, name, fn)

    def _wrap(self, fid, fn, observe):
        spans, stack, peaks = self.spans, self._stack, self._peaks
        memory = self.memory
        clock = time.perf_counter

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            if not self.active:
                return fn(*args, **kwargs)
            parent = stack[-1] if stack else -1
            idx = len(spans)
            spans.append(None)
            stack.append(idx)
            if memory:
                started = not tracemalloc.is_tracing()
                if started:
                    tracemalloc.start()
                current, peak = tracemalloc.get_traced_memory()
                if peaks:
                    peaks[-1] = max(peaks[-1], peak)
                tracemalloc.reset_peak()
                peaks.append(0)
            start = clock()
            result = None
            try:
                result = fn(*args, **kwargs)
                return result
            finally:
                end = clock()
                stack.pop()
                used = 0
                if memory:
                    peak = max(peaks.pop(), tracemalloc.get_traced_memory()[1])
                    if peaks:
                        peaks[-1] = max(peaks[-1], peak)
                    used = peak - current
                    if started:
                        tracemalloc.stop()
                seen = observe(args, result) if observe and result is not None else None
                spans[idx] = (fid, start, end, parent, seen, used)

        return wrapper

    def clear(self) -> None:
        self.spans.clear()


def call_counts(spans) -> dict[str, int]:
    counts = defaultdict(int)
    for fid, *_ in spans:
        counts[FUNCTIONS[fid]] += 1
    return counts


def layer_metrics(spans) -> dict[str, float]:
    """Per-layer metrics of one traced pass."""
    child = [0.0] * len(spans)
    for fid, start, end, parent, _, _ in spans:
        if parent >= 0:
            child[parent] += end - start
    self_s = defaultdict(float)
    counts = call_counts(spans)
    seen = defaultdict(list)
    fixture_s = defaultdict(float)
    for i, (fid, start, end, parent, value, _) in enumerate(spans):
        self_s[WRAPPED[fid][2]] += end - start - child[i]
        if value is not None:
            seen[FUNCTIONS[fid]].append(value)
        if FUNCTIONS[fid] == "corpus.run_fixture":
            fixture_s[value] += end - start
    out = {f"{layer}_s": self_s[layer] for layer in LAYERS}
    closures = counts["groups.closure"]
    found = sum(seen["groups.enumerate_subgroups"])
    verify_calls = counts["braces.verify_brace"]
    out.update({
        "groups.verify_table_calls": counts["groups.verify_group_table"],
        "groups.closure_calls": closures,
        "groups.subgroups_found": found,
        "groups.subgroups_per_closure": found / closures if closures else 0.0,
        "maps.enumerate_calls": counts["maps.enumerate_abelian_maps"],
        "maps.maps_found": sum(seen["maps.enumerate_abelian_maps"]),
        "maps.phi_calls": counts["maps.phi_of"],
        "ideals.classify_calls": counts["ideals.classify_subgroup"],
        "ideals.verdicts": len(seen["ideals.classify_subgroup"]),
        "ideals.sli_verdicts": sum(seen["ideals.classify_subgroup"]),
        "braces.verify_calls": verify_calls,
        "braces.exhaustive_frac": (sum(seen["braces.verify_brace"]) / verify_calls
                                   if verify_calls else 0.0),
        "ybe.verify_calls": counts["ybe.verify_ybe"],
        "serialize.export_mb": (sum(seen["serialize.export_json"])
                                + sum(seen["serialize.export_pretty"])) / MIB,
        "serialize.parse_mb": sum(seen["cli._load_json_arg"]) / MIB,
    })
    for name in corpus.FIXTURE_NAMES:
        out[f"corpus.fixture_s.{name}"] = fixture_s[name]
    return out


def peak_metrics(spans) -> dict[str, float]:
    """Largest tracemalloc peak of any call into each of PEAK_LAYERS."""
    peak = defaultdict(int)
    for fid, *_, used in spans:
        layer = WRAPPED[fid][2].split(".")[0]
        peak[layer] = max(peak[layer], used)
    return {f"{layer}.peak_mb": peak[layer] / MIB for layer in PEAK_LAYERS}
