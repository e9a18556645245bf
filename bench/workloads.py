"""The benchmark's workloads: inputs made from a seed, operations, checks.

A workload is a list of operations run one after another by one client in
one single-threaded process.  An operation is either a CLI invocation
(``cli.main(argv)`` in-process, stdout captured) or a library call.  Every
operation rebuilds its groups and maps from their specs, so memoisation
keyed on objects cannot carry work from one pass to the next.

The seed picks the corrupted cells of the negative controls and the order
of operations within each pass.  Outputs of the valid operations do not
depend on it: their exit codes and SHA-256 digests were recorded once, by
``record.py``, in ``expected.json``.
"""

from __future__ import annotations

import contextlib
import hashlib
import io
import json
import random
from dataclasses import dataclass, field
from pathlib import Path
from typing import Callable

import numpy as np

from skewbracoid import cli, groups, ideals, maps, serialize, ybe

EXPECTED_PATH = Path(__file__).with_name("expected.json")

# The order-1000 table check samples associativity on triples drawn by this
# generator.  The C1000 control corrupts only cells those triples never
# read, so that it pins the known defect: sampled checks accept tables that
# are not groups.
ASSOC_SAMPLER_SEED = 0
ASSOC_SAMPLER_TRIPLES = 100_000


@dataclass
class Op:
    """One timed operation and the check of its result.

    `digest` is set on operations whose output was recorded at the seed.
    """

    name: str
    run: Callable[[], object]
    check: Callable[[object], str | None]
    digest: Callable[[object], dict] | None = None


@dataclass
class Workload:
    ops: list[Op]
    # Operations that fail at the seed because of a known library defect:
    # they count as failed but do not make the run incorrect.
    known_defects: frozenset[str] = field(default_factory=frozenset)
    # Wrapped functions the traced run must see called at least once.
    expected_calls: tuple[str, ...] = ()


def run_cli(argv: list[str]) -> tuple[int, str]:
    out, err = io.StringIO(), io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        rc = cli.main(argv)
    return rc, out.getvalue()


def sha256(text: str) -> str:
    return hashlib.sha256(text.encode()).hexdigest()


def cli_digest(result: tuple[int, str]) -> dict:
    rc, stdout = result
    return {"exit": rc, "sha256": sha256(stdout)}


def lib_digest(result) -> dict:
    """Digest of a library result's canonical export."""
    return {"sha256": sha256(serialize.export_json(result))}


def _recorded_op(name: str, run: Callable[[], object],
                 digest: Callable[[object], dict], expected: dict) -> Op:
    want = expected.get(name)

    def check(result) -> str | None:
        if want is None:
            return "no recorded digest"
        got = digest(result)
        return None if got == want else f"got {got}, recorded {want}"

    return Op(name, run, check, digest)


def _cli_op(name: str, argv: list[str], expected: dict) -> Op:
    return _recorded_op(name, lambda: run_cli(argv), cli_digest, expected)


def _lib_op(name: str, run: Callable[[], object], expected: dict) -> Op:
    return _recorded_op(name, run, lib_digest, expected)


def _rejected_op(name: str, argv: list[str]) -> Op:
    """A negative control: the CLI must refuse the input with exit code 1."""

    def check(result) -> str | None:
        rc, stdout = result
        if rc == 1 and not stdout:
            return None
        return f"not rejected: exit {rc}, {len(stdout)} bytes of stdout"

    return Op(name, lambda: run_cli(argv), check)


def _spec(obj) -> str:
    return json.dumps(obj, separators=(",", ":"))


# ---------------------------------------------------------------------------
# corpus

C8 = {"kind": "cyclic", "n": 8}
S4 = {"kind": "symmetric", "n": 4}
ALPHA = {"images": {"g": "1230"}}
BETA = {"images": {"1023": "g^4", "1230": "g^4"}}


def _c8xs4_solution():
    G1, G2 = groups.build_group(C8), groups.build_group(S4)
    alpha = maps.make_map(G1, G2, ALPHA["images"])
    beta = maps.make_map(G2, G1, BETA["images"])
    return ybe.build_ybe_product(G1, G2, alpha, beta)


def first_braid_failure(lam: np.ndarray, rho: np.ndarray):
    """Lexicographically first (x, y, z) failing the braid relation, by an
    independent sweep over x; None if the relation holds."""
    n = lam.shape[0]
    y = np.arange(n)[:, None]
    z = np.arange(n)[None, :]
    for x in range(n):
        # left side R12 R23 R12, right side R23 R12 R23, as in the ybe module
        a1, b1 = lam[x, y], rho[y, x]
        b2, c2 = lam[b1, z], rho[z, b1]
        bp, cp = lam[y, z], rho[z, y]
        ap2, bp2 = lam[x, bp], rho[bp, x]
        bad = ((lam[a1, b2] != ap2) | (rho[b2, a1] != lam[bp2, cp])
               | (c2 != rho[cp, bp2]))
        if bad.any():
            j, k = np.argwhere(bad)[0]
            return [x, int(j), int(k)]
    return None


def _ybe_cell_control(rng: random.Random) -> Op:
    """verify_ybe on the C8 x S4 solution with one lambda cell changed must
    fail, at the lexicographically first failing triple."""
    n = 192
    x0, y0 = rng.randrange(n), rng.randrange(n)
    shift = rng.randrange(1, n)
    oracle: list = []

    def corrupted():
        sol = _c8xs4_solution()
        lam = sol.lam.copy()
        lam[x0, y0] = (lam[x0, y0] + shift) % n
        return sol.with_tables(lam=lam, note="corrupted")

    def check(report) -> str | None:
        if not oracle:
            sol = corrupted()
            oracle.append(first_braid_failure(sol.lam, sol.rho))
        got, want = report.to_jsonable(), oracle[0]
        if want is not None and got["holds"] is False \
                and got["witness"] == want and got["checked"] == "exhaustive":
            return None
        return (f"lambda[{x0},{y0}] += {shift}: got holds={got['holds']} "
                f"witness={got['witness']}, oracle witness={want}")

    return Op("ybe_c8xs4_corrupt_cell", lambda: ybe.verify_ybe(corrupted()),
              check)


def corpus_workload(rng: random.Random, expected: dict) -> Workload:
    product = ["ybe", "build", "--construction", "product",
               "--g1", _spec(C8), "--g2", _spec(S4),
               "--alpha", _spec(ALPHA), "--beta", _spec(BETA), "--verify"]
    ops = [_cli_op("corpus_run", ["corpus", "run"], expected),
           _cli_op("ybe_c8xs4", product, expected),
           _ybe_cell_control(rng)]
    calls = ("cli.main", "corpus.run_fixture", "groups.verify_group_table",
             "maps.make_map", "bracoids.bracoid_from_C2",
             "bracoids.phi_tower_bracoid", "bracoids.verify_bracoid",
             "bracoids.find_contained_brace", "ybe.build_ybe_product",
             "ybe.verify_ybe")
    return Workload(ops, expected_calls=calls)


# ---------------------------------------------------------------------------
# sweep

def _hamilton(p, q):
    a1, b1, c1, d1 = p
    a2, b2, c2, d2 = q
    return (a1 * a2 - b1 * b2 - c1 * c2 - d1 * d2,
            a1 * b2 + b1 * a2 + c1 * d2 - d1 * c2,
            a1 * c2 - b1 * d2 + c1 * a2 + d1 * b2,
            a1 * d2 + b1 * c2 - c1 * b2 + d1 * a2)


def q8_spec() -> dict:
    """The quaternion group as a ``table`` spec, from Hamilton's product."""
    units = [(1, 0, 0, 0), (-1, 0, 0, 0), (0, 1, 0, 0), (0, -1, 0, 0),
             (0, 0, 1, 0), (0, 0, -1, 0), (0, 0, 0, 1), (0, 0, 0, -1)]
    mul = [[units.index(_hamilton(p, q)) for q in units] for p in units]
    return {"kind": "table", "mul": mul,
            "names": ["e", "-e", "i", "-i", "j", "-j", "k", "-k"],
            "generators": [2, 4]}


def catalogue() -> list[tuple[str, dict]]:
    """The acceptance criterion-02 catalogue: C2..C16, D3..D8, Q8, S3."""
    specs = [(f"C{n}", {"kind": "cyclic", "n": n}) for n in range(2, 17)]
    specs += [(f"D{n}", {"kind": "dihedral", "n": n}) for n in range(3, 9)]
    return specs + [("Q8", q8_spec()), ("S3", {"kind": "symmetric", "n": 3})]


def classify_all(spec: dict) -> dict:
    G = groups.build_group(spec)
    found = maps.enumerate_abelian_maps(G)
    return {"maps": found,
            "verdicts": [ideals.find_strong_left_ideals(G, psi) for psi in found]}


D4 = {"kind": "dihedral", "n": 4}
D4XD4 = {"kind": "product", "factors": [D4, D4]}
D4XD4_TOWER = {"images": {"(r,e)": "(e,e)", "(s,e)": "(e,s)",
                          "(e,r)": "(e,e)", "(e,s)": "(s,e)"}}


def sweep_workload(rng: random.Random, expected: dict) -> Workload:
    ops = [_lib_op(f"classify_{name}", lambda spec=spec: classify_all(spec),
                   expected)
           for name, spec in catalogue()]
    ops.append(_cli_op("ideals_d4xd4_all",
                       ["ideals", "classify", _spec(D4XD4), _spec(D4XD4_TOWER),
                        "--all"], expected))
    calls = ("cli.main", "groups.build_group", "groups.enumerate_subgroups",
             "groups.closure", "groups.is_normal",
             "groups.commutator_condition", "maps.enumerate_abelian_maps",
             "maps.phi_of", "ideals.find_strong_left_ideals",
             "ideals.classify_subgroup", "braces.circle_table")
    return Workload(ops, expected_calls=calls)


# ---------------------------------------------------------------------------
# abmaps

ABMAPS_SPECS = {
    "D50": {"kind": "dihedral", "n": 50},
    "C2xS4": {"kind": "product",
              "factors": [{"kind": "cyclic", "n": 2}, S4]},
    "S5": {"kind": "symmetric", "n": 5},
    "C2xD4": {"kind": "product", "factors": [{"kind": "cyclic", "n": 2}, D4]},
}


def abmaps_workload(rng: random.Random, expected: dict) -> Workload:
    ops = [_cli_op(f"abmaps_{name}", ["abmaps", "enumerate", _spec(spec)],
                   expected)
           for name, spec in ABMAPS_SPECS.items()]
    calls = ("cli.main", "cli._load_json_arg", "serialize.parse_group",
             "serialize.export_json", "maps.enumerate_abelian_maps")
    return Workload(ops, expected_calls=calls)


# ---------------------------------------------------------------------------
# tables

def c61_c10_spec() -> dict:
    """C61 x| C10, the generator of C10 acting as x -> 3x (3 has order 10
    modulo 61)."""
    action = [[pow(3, k, 61) * i % 61 for i in range(61)] for k in range(10)]
    return {"kind": "semidirect", "base": {"kind": "cyclic", "n": 61},
            "acting": {"kind": "cyclic", "n": 10}, "action": action}


TABLES_SPECS = {
    "D400": {"kind": "dihedral", "n": 400},
    "C61xC10": c61_c10_spec(),
    "S6": {"kind": "symmetric", "n": 6},
    "D100": {"kind": "dihedral", "n": 100},
    "D150": {"kind": "dihedral", "n": 150},
}
PSI_R_TO_E = {"images": {"r": "e", "s": "s"}}


def _swap_in_row(mul: np.ndarray, row: int, c1: int, c2: int) -> dict:
    bad = mul.copy()
    bad[row, c1], bad[row, c2] = mul[row, c2], mul[row, c1]
    return {"kind": "table", "mul": bad.tolist()}


def _cells_read_by_sampler(mul: np.ndarray) -> np.ndarray:
    """Mask of the cells the sampled associativity check reads on `mul`."""
    n = mul.shape[0]
    rng = np.random.default_rng(ASSOC_SAMPLER_SEED)
    a, b, c = rng.integers(0, n, size=(3, ASSOC_SAMPLER_TRIPLES))
    read = np.zeros((n, n), dtype=bool)
    ab, bc = mul[a, b], mul[b, c]
    read[a, b] = read[ab, c] = read[b, c] = read[a, bc] = True
    return read


def _corrupt_d100(rng: random.Random) -> dict:
    mul = groups.dihedral(100).mul
    row = rng.randrange(1, 200)
    c1, c2 = rng.sample(range(1, 200), 2)
    return _swap_in_row(mul, row, c1, c2)


def _corrupt_c1000(rng: random.Random) -> dict:
    idx = np.arange(1000)
    mul = (idx[:, None] + idx[None, :]) % 1000
    read = _cells_read_by_sampler(mul)
    row = rng.randrange(1, 1000)
    unread = [c for c in range(1, 1000) if not read[row, c]]
    c1, c2 = rng.sample(unread, 2)
    return _swap_in_row(mul, row, c1, c2)


def tables_workload(rng: random.Random, expected: dict) -> Workload:
    ops = [_cli_op(f"group_{name}", ["group", "build", _spec(spec)], expected)
           for name, spec in TABLES_SPECS.items()]
    for n in (100, 150):
        exported = serialize.export_json(groups.dihedral(n))
        ops.append(_cli_op(f"group_D{n}_reimport", ["group", "build", exported],
                           expected))
        ops.append(_cli_op(f"brace_D{n}", ["brace", "build",
                                           _spec(TABLES_SPECS[f"D{n}"]),
                                           _spec(PSI_R_TO_E)], expected))
    ops.append(_rejected_op("reject_D100_swap",
                            ["group", "build", _spec(_corrupt_d100(rng))]))
    ops.append(_rejected_op("reject_C1000_swap",
                            ["group", "build", _spec(_corrupt_c1000(rng))]))
    calls = ("cli.main", "cli._load_json_arg", "groups.build_group",
             "groups.dihedral", "groups.symmetric", "groups.semidirect",
             "groups.from_table", "groups.verify_group_table",
             "braces.circle_table", "braces.verify_brace",
             "serialize.parse_group", "serialize.parse_map",
             "serialize.export_json")
    return Workload(ops, known_defects=frozenset({"reject_C1000_swap"}),
                    expected_calls=calls)


BUILDERS = {"corpus": corpus_workload, "sweep": sweep_workload,
            "abmaps": abmaps_workload, "tables": tables_workload}


def build(name: str, seed: int, expected: dict | None = None) -> Workload:
    """Make a workload's inputs from `seed`; `expected` defaults to the
    recorded digests."""
    if expected is None:
        expected = json.loads(EXPECTED_PATH.read_text())
    return BUILDERS[name](random.Random(seed), expected.get(name, {}))
