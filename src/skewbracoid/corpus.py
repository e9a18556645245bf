"""Built-in end-to-end fixtures.

Each fixture is a JSON file under ``corpus/`` holding its name, its input
data, and the expected outputs.  Expected values are tagged with a
provenance of ``published`` (quoted from the worked examples the fixtures
reproduce) or ``derived`` (computed independently).  ``run_fixture`` runs
the runner of that name and compares every expectation.  A product fixture's
``product_oracle_sha256`` is `tables_sha256` of the paper's general formula.
"""

from __future__ import annotations

import hashlib
import json
from dataclasses import dataclass
from importlib import resources

import numpy as np

from . import braces, bracoids, groups, ideals, maps, ybe
from .errors import PreconditionError
from .groups import Subgroup


def load_fixture(name: str) -> dict:
    if name not in FIXTURE_NAMES:
        raise PreconditionError(f"unknown fixture {name!r}; "
                                f"known: {', '.join(FIXTURE_NAMES)}")
    path = resources.files(__package__) / "corpus" / f"{name}.json"
    fixture = json.loads(path.read_text())
    for key in ("name", "description", "expected"):
        if key not in fixture:
            raise PreconditionError(f"fixture {name!r} is missing {key!r}")
    if fixture["name"] != name:
        raise PreconditionError(f"fixture file {name!r} declares name "
                                f"{fixture['name']!r}")
    for check, entry in fixture["expected"].items():
        if not isinstance(entry, dict) or "value" not in entry \
                or entry.get("provenance") not in ("published", "derived"):
            raise PreconditionError(
                f"fixture {name!r} expectation {check!r} needs a value and a "
                "provenance of published/derived")
    return fixture


@dataclass(eq=False)
class FixtureCheck:
    check: str
    expected: object
    actual: object
    provenance: str

    @property
    def ok(self) -> bool:
        return self.expected == self.actual

    def to_jsonable(self) -> dict:
        return {"check": self.check, "ok": self.ok, "expected": self.expected,
                "actual": self.actual, "provenance": self.provenance}


@dataclass(eq=False)
class FixtureResult:
    name: str
    checks: list[FixtureCheck]

    @property
    def ok(self) -> bool:
        return all(c.ok for c in self.checks)

    def to_jsonable(self) -> dict:
        return {"name": self.name, "ok": self.ok,
                "checks": [c.to_jsonable() for c in self.checks]}


def tables_sha256(sol: ybe.YbeSolution) -> str:
    """SHA-256 of lam then rho, as little-endian int64 in row order."""
    digest = hashlib.sha256()
    for table in (sol.lam, sol.rho):
        digest.update(np.ascontiguousarray(table, "<i8"))
    return digest.hexdigest()


def _names(G, members) -> list[str]:
    return [G.names[m] for m in members]


def _run_d4_psi(fx: dict) -> dict:
    G = groups.build_group(fx["group"])
    psi = maps.make_map(G, G, fx["map"]["images"])
    named = ideals.named_subgroups(G, psi)
    out = {
        "ker_names": _names(G, named.ker.members),
        "fix_names": _names(G, named.fix.members),
        "h_hat_names": _names(G, named.h_hat.members),
        "subgroup_count": len(groups.enumerate_subgroups(G)),
    }
    verdict = ideals.classify_subgroup(G, psi, named.fix)
    out["fix_C1"] = verdict.C1
    out["fix_C2"] = verdict.C2

    sol = ybe.build_ybe_idempotent(G, psi)
    rep = ybe.verify_ybe(sol)
    out["ybe"] = {"holds": rep.holds, "left": rep.nondegeneracy.left,
                  "right": rep.nondegeneracy.right}
    r, s = G.index_of("r"), G.index_of("s")
    a, b = sol.apply(r, s)
    out["spot_R_r_s"] = [G.names[a], G.names[b]]

    dot = braces.table_of(G)
    circ = braces.circle_table(G, psi)
    rep2 = braces.verify_brace(braces.opposite_table(dot),
                               braces.opposite_table(circ))
    out["opposite_pair_still_brace"] = rep2.holds
    return out


def _run_d4xd4_tower(fx: dict) -> dict:
    G = groups.build_group(fx["group"])
    psi = maps.make_map(G, G, fx["map"]["images"])
    analysis = maps.map_analysis(psi)
    out = {"fix_names": _names(G, analysis.fix.members)}

    phi1 = sorted(set(maps.phi_power(psi, 1).tolist()))
    out["phi1_order"] = len(phi1)
    gens1 = [G.index_of(n) for n in fx["expected"]["phi1_generator_names"]["value"]]
    out["phi1_generator_names"] = (
        fx["expected"]["phi1_generator_names"]["value"]
        if set(phi1) == set(groups.closure(G, gens1)) else None)

    stable_orders = set()
    gensn = [G.index_of(n) for n in fx["expected"]["phi_n_generator_names"]["value"]]
    gensn_closure = set(groups.closure(G, gensn))
    gens_match = True
    for n in range(2, 5):
        phin = sorted(set(maps.phi_power(psi, n).tolist()))
        stable_orders.add(len(phin))
        gens_match = gens_match and set(phin) == gensn_closure
    out["phi_n_order"] = stable_orders.pop() if len(stable_orders) == 1 else None
    out["phi_n_generator_names"] = (
        fx["expected"]["phi_n_generator_names"]["value"] if gens_match else None)

    upto = 0
    for n in range(1, 5):
        derived = maps.phi_of(maps.psi_iterate(psi, n))
        if not np.array_equal(derived, maps.phi_power(psi, n)):
            break
        upto = n
    out["phi_n_equals_phi_power_upto"] = upto

    depth = 0
    for n in range(5):
        bracoids.phi_tower_bracoid(G, psi, n)  # raises if invalid
        depth = n
    out["tower_depth_verified"] = depth
    return out


def _run_cpq_v4(fx: dict) -> dict:
    G = groups.build_group(fx["group"])
    psi = maps.make_map(G, G, fx["map"]["image_array"])
    analysis = maps.map_analysis(psi)
    out = {
        "order": G.order,
        "ker_members": list(analysis.kernel.members),
        "fix_members": list(analysis.fix.members),
    }
    listed = [Subgroup(G, tuple(members)) for members in fx["expected"]["order30_slis"]["value"]]
    out["order30_slis"] = [sorted(v.subgroup.members)
                           for v in ideals.find_strong_left_ideals(G, psi, listed)
                           if "(o,.)" in v.strong_left_ideal_of]
    return out


def _perm_parity(p) -> int:
    inv = sum(1 for i in range(len(p)) for j in range(i + 1, len(p))
              if p[i] > p[j])
    return inv % 2


def _run_c8_s4(fx: dict) -> dict:
    G1 = groups.build_group(fx["g1"])
    G2 = groups.build_group(fx["g2"])
    alpha = maps.make_map(G1, G2, fx["alpha"]["images"])
    beta = maps.make_map(G2, G1, fx["beta"]["images"])
    sol = ybe.build_ybe_product(G1, G2, alpha, beta)
    rep = ybe.verify_ybe(sol)
    out = {
        "ybe_holds": rep.holds,
        "left_nondegenerate": rep.nondegeneracy.left,
        "right_nondegenerate": rep.nondegeneracy.right,
    }

    # the builder's recipe tables against the paper's general formula
    out["matches_contained_brace_recipe"] = tables_sha256(sol) == fx["product_oracle_sha256"]

    # first-coordinate offsets of rho against x1 + y1, split by the parity
    # of the S4 part of y
    n1 = G1.order
    idx = np.arange(n1 * G2.order)
    x1 = idx % n1
    rho_xy = sol.rho.T
    parity = np.array([_perm_parity(p) for p in groups.symmetric_perms(4)])
    y_par = parity[idx // n1]
    offsets = {}
    for label, par in (("even_tau", 0), ("odd_tau", 1)):
        cols = np.flatnonzero(y_par == par)
        off = (rho_xy[:, cols] % n1 - (x1[:, None] + x1[cols][None, :])) % n1
        offsets[label] = int(off.flat[0]) if len(set(off.ravel().tolist())) == 1 else None
    out["rho_c8_exponent_offset"] = offsets
    return out


def _run_permy_c3(fx: dict) -> dict:
    A = groups.build_group(fx["base"])
    alpha = maps.left_regular_map(A)
    S = alpha.codomain
    beta = maps.trivial_map(S, A)
    psi = maps.product_swap_map(alpha, beta)
    out = {"psi_fixed_point_free": psi.fixed_point_free}
    z = groups.center(S).member_set()
    out["alpha_image_noncentral"] = any(m not in z for m in alpha.image_members())

    G = psi.domain
    H = Subgroup(G, tuple(groups.factor_embedding(G, 0)))
    b = bracoids.bracoid_from_C2(G, psi, H)
    out["bracoid_valid"] = bracoids.verify_bracoid(b).ok

    # (g, sigma) acting on the coset of tau must be sigma lam(g)^-1 tau lam(g)
    n1 = A.order
    idx = np.arange(G.order)
    sigma = idx // n1
    lam_g = alpha.image_of[idx % n1]
    m = S.mul
    closed = m[m[m[sigma[:, None], S.inv[lam_g][:, None]],
                 np.arange(S.order)[None, :]], lam_g[:, None]]
    out["action_matches_closed_form"] = bool(np.array_equal(b.action, closed))
    return out


def _run_abelian_idempotent(fx: dict) -> dict:
    G = groups.build_group(fx["group"])
    all_pass = True
    for f in maps.enumerate_abelian_maps(G):
        if not f.idempotent:
            continue
        for sol in ybe.build_ybe_abelian_pair(G, f):
            rep = ybe.verify_ybe(sol)
            all_pass = all_pass and rep.holds
    out = {"all_idempotent_pairs_pass": all_pass}

    R, _ = ybe.build_ybe_abelian_pair(G, maps.trivial_map(G))
    idx = np.arange(G.order)
    out["trivial_psi_gives_flip"] = bool(
        np.array_equal(R.lam, np.broadcast_to(idx[None, :], R.lam.shape))
        and np.array_equal(R.rho, np.broadcast_to(idx[None, :], R.rho.shape)))
    return out


def _run_gencase_generic(fx: dict) -> dict:
    G1 = groups.build_group(fx["g1"])
    G2 = groups.build_group(fx["g2"])
    alpha = maps.make_map(G1, G2, fx["alpha"]["images"])
    beta = maps.make_map(G2, G1, fx["beta"]["images"])
    psi = maps.product_swap_map(alpha, beta)
    G = psi.domain
    out = {"psi_abelian": psi.abelian_image}

    try:
        braces.braces_from_map(G, psi)
        out["biskew_holds"] = True
    except PreconditionError:
        out["biskew_holds"] = False

    H = Subgroup(G, tuple(groups.factor_embedding(G, 0)))
    verdict = ideals.classify_subgroup(G, psi, H)
    out["g1_ideal_of_dot_circ"] = "(.,o)" in verdict.ideal_of

    circ = braces.circle_table(G, psi)
    fix = maps.map_analysis(psi).fix
    out["fix_in_circle_center"] = all(
        np.array_equal(circ.op[g], circ.op[:, g]) for g in fix.members)

    # sol.source is the C2 bracoid on G1 and the K found in it
    sol = ybe.build_ybe_product(G1, G2, alpha, beta)
    b, found = sol.source
    out["contained_K_regular"] = (sorted(b.action[list(found.members), 0].tolist())
                                  == list(range(b.target_order)))

    K = Subgroup(G, tuple(groups.factor_embedding(G, 1)))
    sol2 = ybe.build_ybe_from_contained_brace(b, K)
    out["product_equals_recipe"] = (tables_sha256(sol) == tables_sha256(sol2)
                                    == fx["product_oracle_sha256"])

    psi0 = maps.product_swap_map(alpha, maps.trivial_map(G2, G1))
    out["beta_trivial_fix_trivial"] = psi0.fixed_point_free
    return out


_RUNNERS = {
    "d4_psi": _run_d4_psi,
    "d4xd4_tower": _run_d4xd4_tower,
    "cpq_v4": _run_cpq_v4,
    "c8_s4": _run_c8_s4,
    "permy_c3": _run_permy_c3,
    "abelian_idempotent": _run_abelian_idempotent,
    "gencase_generic": _run_gencase_generic,
}
FIXTURE_NAMES = tuple(_RUNNERS)


def run_fixture(name: str) -> FixtureResult:
    fx = load_fixture(name)
    actual = _RUNNERS[name](fx)
    return FixtureResult(name, [FixtureCheck(check, entry["value"], actual.get(check),
                                             entry["provenance"])
                                for check, entry in fx["expected"].items()])


def run_all() -> list[FixtureResult]:
    return [run_fixture(name) for name in FIXTURE_NAMES]
