"""End-to-end acceptance checks.

Each test prints a single machine-greppable verdict line.  Two tests cover
published claims that the computations here show to be false (criterion 03
on the dihedral-8 opposite pair, criterion 07 on the piecewise C8 x S4
form).  Each pins the claim as an erratum, asserting that it fails, and
pins the true values with scalar oracles that do not use the code under
test; the comments in those tests give the analysis.
"""

import time

import numpy as np
import pytest

from skewbracoid import braces, bracoids, groups, ideals, maps, ybe

from conftest import (brace_oracle, braid_oracle, idempotent_oracle, ker_times,
                      product_oracle, quaternion_group)


def _verdict(num: int, label: str, ok: bool, elapsed: float) -> bool:
    word = "PASS" if ok else "FAIL"
    print(f"[PRIMARY] criterion {num:02d} ({label}): {word} [{elapsed:.2f}s]")
    return ok


def d4_fixture():
    G = groups.dihedral(4)
    psi = maps.make_map(G, G, {"r": "rs", "s": "e"})
    return G, psi


def catalog():
    groups_list = [groups.cyclic(n) for n in range(2, 17)]
    groups_list += [groups.dihedral(n) for n in range(3, 9)]
    groups_list += [quaternion_group(), groups.symmetric(3)]
    return groups_list


def test_criterion_01_named_subgroups():
    start = time.monotonic()
    G, psi = d4_fixture()
    named = ideals.named_subgroups(G, psi)
    ok = ([G.names[m] for m in named.ker.members] == ["e", "r^2", "s", "r^2s"]
          and [G.names[m] for m in named.fix.members] == ["e", "rs"]
          and [G.names[m] for m in named.h_hat.members] == ["e", "r^2", "rs", "r^3s"])
    elapsed = time.monotonic() - start
    assert _verdict(1, "named subgroups", ok and elapsed < 1.0, elapsed)


def test_criterion_02_classification_oracle_equivalence():
    start = time.monotonic()
    pairs = 0
    for G in catalog():
        for psi in maps.enumerate_abelian_maps(G):
            # classify_subgroup cross-checks the C1/C2 predicates against the
            # direct definition and raises on any disagreement
            pairs += len(ideals.find_strong_left_ideals(G, psi))
    elapsed = time.monotonic() - start
    ok = pairs > 0 and elapsed < 300
    assert _verdict(2, f"predicate vs definition on {pairs} pairs", ok, elapsed)


def test_criterion_03_biskew_pairs():
    start = time.monotonic()
    ok = True
    for G in catalog():
        dot = braces.table_of(G)
        for psi in maps.enumerate_abelian_maps(G):
            circ = braces.circle_table(G, psi)
            for A, M in [(dot, circ), (circ, dot),
                         (braces.opposite_table(dot), circ),
                         (braces.opposite_table(circ), dot)]:
                rep = braces.verify_brace(A, M)
                ok = ok and rep.holds and rep.checked == "exhaustive"
    elapsed = time.monotonic() - start
    assert _verdict(3, "bi-skew and opposite braces", ok and elapsed < 300,
                    elapsed)


def _opposite_pair(G, psi):
    return (braces.opposite_table(braces.table_of(G)),
            braces.opposite_table(braces.circle_table(G, psi)))


def test_criterion_03_opposite_pair_counterexample_d4():
    # Quoted: the pair (.', o') fails the brace relation on some triple for
    # the dihedral-8 fixture.  That is an erratum: no abelian map on this
    # group gives a failure, as both verify_brace and the scalar oracle show
    # on all 28 maps.  For the fixture map (G, o) is elementary abelian, so
    # o' = o and (.', o') is the opposite brace of (., o), a brace by
    # construction.  That argument covers only the 16 maps whose (G, o) is
    # abelian (the trivial map gives o = ., the non-abelian group itself);
    # for the other 12 the exhaustive check is the proof.  A genuine
    # (.', o') failure first appears on the dihedral group of order 12.
    start = time.monotonic()
    G, psi = d4_fixture()
    d4_maps = list(maps.enumerate_abelian_maps(G))
    no_failure, abelian = True, 0
    for f in d4_maps:
        A, M = _opposite_pair(G, f)
        rep = braces.verify_brace(A, M)
        no_failure = (no_failure and rep.holds and rep.checked == "exhaustive"
                      and brace_oracle(A.op, M.op) is None)
        abelian += int(np.array_equal(M.op, M.op.T))
    circ = braces.circle_table(G, psi)
    self_opposite = np.array_equal(braces.opposite_table(circ).op, circ.op)

    G12 = groups.dihedral(6)
    d6_maps = list(maps.enumerate_abelian_maps(G12))
    failures, agree = [], True
    for f in d6_maps:
        A, M = _opposite_pair(G12, f)
        rep = braces.verify_brace(A, M)
        agree = agree and rep.failure == brace_oracle(A.op, M.op)
        if not rep.holds:
            failures.append((f.image_of, rep.failure))
    first_map = maps.make_map(G12, G12, {"r": "s", "s": "e"}).image_of
    counterexample = (agree and len(d6_maps) == 40 and len(failures) == 24
                      and np.array_equal(failures[0][0], first_map)
                      and failures[0][1] == (1, 1, 1))
    elapsed = time.monotonic() - start
    ok = (len(d4_maps) == 28 and no_failure and abelian == 16 and self_opposite
          and counterexample)
    _verdict(3, "(.',o') holds on dihedral-8, first fails on dihedral-12",
             ok, elapsed)
    assert len(d4_maps) == 28 and no_failure, (
        "(.',o') must be a brace, checked exhaustively and by the oracle, for "
        "every abelian map on the dihedral group of order 8")
    assert abelian == 16, "(G,o) is abelian for exactly 16 of the 28 maps"
    assert self_opposite, "o is abelian for the fixture map, so o' = o"
    assert agree, "verify_brace and the oracle disagree on dihedral order 12"
    assert counterexample, (
        f"expected 24 of 40 maps on dihedral order 12 to fail, the first "
        f"being r->s, s->e at (1, 1, 1); got {len(failures)} of "
        f"{len(d6_maps)}, first {failures[:1]}")


def test_criterion_04_brace_block_tower():
    start = time.monotonic()
    G = groups.direct_product(groups.dihedral(4), groups.dihedral(4))
    psi = maps.make_map(G, G, {"(r,e)": "(e,e)", "(s,e)": "(e,s)",
                               "(e,r)": "(e,e)", "(e,s)": "(s,e)"})
    phi1 = set(maps.phi_power(psi, 1).tolist())
    gens1 = [G.index_of(n) for n in ("(r,e)", "(e,r)", "(s,s)")]
    ok = len(phi1) == 32 and phi1 == set(groups.closure(G, gens1))
    gens2 = [G.index_of(n) for n in ("(r,e)", "(e,r)")]
    stable = set(groups.closure(G, gens2))
    for n in (2, 3, 4):
        phin = set(maps.phi_power(psi, n).tolist())
        ok = ok and len(phin) == 16 and phin == stable
    for n in range(1, 5):
        derived = maps.phi_of(maps.psi_iterate(psi, n))
        ok = ok and np.array_equal(derived, maps.phi_power(psi, n))
    for n in range(5):
        b = bracoids.phi_tower_bracoid(G, psi, n)  # verified on construction
        ok = ok and bracoids.verify_bracoid(b).ok
    elapsed = time.monotonic() - start
    assert _verdict(4, "phi tower on the product of two dihedral-8 groups",
                    ok and elapsed < 30, elapsed)


def test_criterion_05_cpq_strong_left_ideals():
    start = time.monotonic()
    ident = list(range(15))
    inv = [(15 - i) % 15 for i in range(15)]
    G = groups.build_group({
        "kind": "semidirect",
        "base": {"kind": "cyclic", "n": 15},
        "acting": {"kind": "product",
                   "factors": [{"kind": "cyclic", "n": 2},
                               {"kind": "cyclic", "n": 2}]},
        "action": [ident, inv, inv, ident]})
    psi = maps.make_map(G, G, [15 * (i // 15) for i in range(60)])
    named = ideals.named_subgroups(G, psi)
    ok = named.ker.members == tuple(range(15))
    ok = ok and named.fix.members == (0, 15, 30, 45)
    for second in (15, 30, 45):
        H = ker_times(named, groups.Subgroup(G, (0, second)))
        verdict = ideals.classify_subgroup(G, psi, H)
        ok = ok and H.order == 30 and "(o,.)" in verdict.strong_left_ideal_of
    elapsed = time.monotonic() - start
    assert _verdict(5, "order-30 strong left ideals", ok and elapsed < 10,
                    elapsed)


def test_criterion_06_ybe_idempotent_dihedral():
    start = time.monotonic()
    G, psi = d4_fixture()
    sol = ybe.build_ybe_idempotent(G, psi)
    rep = ybe.verify_ybe(sol)
    ok = rep.holds and rep.checked == "exhaustive"
    ok = ok and rep.nondegeneracy.right and not rep.nondegeneracy.left
    rs = G.index_of("rs")
    ok = ok and all(sol.lam[x, rs] == 0 for x in range(8))  # y in fix psi
    phi = maps.phi_of(psi)
    ok = ok and all(sol.apply(x, 0) == (0, x) for x in range(8))
    ok = ok and all(sol.apply(0, y) == (int(phi[y]), psi(y)) for y in range(8))
    r, s = G.index_of("r"), G.index_of("s")
    ok = ok and sol.apply(r, s) == (G.index_of("r^2s"), r)
    elapsed = time.monotonic() - start
    assert _verdict(6, "idempotent solution spot checks", ok and elapsed < 1,
                    elapsed)


def c8_s4_solution():
    G1 = groups.cyclic(8)
    G2 = groups.symmetric(4)
    alpha = maps.make_map(G1, G2, {"g": "1230"})
    beta = maps.make_map(G2, G1, {"1023": "g^4", "1230": "g^4"})
    return G1, G2, alpha, beta, ybe.build_ybe_product(G1, G2, alpha, beta)


def c8_s4_contained_brace_solution(alpha, beta):
    """The C8 x S4 solution from the contained brace of the quotient bracoid."""
    psi = maps.product_swap_map(alpha, beta)
    GP = psi.domain
    H = groups.Subgroup(GP, tuple(groups.factor_embedding(GP, 0)))
    b = bracoids.bracoid_from_C2(GP, psi, H)
    return ybe.build_ybe_from_contained_brace(b, bracoids.find_contained_brace(b))


def test_criterion_07_product_braid_exhaustive():
    start = time.monotonic()
    _, _, _, _, sol = c8_s4_solution()
    rep = ybe.verify_ybe(sol)
    ok = (sol.set_order == 192 and rep.holds and rep.checked == "exhaustive"
          and rep.nondegeneracy.right and not rep.nondegeneracy.left)
    # the same tables without the bracoid certificate: the full triple sweep
    swept = ybe.verify_ybe(sol.with_tables())
    ok = ok and (swept.method == "sweep" and swept.holds
                 and swept.checked == "exhaustive")
    elapsed = time.monotonic() - start
    assert _verdict(7, "product solution, all 192^3 triples",
                    ok and elapsed < 120, elapsed)


def _mul(G, *elements):
    out = 0
    for g in elements:
        out = int(G.mul[out, g])
    return out


def test_criterion_07_published_piecewise_form():
    # Quoted: the verified solution matches a published piecewise closed
    # form, which adds g^4 to the C8 coordinate of rho when the S4 part y2
    # of y is odd.  That is an erratum.  beta is the sign map into <g^4>, so
    # the extra factor is beta(y2).  The general formula (the paper's closed
    # form, `product_oracle` in conftest) carries beta(y2) beta(x2^-1)
    # beta(x2 y2^-1), which multiply to e because C8 is abelian, leaving
    # x1 y1: the display keeps beta(y2) and drops the two factors that cancel
    # it.  The published form is pinned here as a non-solution; the form
    # without the parity term is rebuilt pair by pair from the general
    # formula and pinned equal to the constructed solution (which criterion
    # 07 checks on all 192^3 triples) and to the contained-brace
    # construction (criterion 09).
    start = time.monotonic()
    G1, G2, alpha, beta, sol = c8_s4_solution()
    perms = groups.symmetric_perms(4)
    parity = np.array([sum(p[i] > p[j] for i in range(4) for j in range(i + 1, 4)) % 2
                       for p in perms])
    sign_map = beta.image_of.tolist() == [G1.index_of("g^4") * int(p) for p in parity]

    # the published piecewise form, as quoted
    idx = np.arange(192)
    x1, x2 = idx % 8, idx // 8
    m2, i2 = G2.mul, G2.inv
    ax = alpha.image_of[x1]
    axinv = i2[ax]
    lam_pw = 8 * m2[m2[axinv[:, None], x2[None, :]], ax[:, None]]
    rho1 = (x1[:, None] + x1[None, :] + 4 * parity[x2][None, :]) % 8
    u = m2[m2[axinv[:, None], i2[x2][None, :]], ax[:, None]]
    u = m2[m2[m2[u, x2[:, None]], axinv[:, None]], x2[None, :]]
    u = m2[u, ax[:, None]]
    rho_pw = (rho1 + 8 * u).T
    published = ybe.YbeSolution(lam_pw, rho_pw, {"construction": "published"})
    rep = ybe.verify_ybe(published)
    published_fails = (not rep.holds and rep.checked == "exhaustive"
                       and rep.witness == (0, 0, 8)
                       and braid_oracle(published) == (0, 0, 8))
    mismatch = sol.rho != rho_pw  # rho is indexed [y, x]
    odd_y = np.broadcast_to((parity[x2] == 1)[:, None], mismatch.shape)
    odd_half = (int(mismatch.sum()) == 18432 and np.array_equal(mismatch, odd_y)
                and np.array_equal(sol.lam, lam_pw))

    # the general formula, pair by pair, on x = x1 + 8 x2
    a, b, i1 = alpha.image_of, beta.image_of, G1.inv
    lam = np.zeros((192, 192), dtype=np.int64)
    rho = np.zeros((192, 192), dtype=np.int64)
    cancels = True
    for x in range(192):
        p1, p2 = x % 8, x // 8
        ap, apinv = a[p1], i2[a[p1]]
        for y in range(192):
            q1, q2 = y % 8, y // 8
            lam[x, y] = 8 * _mul(G2, a[i1[p1]], q2, ap)
            c1 = _mul(G1, b[q2], p1, b[i2[p2]], q1, b[_mul(G2, p2, i2[q2])])
            cancels = cancels and c1 == _mul(G1, p1, q1)
            c2 = _mul(G2, apinv, i2[q2], ap, p2, apinv, q2, ap)
            rho[y, x] = c1 + 8 * c2
    matches_sol = np.array_equal(lam, sol.lam) and np.array_equal(rho, sol.rho)
    recipe = c8_s4_contained_brace_solution(alpha, beta)
    matches_recipe = (np.array_equal(lam, recipe.lam)
                      and np.array_equal(rho, recipe.rho))
    elapsed = time.monotonic() - start
    ok = (sign_map and published_fails and odd_half and cancels and matches_sol
          and matches_recipe)
    _verdict(7, "published piecewise form refuted, general formula confirmed",
             ok, elapsed)
    assert sign_map, "beta must be the sign map g^(4 sgn) into <g^4>"
    assert published_fails, (
        f"the published form must fail the braid relation first at (0, 0, 8) "
        f"in verify_ybe and in the oracle; verify_ybe gave {rep.witness}")
    assert odd_half, (
        f"the published form must agree on lambda and differ on rho exactly "
        f"on the 18432 pairs with odd y2; it differs on {int(mismatch.sum())}")
    assert cancels, "the three beta factors must cancel in the C8 coordinate"
    assert matches_sol, "the general formula disagrees with build_ybe_product"
    assert matches_recipe, "the general formula disagrees with the contained brace"


def test_criterion_08_abelian_idempotent_pairs():
    start = time.monotonic()
    G = groups.direct_product(groups.cyclic(4), groups.cyclic(2))
    count = 0
    ok = True
    for f in maps.enumerate_abelian_maps(G):
        if not f.idempotent:
            continue
        count += 1
        for sol in ybe.build_ybe_abelian_pair(G, f):
            rep = ybe.verify_ybe(sol)
            ok = ok and rep.holds and rep.checked == "exhaustive"
    elapsed = time.monotonic() - start
    assert _verdict(8, f"abelian pair for {count} idempotent maps",
                    ok and count > 0 and elapsed < 5, elapsed)


def test_criterion_09_cross_constructor_equality():
    start = time.monotonic()
    # the idempotent closed form vs the contained brace of the depth-1 tower
    G, psi = d4_fixture()
    b = bracoids.phi_tower_bracoid(G, psi, 1)
    extracted = ybe.build_ybe_from_contained_brace(b, bracoids.find_contained_brace(b))
    lam, rho = idempotent_oracle(G, psi)
    ok = np.array_equal(lam, extracted.lam) and np.array_equal(rho, extracted.rho)
    # the product closed form vs the contained brace of the quotient bracoid
    G1, G2, alpha, beta, _ = c8_s4_solution()
    extracted2 = c8_s4_contained_brace_solution(alpha, beta)
    lam, rho = product_oracle(G1, G2, alpha, beta)
    ok = ok and np.array_equal(lam, extracted2.lam) and np.array_equal(rho, extracted2.rho)
    elapsed = time.monotonic() - start
    assert _verdict(9, "contained-brace recipe reproduces both closed forms",
                    ok and elapsed < 10, elapsed)


def test_criterion_10_negative_controls():
    start = time.monotonic()
    G, psi = d4_fixture()
    sol = ybe.build_ybe_idempotent(G, psi)
    lam = np.array(sol.lam)
    lam[2, 3] = (lam[2, 3] + 1) % 8
    rep = ybe.verify_ybe(sol.with_tables(lam=lam))
    ok = not rep.holds and rep.witness is not None

    fix = groups.subgroup_generated(G, [G.index_of("rs")])
    b = bracoids.bracoid_from_C1(G, psi, fix)
    act = np.array(b.action)
    act[5, 0], act[5, 1] = act[5, 1], act[5, 0]
    bad = bracoids.Bracoid(b.acting, b.target, act, {"construction": "corrupted"})
    brep = bracoids.verify_bracoid(bad)
    ok = ok and not brep.ok and brep.first_failure is not None
    elapsed = time.monotonic() - start
    assert _verdict(10, "corruption is detected with witnesses",
                    ok and elapsed < 1, elapsed)
