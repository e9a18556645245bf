import gc
import time
import weakref
from dataclasses import FrozenInstanceError, replace

import numpy as np
import pytest

from skewbracoid import bracoids, groups, maps, ybe
from skewbracoid.errors import InternalConsistencyError, PreconditionError

from conftest import (CATALOGUE, abelian_pair_oracle, braid_oracle,
                      idempotent_oracle, product_oracle, quaternion_group)


def d4_setup():
    G = groups.dihedral(4)
    psi = maps.make_map(G, G, {"r": "rs", "s": "e"})
    return G, psi


def test_idempotent_solution_braid_oracle():
    G, psi = d4_setup()
    sol = ybe.build_ybe_idempotent(G, psi)
    assert braid_oracle(sol) is None
    rep = ybe.verify_ybe(sol)
    assert rep.holds and rep.checked == "exhaustive"
    assert not rep.nondegeneracy.left
    assert rep.nondegeneracy.right


def test_idempotent_spot_values():
    G, psi = d4_setup()
    sol = ybe.build_ybe_idempotent(G, psi)
    phi = maps.phi_of(psi)
    for x in range(8):
        assert sol.apply(x, 0) == (0, x)
    for y in range(8):
        assert sol.apply(0, y) == (int(phi[y]), psi(y))
    r, s = G.index_of("r"), G.index_of("s")
    assert sol.apply(r, s) == (G.index_of("r^2s"), r)


def test_left_degeneracy_witnessed_on_fix():
    G, psi = d4_setup()
    sol = ybe.build_ybe_idempotent(G, psi)
    rs = G.index_of("rs")  # a nontrivial fixed point of psi
    for x in range(8):
        assert sol.lam[x, rs] == 0


def test_idempotent_requires_idempotent_map():
    G = groups.dihedral(6)
    for psi in maps.enumerate_abelian_maps(G):
        if psi.is_endomorphism() and not psi.idempotent:
            with pytest.raises(PreconditionError):
                ybe.build_ybe_idempotent(G, psi)
            return
    pytest.skip("no non-idempotent abelian map found")


def test_abelian_pair_formulas_and_oracle():
    G = groups.direct_product(groups.cyclic(4), groups.cyclic(2))
    # projection onto the C2 slot is an idempotent endomorphism
    proj = maps.make_map(G, G, [4 * (i // 4) for i in range(8)])
    assert proj.idempotent
    R, Rp = ybe.build_ybe_abelian_pair(G, proj)
    phi = maps.phi_of(proj)
    for x in range(8):
        for y in range(8):
            assert R.apply(x, y) == (int(phi[y]), G.mul[proj(y), x])
            assert Rp.apply(x, y) == (proj(y), G.mul[int(phi[y]), x])
    assert braid_oracle(R) is None
    assert braid_oracle(Rp) is None


def test_abelian_pair_trivial_map_is_flip():
    G = groups.cyclic(6)
    R, Rp = ybe.build_ybe_abelian_pair(G, maps.trivial_map(G))
    for x in range(6):
        for y in range(6):
            assert R.apply(x, y) == (y, x)
    assert ybe.verify_ybe(Rp).holds


def test_abelian_pair_rejects_nonabelian_group():
    G, psi = d4_setup()
    with pytest.raises(PreconditionError):
        ybe.build_ybe_abelian_pair(G, psi)


def test_product_solution_small_case():
    G1 = groups.cyclic(4)
    G2 = groups.symmetric(3)
    alpha = maps.make_map(G1, G2, {"g": "102"})
    beta = maps.make_map(G2, G1, {"102": "g^2", "120": "e"})
    sol = ybe.build_ybe_product(G1, G2, alpha, beta)
    assert sol.set_order == 24
    assert braid_oracle(sol) is None
    rep = ybe.verify_ybe(sol)
    assert rep.holds and rep.nondegeneracy.right
    # first coordinate only twists the second factor
    for x in range(24):
        for y in range(24):
            assert sol.lam[x, y] % 4 == 0


def test_product_beta_trivial_closed_form():
    # with beta trivial the second coordinate starts with the plain product
    G1 = groups.cyclic(3)
    G2 = groups.symmetric(3)
    alpha = maps.left_regular_map(groups.cyclic(3))
    alpha = maps.make_map(G1, G2, alpha.image_of)
    beta = maps.trivial_map(G2, G1)
    sol = ybe.build_ybe_product(G1, G2, alpha, beta)
    a = alpha.image_of
    m2, i2 = G2.mul, G2.inv
    for x in range(18):
        x1, x2 = x % 3, x // 3
        for y in range(18):
            y1, y2 = y % 3, y // 3
            lam_expected = 3 * int(m2[m2[i2[a[x1]], y2], a[x1]])
            rho1 = (x1 + y1) % 3
            u = m2[m2[m2[m2[m2[i2[a[x1]], i2[y2]], a[x1]], x2], i2[a[x1]]], y2]
            rho_expected = rho1 + 3 * int(m2[u, a[x1]])
            assert sol.lam[x, y] == lam_expected
            assert sol.rho[y, x] == rho_expected
    assert ybe.verify_ybe(sol).holds


def test_contained_brace_recipe_matches_product():
    """The product builder, and the recipe on the C2 bracoid of the swap map
    with K the embedded G2, both give the closed-form product solution."""
    G1 = groups.cyclic(4)
    G2 = groups.symmetric(3)
    alpha = maps.make_map(G1, G2, {"g": "102"})
    beta = maps.make_map(G2, G1, {"102": "g^2", "120": "e"})
    want = product_oracle(G1, G2, alpha, beta)
    assert_tables(ybe.build_ybe_product(G1, G2, alpha, beta), want)
    psi = maps.product_swap_map(alpha, beta)
    G = psi.domain
    H = groups.Subgroup(G, tuple(groups.factor_embedding(G, 0)))
    b = bracoids.bracoid_from_C2(G, psi, H)
    K = groups.Subgroup(G, tuple(groups.factor_embedding(G, 1)))
    assert_tables(ybe.build_ybe_from_contained_brace(b, K), want)


def assert_tables(sol, tables):
    lam, rho = tables
    assert np.array_equal(sol.lam, lam) and np.array_equal(sol.rho, rho)


def test_builders_match_closed_form_oracles():
    """Each builder's recipe tables equal the paper's closed form, cell by
    cell: every idempotent abelian map of the catalogue, the abelian pairs
    of its abelian groups, every (alpha, beta) over a few small groups and
    the C8 x S4 fixture."""
    counts = {"idempotent": 0, "pair": 0, "product": 0}
    for _, make in CATALOGUE:
        G = make()
        for f in maps.enumerate_abelian_maps(G):
            if not f.idempotent:
                continue
            assert_tables(ybe.build_ybe_idempotent(G, f), idempotent_oracle(G, f))
            counts["idempotent"] += 1
            if G.is_abelian():
                for sol, tables in zip(ybe.build_ybe_abelian_pair(G, f),
                                       abelian_pair_oracle(G, f)):
                    assert_tables(sol, tables)
                counts["pair"] += 1
    small = [groups.cyclic(2), groups.cyclic(3), groups.cyclic(4), groups.cyclic(6),
             groups.direct_product(groups.cyclic(2), groups.cyclic(2)),
             groups.symmetric(3), quaternion_group()]
    for G1 in small:
        for G2 in small:
            for alpha in maps.enumerate_abelian_maps(G1, G2):
                for beta in maps.enumerate_abelian_maps(G2, G1):
                    assert_tables(ybe.build_ybe_product(G1, G2, alpha, beta),
                                  product_oracle(G1, G2, alpha, beta))
                    counts["product"] += 1
    G1, G2 = groups.cyclic(8), groups.symmetric(4)
    alpha = maps.make_map(G1, G2, {"g": "1230"})
    beta = maps.make_map(G2, G1, {"1023": "g^4", "1230": "g^4"})
    assert_tables(ybe.build_ybe_product(G1, G2, alpha, beta),
                  product_oracle(G1, G2, alpha, beta))
    assert counts == {"idempotent": 107, "pair": 40, "product": 905}


def test_builders_raise_without_a_regular_subgroup(monkeypatch):
    monkeypatch.setattr(bracoids, "find_contained_brace", lambda b: None)
    G, psi = d4_setup()
    A = groups.cyclic(6)
    G1, G2 = groups.cyclic(4), groups.symmetric(3)
    alpha = maps.make_map(G1, G2, {"g": "102"})
    beta = maps.make_map(G2, G1, {"102": "g^2", "120": "e"})
    for build in (lambda: ybe.build_ybe_idempotent(G, psi),
                  lambda: ybe.build_ybe_product(G1, G2, alpha, beta),
                  lambda: ybe.build_ybe_abelian_pair(A, maps.trivial_map(A))):
        with pytest.raises(InternalConsistencyError, match="acts regularly"):
            build()


def test_verify_detects_corrupted_lambda():
    G, psi = d4_setup()
    sol = ybe.build_ybe_idempotent(G, psi)
    lam = np.array(sol.lam)
    lam[3, 4] = (lam[3, 4] + 1) % 8
    bad = sol.with_tables(lam=lam)
    rep = ybe.verify_ybe(bad)
    assert not rep.holds
    assert rep.witness is not None
    assert braid_oracle(bad) is not None


def test_uncertified_solution_is_swept_exhaustively_above_order_256():
    """An edited order-260 solution has no certificate, so every triple is
    swept and the witness is the lexicographically first failure."""
    G = groups.dihedral(130)
    sol = ybe.build_ybe_idempotent(G, maps.make_map(G, G, {"r": "e", "s": "s"}))
    lam = np.array(sol.lam)
    lam[0, 5] = (lam[0, 5] + 1) % 260
    bad = sol.with_tables(lam=lam)
    rep = ybe.verify_ybe(bad)
    assert rep.method == "sweep" and rep.checked == "exhaustive"
    assert not rep.holds and rep.witness == braid_oracle(bad) == (0, 1, 135)


def test_failing_sweep_stops_in_the_block_of_its_witness(monkeypatch):
    """A corrupted C8 x S4 cell fails at x = 0, so the braid predicate sees
    the first 192^2 triples and no more."""
    G1, G2 = groups.cyclic(8), groups.symmetric(4)
    alpha = maps.make_map(G1, G2, {"g": "1230"})
    beta = maps.make_map(G2, G1, {"1023": "g^4", "1230": "g^4"})
    sol = ybe.build_ybe_product(G1, G2, alpha, beta)
    lam = sol.lam.copy()
    lam[100, 50] = (lam[100, 50] + 7) % 192
    bad = sol.with_tables(lam=lam)
    seen = []
    sweep = groups.sweep

    def counted(pred, axes):
        def wrapped(*block):
            hit = pred(*block)
            seen.append(hit.size)
            return hit
        return sweep(wrapped, axes)

    monkeypatch.setattr(groups, "sweep", counted)
    rep = ybe.verify_ybe(bad)
    assert rep.method == "sweep"
    assert not rep.holds and rep.witness == braid_oracle(bad) == (0, 100, 50)
    assert 0 < sum(seen) <= 192**2


def assert_certified(sol, swept=None):
    """verify_ybe takes the bracoid route on sol and reports what the sweep
    reports on the same tables without a source."""
    rep = ybe.verify_ybe(sol)
    assert rep.method == "bracoid"
    assert rep.holds and rep.checked == "exhaustive" and rep.witness is None
    swept = swept or ybe.verify_ybe(sol.with_tables())
    assert swept.method == "sweep"
    assert rep.to_jsonable() == swept.to_jsonable()
    return swept


def regular_subgroups(b):
    return [K for K in groups.enumerate_subgroups(b.acting.group)
            if K.order == b.target_order
            and len(set(b.action[list(K.members), 0].tolist())) == K.order]


def test_certificate_on_every_contained_brace_solution():
    swept = {}
    routes = {"C1": 0, "C2": 0}
    for G in (groups.dihedral(4), groups.symmetric(3)):
        for psi in maps.enumerate_abelian_maps(G):
            for H in groups.enumerate_subgroups(G):
                for route, build in (("C1", bracoids.bracoid_from_C1),
                                     ("C2", bracoids.bracoid_from_C2)):
                    for opposite in (False, True):
                        try:
                            b = build(G, psi, H, opposite=opposite)
                        except PreconditionError:
                            continue
                        for K in regular_subgroups(b):
                            sol = ybe.build_ybe_from_contained_brace(b, K)
                            key = (G.order, sol.lam.tobytes(), sol.rho.tobytes())
                            if key not in swept:
                                assert braid_oracle(sol) is None
                            swept[key] = assert_certified(sol, swept.get(key))
                            routes[route] += 1
    assert routes == {"C1": 734, "C2": 652} and len(swept) == 127


def test_certificate_on_builder_solutions():
    G, _ = d4_setup()
    idempotent = [ybe.build_ybe_idempotent(G, f)
                  for f in maps.enumerate_abelian_maps(G) if f.idempotent]
    A = groups.direct_product(groups.cyclic(4), groups.cyclic(2))
    pairs = [sol for f in maps.enumerate_abelian_maps(A) if f.idempotent
             for sol in ybe.build_ybe_abelian_pair(A, f)]
    G1, G2 = groups.cyclic(4), groups.symmetric(3)
    alpha = maps.make_map(G1, G2, {"g": "102"})
    beta = maps.make_map(G2, G1, {"102": "g^2", "120": "e"})
    product = ybe.build_ybe_product(G1, G2, alpha, beta)
    assert len(idempotent) > 1 and len(pairs) > 2
    for sol in idempotent + pairs + [product]:
        assert sol.source is not None
        assert_certified(sol)
        assert braid_oracle(sol) is None


def test_certificate_rejects_a_corrupted_source_action():
    """The criterion-10 corruption, two cells of one row of the action
    swapped: the recipe reproduces its own tables, so only the builder's
    bracoid check stops it, and the solution is made without a source."""
    G, psi = d4_setup()
    fix = groups.subgroup_generated(G, [G.index_of("rs")])
    b = bracoids.bracoid_from_C1(G, psi, fix)
    K = bracoids.find_contained_brace(b)
    act = np.array(b.action)
    act[5, 0], act[5, 1] = act[5, 1], act[5, 0]
    bad = bracoids.Bracoid(b.acting, b.target, act, {"construction": "corrupted"})
    assert not bracoids.verify_bracoid(bad).ok
    sol = ybe.build_ybe_from_contained_brace(bad, K)
    assert sol.source is None
    rep = ybe.verify_ybe(sol)
    assert rep.method == "sweep" and not rep.holds
    assert rep.witness == braid_oracle(sol) == (0, 0, 4)
    assert ybe.build_ybe_from_contained_brace(b, K).source == (b, K)


def test_certificate_rejects_a_source_with_other_tables():
    """Edited tables lose the source, whichever way they are made, and are
    swept to the oracle's witness."""
    G, psi = d4_setup()
    sol = ybe.build_ybe_idempotent(G, psi)
    lam = np.array(sol.lam)
    lam[3, 4] = (lam[3, 4] + 1) % 8
    edited = [replace(sol, lam=lam), sol.with_tables(lam=lam)]
    assert [e.source for e in edited] == [None, None]
    reports = [ybe.verify_ybe(e) for e in edited]
    assert all(r.method == "sweep" and not r.holds for r in reports)
    assert [r.witness for r in reports] == [braid_oracle(edited[0])] * 2
    assert reports[0].to_jsonable() == reports[1].to_jsonable()
    # a table that is not a group never becomes a bracoid's acting table
    with pytest.raises(PreconditionError):
        groups.from_table(np.zeros((8, 8), dtype=np.int64))


@pytest.mark.parametrize("K", [(0, 1), (0, 2), (0, 2, 5, 7)],
                         ids=["not_a_subgroup", "too_small", "not_free"])
def test_certificate_refuses_a_source_subgroup_that_is_not_regular(K):
    """Members that are no subgroup, a subgroup of the wrong order, and one
    of the right order that contains fix, so does not act freely: the
    builder makes no solution on any of them."""
    G, psi = d4_setup()
    b = bracoids.phi_tower_bracoid(G, psi, 1)
    with pytest.raises(PreconditionError):
        ybe.build_ybe_from_contained_brace(b, K)


@pytest.mark.parametrize("make", [
    lambda G, b, K: groups.Subgroup(G, K),
    lambda G, b, K: groups.as_subgroup(G, K),
    lambda G, b, K: ybe.build_ybe_from_contained_brace(b, K),
], ids=["Subgroup", "as_subgroup", "contained_brace"])
@pytest.mark.parametrize("K", [5, None, np.int64(0), np.array(0)],
                         ids=["int", "None", "numpy_int", "zero_dim_array"])
def test_subgroup_members_that_are_not_a_collection_are_refused(make, K):
    """These used to fail with a TypeError where the members are iterated."""
    G, psi = d4_setup()
    b = bracoids.phi_tower_bracoid(G, psi, 1)
    with pytest.raises(PreconditionError, match="not a collection"):
        make(G, b, K)


def test_with_tables_drops_the_source():
    """`source` is not an init field, so neither `with_tables` nor
    `dataclasses.replace` carries it, and the tables it was proved for
    cannot be rebound."""
    G, psi = d4_setup()
    sol = ybe.build_ybe_idempotent(G, psi)
    assert sol.source is not None
    assert sol.with_tables().source is None and replace(sol).source is None
    for name in ("lam", "rho", "source"):
        with pytest.raises(FrozenInstanceError):
            setattr(sol, name, None)


def test_source_holds_no_reference_cycle():
    G1, G2 = groups.cyclic(4), groups.symmetric(3)
    alpha = maps.make_map(G1, G2, {"g": "102"})
    beta = maps.make_map(G2, G1, {"102": "g^2", "120": "e"})
    gc.disable()
    try:
        sol = ybe.build_ybe_product(G1, G2, alpha, beta)
        ybe.verify_ybe(sol)
        refs = [weakref.ref(sol), weakref.ref(sol.source[0]),
                weakref.ref(sol.source[1].parent)]
        del sol
        # freed by reference counting alone, without the cycle collector
        assert [r() for r in refs] == [None, None, None]
    finally:
        gc.enable()


def spy(monkeypatch, name):
    """The list that each call of groups.<name> appends one entry to."""
    calls, real = [], getattr(groups, name)
    monkeypatch.setattr(groups, name, lambda *a, **k: calls.append(1) or real(*a, **k))
    return calls


def test_each_table_is_checked_once_where_it_is_made(monkeypatch):
    G1, G2 = groups.cyclic(4), groups.symmetric(3)
    alpha = maps.make_map(G1, G2, {"g": "102"})
    beta = maps.make_map(G2, G1, {"102": "g^2", "120": "e"})
    G, psi = d4_setup()
    idempotent = [f for f in maps.enumerate_abelian_maps(G) if f.idempotent]
    bs = []
    for H in groups.enumerate_subgroups(G):
        for build in (bracoids.bracoid_from_C1, bracoids.bracoid_from_C2):
            try:
                bs.append(build(G, psi, H))
            except PreconditionError:
                continue
    checks = spy(monkeypatch, "verify_group_table")
    # none: the C2 target is a quotient group and the circle table is
    # certified, and the braid certificate checks none
    sol = ybe.build_ybe_product(G1, G2, alpha, beta)
    assert not checks
    assert ybe.verify_ybe(sol).method == "bracoid" and not checks
    # the phi-tower target, whose closure that check decides
    assert len(idempotent) == 9
    for f in idempotent:
        checks.clear()
        assert ybe.verify_ybe(ybe.build_ybe_idempotent(G, f)).method == "bracoid"
        assert len(checks) == 1
    # a C1 or C2 target, plain or opposite, is a quotient group: no check
    fix = groups.subgroup_generated(G, [G.index_of("rs")])
    ker = groups.Subgroup(G, (0, 2, 4, 6))
    checks.clear()
    for build, H in ((bracoids.bracoid_from_C1, fix), (bracoids.bracoid_from_C2, ker)):
        for opposite in (False, True):
            build(G, psi, H, opposite=opposite)
            assert not checks
    # the regular subgroup is a subgroup of the acting group itself
    made = spy(monkeypatch, "from_table")
    found = [(b, K) for b in bs if (K := bracoids.find_contained_brace(b)) is not None]
    assert not made and len(found) > 1
    assert all(K.parent is b.acting.group for b, K in found)


def test_certificate_at_order_512():
    start = time.perf_counter()
    G1, G2 = groups.cyclic(16), groups.dihedral(16)
    alpha = maps.make_map(G1, G2, {"g": "r"})
    beta = maps.make_map(G2, G1, {"r": "e", "s": "g^8"})
    sol = ybe.build_ybe_product(G1, G2, alpha, beta)
    rep = ybe.verify_ybe(sol)
    elapsed = time.perf_counter() - start
    assert sol.set_order == 512
    assert rep.method == "bracoid" and rep.holds and rep.checked == "exhaustive"
    assert elapsed < 1, elapsed


def first_degenerate_row(table):
    for i, row in enumerate(table.tolist()):
        if sorted(row) != list(range(len(row))):
            return i
    return None


def test_nondegeneracy_witnesses_are_the_first_bad_rows():
    G = groups.cyclic(8)
    flip, _ = ybe.build_ybe_abelian_pair(G, maps.trivial_map(G))
    rng = np.random.default_rng(3)
    for _ in range(20):
        lam, rho = np.array(flip.lam), np.array(flip.rho)
        for table in (lam, rho):
            x, y = rng.integers(0, 8, size=2)
            table[x, y] = rng.integers(0, 8)
        nd = ybe.verify_ybe(flip.with_tables(lam=lam, rho=rho)).nondegeneracy
        left, right = first_degenerate_row(lam), first_degenerate_row(rho)
        assert nd.witnesses == ({} if left is None else {"left_x": left}) | \
            ({} if right is None else {"right_y": right})
        assert (nd.left, nd.right) == (left is None, right is None)


@pytest.mark.parametrize("entry", [8, -1])
def test_an_edited_entry_outside_the_set_is_refused(entry):
    """An entry outside 0..n-1 is refused when the solution is made, not
    read as an index by verify_ybe (8 failed there, -1 wrapped to 7)."""
    G = groups.dihedral(4)
    sol = ybe.build_ybe_idempotent(G, maps.make_map(G, G, {"r": "e", "s": "s"}))
    lam = np.array(sol.lam)
    lam[1, 1] = entry
    with pytest.raises(PreconditionError, match="0..n-1"):
        sol.with_tables(lam=lam)
    with pytest.raises(PreconditionError, match="0..n-1"):
        replace(sol, lam=lam)


SWAP = [[0, 1], [1, 0]]


@pytest.mark.parametrize("lam, rho, message", [
    (np.array(SWAP, dtype=float), SWAP, "lambda table has an entry that is not an integer"),
    (SWAP, [[0, 1], [True, 0]], "rho table has an entry that is not an integer"),
    ([[0, 1], [1]], SWAP, "lambda table is ragged"),
    (SWAP, [[0, 2], [1, 0]], "0..n-1"),
    ([[0, 1, 0], [1, 0, 1]], [[0, 1, 0], [1, 0, 1]], "n x n"),
    (SWAP, [[0, 1, 2], [1, 2, 0], [2, 0, 1]], "n x n"),
    (np.int64(0), np.int64(0), "n x n"),
], ids=["float", "bool", "ragged", "nested_out_of_range", "not_square", "unequal",
        "scalar"])
def test_tables_that_are_not_index_tables_are_refused(lam, rho, message):
    with pytest.raises(PreconditionError, match=message):
        ybe.YbeSolution(lam, rho, {})


def test_nested_lists_are_read_as_index_tables():
    flip = [[0, 1], [0, 1]]  # R(x, y) = (y, x)
    sol = ybe.YbeSolution(flip, flip, {})
    assert sol.set_order == 2 and sol.lam.dtype == np.int64
    assert not sol.lam.flags.writeable and not sol.rho.flags.writeable
    assert ybe.verify_ybe(sol).holds


def test_a_callers_writable_tables_are_copied_and_a_builders_are_kept():
    """The caller's int64 arrays stay writable and unshared; a built
    solution's tables are read-only already, so `with_tables` and
    `dataclasses.replace` keep them uncopied."""
    lam = np.array([[0, 1], [0, 1]])
    view = np.array([[0, 1], [0, 1]])[:, ::1]
    sol = ybe.YbeSolution(lam, view, {})
    for given, kept in ((lam, sol.lam), (view, sol.rho)):
        assert given.flags.writeable and not kept.flags.writeable
        assert not np.shares_memory(given, kept)
    lam[0, 0] = 1
    assert sol.lam.tolist() == [[0, 1], [0, 1]]
    G, psi = d4_setup()
    built = ybe.build_ybe_idempotent(G, psi)
    assert not built.lam.flags.writeable and not built.rho.flags.writeable
    for other in (built.with_tables(), replace(built)):
        assert other.lam is built.lam and other.rho is built.rho
    mixed = ybe.YbeSolution(built.lam, np.array(built.rho), {})
    assert mixed.lam is built.lam and mixed.rho is not built.rho


def test_certified_tables_refuse_the_writeable_flag():
    """On the D4 idempotent solution, `sol.lam.setflags(write=True)` and one
    edited cell once left `verify_ybe` reporting holds from its certificate.
    Every table the library makes is a read-only view over a read-only base,
    whose flag NumPy refuses to set: the solution's, the bracoid's action
    and the groups' tables."""
    G, psi = d4_setup()
    sol = ybe.build_ybe_idempotent(G, psi)
    b = bracoids.bracoid_from_C1(G, psi, groups.subgroup_generated(G, [G.index_of("rs")]))
    for t in (sol.lam, sol.rho, b.action, b.target.group.mul, G.mul, G.inv,
              ybe.YbeSolution(np.array(sol.lam), sol.rho, {}).lam):
        with pytest.raises(ValueError):
            t.setflags(write=True)
        with pytest.raises(ValueError):
            t[(0,) * t.ndim] = 1
    assert ybe.verify_ybe(sol).holds and ybe.verify_ybe(sol.with_tables()).holds


def c8xs4_product():
    G1, G2 = groups.cyclic(8), groups.symmetric(4)
    alpha = maps.make_map(G1, G2, {"g": "1230"})
    beta = maps.make_map(G2, G1, {"1023": "g^4", "1230": "g^4"})
    return ybe.build_ybe_product(G1, G2, alpha, beta)


def test_each_solution_is_made_once(monkeypatch):
    """Every builder makes its solution once, with its final provenance, and
    verifies its bracoid once; a certified verify_ybe verifies nothing again
    and runs no recipe."""
    made, real = [], ybe.YbeSolution.__post_init__
    monkeypatch.setattr(ybe.YbeSolution, "__post_init__",
                        lambda self: made.append(self.provenance) or real(self))
    checked, verify = [], bracoids.verify_bracoid
    monkeypatch.setattr(bracoids, "verify_bracoid", lambda b: checked.append(b) or verify(b))
    recipes, recipe = [], ybe._recipe
    monkeypatch.setattr(ybe, "_recipe", lambda b, K: recipes.append(b) or recipe(b, K))
    sol = c8xs4_product()
    assert made == [{"construction": "product", "n1": 8, "n2": 24}]
    assert len(checked) == len(recipes) == 1
    made.clear()
    checked.clear()
    recipes.clear()
    rep = ybe.verify_ybe(sol)
    assert rep.method == "bracoid" and rep.holds and not made
    assert checked == recipes == []
    b, K = sol.source
    assert ybe.build_ybe_from_contained_brace(b, K).source == (b, K)
    assert checked == recipes == [b]
    A = groups.cyclic(6)
    made.clear()
    ybe.build_ybe_abelian_pair(A, maps.trivial_map(A))
    assert made == [{"construction": "abelian_pair_R"}, {"construction": "abelian_pair_Rprime"}]


@pytest.mark.parametrize("source", ["x", (1, 2), ("bracoid", None), [None, None], ()],
                         ids=["string", "pair_of_ints", "first_not_a_bracoid", "list", "empty"])
def test_a_source_that_is_not_a_bracoid_pair_is_refused(source):
    """No caller can give a solution a source: the constructor takes none,
    by position or by name (verify_ybe once failed on these with a
    ValueError or an AttributeError)."""
    flip = [[0, 1], [0, 1]]
    with pytest.raises(TypeError):
        ybe.YbeSolution(flip, flip, {}, source)
    with pytest.raises(TypeError):
        ybe.YbeSolution(flip, flip, {}, source=source)


def test_a_solution_takes_no_source_even_its_own():
    """Only a builder sets a source: the builder's own (bracoid, K) is
    refused by the constructor and by `dataclasses.replace` alike."""
    G, psi = d4_setup()
    sol = ybe.build_ybe_idempotent(G, psi)
    with pytest.raises(TypeError):
        ybe.YbeSolution(sol.lam, sol.rho, sol.provenance, sol.source)
    with pytest.raises(ValueError, match="init=False"):
        replace(sol, source=sol.source)
