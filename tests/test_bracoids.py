import functools
import re

import numpy as np
import pytest

from skewbracoid import braces, bracoids, corpus, groups, maps, serialize, ybe
from skewbracoid.errors import InternalConsistencyError, PreconditionError

from conftest import CATALOGUE, action_oracle, bracoid_oracle, phi_tower_oracle


def d4_setup():
    G = groups.dihedral(4)
    psi = maps.make_map(G, G, {"r": "rs", "s": "e"})
    return G, psi


def test_c1_bracoid_valid_and_matches_oracle():
    G, psi = d4_setup()
    fix = groups.subgroup_generated(G, [G.index_of("rs")])
    b = bracoids.bracoid_from_C1(G, psi, fix)
    rep = bracoids.verify_bracoid(b)
    assert rep.ok and rep.transitive
    assert bracoid_oracle(b) is None
    # action is left translation pushed to cosets
    cs = groups.coset_space(G, fix)
    for g in range(8):
        for c, x in enumerate(cs.representatives):
            assert b.action[g, c] == cs.coset_of[G.mul[g, x]]


def test_c1_requires_commutator_condition():
    G, psi = d4_setup()
    refl = groups.subgroup_generated(G, [G.index_of("s")])  # <s>: C1 fails
    with pytest.raises(PreconditionError):
        bracoids.bracoid_from_C1(G, psi, refl)


def test_c2_bracoid_valid():
    G, psi = d4_setup()
    ker = groups.Subgroup(G, (0, 2, 4, 6))
    b = bracoids.bracoid_from_C2(G, psi, ker)
    assert bracoids.verify_bracoid(b).ok
    assert bracoid_oracle(b) is None
    assert b.acting.label == "o" and b.target.label == "."


def test_c2_requires_normality():
    G, psi = d4_setup()
    fix = groups.subgroup_generated(G, [G.index_of("rs")])  # not normal
    with pytest.raises(PreconditionError):
        bracoids.bracoid_from_C2(G, psi, fix)


@pytest.mark.parametrize("opposite", [False, True])
@pytest.mark.parametrize("build", [bracoids.bracoid_from_C1, bracoids.bracoid_from_C2],
                         ids=["C1", "C2"])
def test_a_subgroup_of_another_group_is_refused(build, opposite):
    """A subgroup of another group is refused, as find_strong_left_ideals
    refuses it, before its members index into G: those of <2> of C4 run
    past G's normality test, and <4> of C8 reads as D4's {e, s}, which
    satisfies C1 under r -> e, s -> s."""
    G = groups.dihedral(4)
    psi = maps.make_map(G, G, {"r": "e", "s": "s"})
    for H in (groups.Subgroup(groups.cyclic(4), (0, 2)),
              groups.Subgroup(groups.cyclic(8), (0, 4))):
        with pytest.raises(PreconditionError, match="does not belong to the given group"):
            build(G, psi, H, opposite=opposite)


def test_opposite_target_still_valid():
    G, psi = d4_setup()
    fix = groups.subgroup_generated(G, [G.index_of("rs")])
    b = bracoids.bracoid_from_C1(G, psi, fix, opposite=True)
    assert b.target.label == "o'"
    assert bracoid_oracle(b) is None


def test_c2_opposite_target_is_the_transposed_target():
    G = groups.dihedral(6)
    psi = maps.make_map(G, G, {"r": "s", "s": "e"})
    centre = groups.Subgroup(G, (0, 3))  # G/Z(G) is D3, not abelian
    plain = bracoids.bracoid_from_C2(G, psi, centre)
    opp = bracoids.bracoid_from_C2(G, psi, centre, opposite=True)
    assert not np.array_equal(plain.target.op, plain.target.op.T)
    assert opp.target.label == ".'"
    assert np.array_equal(opp.target.op, plain.target.op.T)
    assert bracoid_oracle(opp) is None


def test_verify_bracoid_detects_corruption():
    G, psi = d4_setup()
    fix = groups.subgroup_generated(G, [G.index_of("rs")])
    b = bracoids.bracoid_from_C1(G, psi, fix)
    act = np.array(b.action)
    act[3, 1], act[3, 2] = act[3, 2], act[3, 1]
    bad = bracoids.Bracoid(b.acting, b.target, act, {"construction": "corrupted"})
    rep = bracoids.verify_bracoid(bad)
    assert not rep.ok and not rep.action_valid
    assert action_oracle(b) is None
    assert rep.first_failure is not None
    assert rep.first_failure == action_oracle(bad)


def test_reduce_bracoid_faithful_and_idempotent():
    G, psi = d4_setup()
    ker = groups.Subgroup(G, (0, 2, 4, 6))
    b = bracoids.bracoid_from_C2(G, psi, ker)
    red = bracoids.reduce_bracoid(b)
    assert red.target_order == b.target_order
    identity_row = np.arange(red.target_order)
    kernel = [g for g in range(red.acting_order)
              if np.array_equal(red.action[g], identity_row)]
    assert kernel == [0]
    again = bracoids.reduce_bracoid(red)
    assert again is red


def coset_product_oracle(b):
    """The acting table of b modulo the elements acting trivially, with the
    cosets numbered by their least members, from coset products."""
    n, m = b.acting_order, b.target_order
    kernel = [k for k in range(n) if list(b.action[k]) == list(range(m))]
    cosets = []
    for g in range(n):
        coset = frozenset(b.acting.group.mul[g, k] for k in kernel)
        if coset not in cosets:
            cosets.append(coset)
    reps = [min(c) for c in cosets]
    return [[next(i for i, c in enumerate(cosets) if b.acting.group.mul[x, y] in c)
             for y in reps] for x in reps]


def test_reduce_bracoid_matches_coset_product_oracle():
    G, psi = d4_setup()
    reduced = 0
    for H in groups.enumerate_subgroups(G):
        for build in (bracoids.bracoid_from_C1, bracoids.bracoid_from_C2):
            try:
                b = build(G, psi, H)
            except PreconditionError:
                continue
            red = bracoids.reduce_bracoid(b)
            assert red.acting.op.tolist() == coset_product_oracle(b)
            reduced += red is not b
    assert reduced > 0


def test_find_contained_brace_enumerates():
    G, psi = d4_setup()
    fix = groups.subgroup_generated(G, [G.index_of("rs")])
    b = bracoids.bracoid_from_C1(G, psi, fix)
    K = bracoids.find_contained_brace(b)
    assert K is not None
    seen = {int(b.action[k, 0]) for k in K.members}
    assert len(seen) == b.target_order  # regular restriction


def test_find_contained_brace_enumerates_above_order_64():
    # D40 is no direct product, so its C2 bracoid records no candidates
    G = groups.dihedral(40)
    psi = maps.make_map(G, G, {"r": "e", "s": "s"})
    H = groups.subgroup_generated(G, [G.index_of("r")])
    b = bracoids.bracoid_from_C2(G, psi, H)
    assert b.acting_order == 80 and "contained_candidates" not in b.provenance
    K = bracoids.find_contained_brace(b)
    regular = [S for S in groups.enumerate_subgroups(b.acting.group)
               if S.order == b.target_order
               and len({int(b.action[k, 0]) for k in S.members}) == S.order]
    assert K is not None and K.members == regular[0].members


def test_find_contained_brace_prefers_provenance_candidates():
    G, psi = d4_setup()
    b = bracoids.phi_tower_bracoid(G, psi, 1)
    K = bracoids.find_contained_brace(b)
    assert K.members == tuple(b.provenance["target_members"])


def test_find_contained_brace_skips_a_candidate_that_is_no_subgroup():
    """A recorded candidate that is not a subgroup is passed over, and the
    search falls back to the lattice."""
    G, psi = d4_setup()
    fix = groups.subgroup_generated(G, [G.index_of("rs")])
    b = bracoids.bracoid_from_C1(G, psi, fix)
    K = bracoids.find_contained_brace(b)
    for bad in ([0, 1], [0, 1, 4, 5]):  # {e, r, s, rs} lacks r^2
        marked = bracoids.Bracoid(b.acting, b.target, b.action,
                                  {**b.provenance, "contained_candidates": [bad]})
        assert bracoids.find_contained_brace(marked).members == K.members


def test_phi_tower_orders_d4():
    G, psi = d4_setup()
    b0 = bracoids.phi_tower_bracoid(G, psi, 0)
    assert b0.target_order == 8
    b1 = bracoids.phi_tower_bracoid(G, psi, 1)
    assert b1.target_order == 4  # phi(G) = ker psi for an idempotent map
    assert bracoid_oracle(b1) is None
    b2 = bracoids.phi_tower_bracoid(G, psi, 2)
    assert b2.target_order == 4
    with pytest.raises(PreconditionError):
        bracoids.phi_tower_bracoid(G, psi, -1)


def test_tower_action_is_phi_of_product():
    G, psi = d4_setup()
    n = 2
    b = bracoids.phi_tower_bracoid(G, psi, n)
    phin = maps.phi_power(psi, n)
    members = b.provenance["target_members"]
    pos = {m: i for i, m in enumerate(members)}
    for g in range(8):
        for x in range(8):
            assert b.action[g, pos[int(phin[x])]] == pos[int(phin[G.mul[g, x]])]


def _tower_cases():
    fx = corpus.load_fixture("d4xd4_tower")
    G = groups.build_group(fx["group"])
    yield "d4xd4_tower", G, maps.make_map(G, G, fx["map"]["images"])
    for name, build in CATALOGUE:
        G = build()
        for i, psi in enumerate(maps.enumerate_abelian_maps(G)):
            if psi.idempotent:
                yield f"{name}#{i}", G, psi


def test_tower_matches_formula_oracle():
    """Target table and action of the tower for n = 0..4 on the D4xD4
    fixture map and every idempotent catalogue map."""
    count = 0
    for _, G, psi in _tower_cases():
        for n in range(5):
            b = bracoids.phi_tower_bracoid(G, psi, n)
            target, action = phi_tower_oracle(G, maps.phi_power(psi, n))
            assert b.target.op.tolist() == target
            assert b.action.tolist() == action
            count += 1
    assert count > 5 * 100


@pytest.mark.parametrize("phin, error, message", [
    ([0, 1, 0, 1], PreconditionError, "not closed"),  # 1 + 1 leaves {0, 1}
    ([0, 2, 2, 0], InternalConsistencyError, "action ill-defined")])
def test_tower_refuses_an_image_that_is_no_tower(monkeypatch, phin, error, message):
    """A labelling of C4 whose image is not closed under products gives no
    target group; one whose fibres are not cosets gives no action."""
    G = groups.cyclic(4)
    monkeypatch.setattr(maps, "phi_power", lambda psi, n: np.array(phin))
    with pytest.raises(error, match=message):
        bracoids.phi_tower_bracoid(G, maps.identity_map(G), 1)


def relabeled(G, seed):
    """G rebuilt from its table alone, without generators, relabeled by a
    seeded permutation pi that fixes 0; with pi and its inverse."""
    pi = np.concatenate([[0], 1 + np.random.default_rng(seed).permutation(G.order - 1)])
    back = np.argsort(pi)
    R = groups.build_group({"kind": "table", "mul": pi[G.mul[back][:, back]].tolist()})
    assert R.generators is None
    return R, pi, back


def outcome(build, *args):
    """The bracoid report and the C1/C2 flag that build(*args) records, or
    None if the subgroup does not meet the route's condition."""
    try:
        b = build(*args)
    except PreconditionError:
        return None
    flags = {k: v for k, v in b.provenance.items() if k in ("C1", "C2")}
    return bracoids.verify_bracoid(b).to_jsonable(), flags


def opposite_verdict(brace):
    """Whether the opposites of a brace's two tables form a brace."""
    return braces.verify_brace(braces.opposite_table(brace.additive),
                               braces.opposite_table(brace.multiplicative)).holds


@pytest.mark.parametrize("build, seed", [(lambda: groups.dihedral(4), 4),
                                         (lambda: groups.symmetric(3), 3)],
                         ids=["D4", "S3"])
def test_constructions_survive_relabeling(build, seed):
    """Abelian maps, braces, C1/C2 bracoids and idempotent YBE solutions map
    across a relabeling; the relabeled group's kernels run on the generating
    set that from_table finds, not on declared generators."""
    G = build()
    R, pi, back = relabeled(G, seed)

    def carry(table):  # a table on G's elements, moved to R's
        return pi[table[back][:, back]]

    psis = maps.enumerate_abelian_maps(G)
    assert sorted(f.image_of.tolist() for f in maps.enumerate_abelian_maps(R)) == \
        sorted(pi[f.image_of[back]].tolist() for f in psis)
    subgroups = groups.enumerate_subgroups(G)
    for psi in psis:
        psi_r = maps.make_map(R, R, pi[psi.image_of[back]].tolist())
        # both braces hold in each labelling, with the carried tables
        for brace, brace_r in zip(braces.braces_from_map(G, psi),
                                  braces.braces_from_map(R, psi_r)):
            assert np.array_equal(brace_r.additive.op, carry(brace.additive.op))
            assert np.array_equal(brace_r.multiplicative.op, carry(brace.multiplicative.op))
        for H in subgroups:
            H_r = groups.Subgroup(R, tuple(pi[list(H.members)].tolist()))
            for route in (bracoids.bracoid_from_C1, bracoids.bracoid_from_C2):
                assert outcome(route, G, psi, H) == outcome(route, R, psi_r, H_r)
        if psi.idempotent:
            sol, sol_r = ybe.build_ybe_idempotent(G, psi), ybe.build_ybe_idempotent(R, psi_r)
            assert np.array_equal(sol_r.lam, carry(sol.lam))
            assert np.array_equal(sol_r.rho, carry(sol.rho))
            rep, rep_r = ybe.verify_ybe(sol), ybe.verify_ybe(sol_r)
            assert rep_r.method == rep.method == "bracoid" and rep_r.holds
            nd, nd_r = rep.nondegeneracy, rep_r.nondegeneracy
            assert (nd_r.left, nd_r.right) == (nd.left, nd.right)
            assert nd_r.witnesses.keys() == nd.witnesses.keys()
            for key, row in nd_r.witnesses.items():  # the preimage row is not a permutation
                table = sol.lam if key == "left_x" else sol.rho
                assert sorted(table[back[row]].tolist()) != list(range(G.order))


def test_opposite_brace_verdicts_survive_relabeling():
    """On the order-12 dihedral group the opposite pair (.', o') fails for
    24 of the 40 abelian maps; the verdict of each maps across."""
    G = groups.dihedral(6)
    R, pi, back = relabeled(G, 6)
    verdicts = []
    for psi in maps.enumerate_abelian_maps(G):
        psi_r = maps.make_map(R, R, pi[psi.image_of[back]].tolist())
        verdicts.append(opposite_verdict(braces.braces_from_map(G, psi)[0]))
        assert opposite_verdict(braces.braces_from_map(R, psi_r)[0]) == verdicts[-1]
    assert verdicts.count(False) == 24 and len(verdicts) == 40


@functools.cache
def small_bracoids() -> tuple:
    """Over the catalogue groups of order <= 8 and every abelian map on
    them: every C1 and C2 bracoid of every subgroup, plain and opposite,
    and the phi-towers n = 0..2, each also reduced, with the K that
    `find_contained_brace` finds in it (None if there is none)."""
    out = []
    for _, build in CATALOGUE:
        G = build()
        if G.order > 8:
            continue
        for psi in maps.enumerate_abelian_maps(G):
            bs = [bracoids.phi_tower_bracoid(G, psi, n) for n in range(3)]
            for H in groups.enumerate_subgroups(G):
                for make in (bracoids.bracoid_from_C1, bracoids.bracoid_from_C2):
                    for opposite in (False, True):
                        try:
                            bs.append(make(G, psi, H, opposite=opposite))
                        except PreconditionError:
                            continue
            out += [(b, bracoids.find_contained_brace(b))
                    for b in bs + [bracoids.reduce_bracoid(b) for b in bs]]
    return tuple(out)


def test_every_small_bracoid_is_valid_and_gives_a_solution():
    """End to end over `small_bracoids`: each passes `verify_bracoid`, and
    where a regular K exists its recipe solution passes the braid relation
    swept over all triples, with no certificate."""
    seen = {"bracoids": 0, "solutions": 0}
    for b, K in small_bracoids():
        assert bracoids.verify_bracoid(b).ok
        seen["bracoids"] += 1
        if K is not None:
            rep = ybe.verify_ybe(ybe.build_ybe_from_contained_brace(b, K).with_tables())
            assert rep.method == "sweep" and rep.holds
            seen["solutions"] += 1
    assert seen == {"bracoids": 3146, "solutions": 2884}


def test_certified_solutions_are_left_nondegenerate_iff_k_is_the_acting_group(monkeypatch):
    """On every solution of `small_bracoids`, the certificate's predictions
    hold, and `verify_ybe` checks both: left non-degenerate iff |K| = |G|,
    and always right non-degenerate (both proved in its docstring).  A
    report with either flag flipped raises."""
    left = {True: 0, False: 0}
    for b, K in small_bracoids():
        if K is not None:
            rep = ybe.verify_ybe(ybe.build_ybe_from_contained_brace(b, K))
            assert rep.method == "bracoid" and rep.holds and rep.nondegeneracy.right
            assert rep.nondegeneracy.left == (K.order == b.acting_order)
            left[rep.nondegeneracy.left] += 1
    assert left == {True: 1906, False: 978}
    b, K = next((b, K) for b, K in small_bracoids() if K is not None)
    sol = ybe.build_ybe_from_contained_brace(b, K)
    whole = K.order == b.acting_order
    report = ybe.NondegeneracyReport
    for flip_left, flip_right in ((True, False), (False, True)):
        monkeypatch.setattr(ybe, "NondegeneracyReport", lambda left, right, witnesses: report(
            left ^ flip_left, right ^ flip_right, witnesses))
        measured = f"(left {whole ^ flip_left}, right {not flip_right})"
        with pytest.raises(InternalConsistencyError, match=re.escape(measured)):
            ybe.verify_ybe(sol)


@pytest.mark.parametrize("entry", [99, -1, 1.0])
def test_verify_bracoid_refuses_action_entries_outside_the_target(entry):
    """An action entry is a target element: 99 used to fail as an index,
    and -1 to wrap to the last element and report a witness."""
    G = groups.dihedral(4)
    b = bracoids.phi_tower_bracoid(G, maps.make_map(G, G, {"r": "e", "s": "s"}), 1)
    act = np.array(b.action, dtype=type(entry))
    act[1, 1] = entry
    bad = bracoids.Bracoid(b.acting, b.target, act, {"construction": "corrupted"})
    with pytest.raises(PreconditionError, match=r"8 x 4, of integers in 0\.\.3"):
        bracoids.verify_bracoid(bad)


def test_a_nested_list_action_verifies_and_exports_as_the_array():
    """A Bracoid reads its action through np.asarray, as YbeSolution reads
    its tables: the list form is the array form."""
    G, psi = d4_setup()
    b = bracoids.bracoid_from_C1(G, psi, groups.subgroup_generated(G, [G.index_of("rs")]))
    listed = bracoids.Bracoid(b.acting, b.target, b.action.tolist(), {})
    arrayed = bracoids.Bracoid(b.acting, b.target, np.array(b.action), {})
    assert isinstance(listed.action, np.ndarray) and not listed.action.flags.writeable
    assert bracoids.verify_bracoid(listed).to_jsonable() == \
        bracoids.verify_bracoid(arrayed).to_jsonable() == bracoids.verify_bracoid(b).to_jsonable()
    assert serialize.export_json(listed) == serialize.export_json(arrayed)


def test_a_callers_writable_action_is_copied_and_a_builders_is_kept():
    """The caller's action stays writable and unshared, where it once was
    frozen in place; a builder's action is read-only already and kept."""
    G, psi = d4_setup()
    b = bracoids.bracoid_from_C1(G, psi, groups.subgroup_generated(G, [G.index_of("rs")]))
    assert not b.action.flags.writeable
    assert bracoids.Bracoid(b.acting, b.target, b.action, {}).action is b.action
    act = np.array(b.action)
    copied = bracoids.Bracoid(b.acting, b.target, act, {})
    assert act.flags.writeable and not copied.action.flags.writeable
    assert not np.shares_memory(act, copied.action)
    act[1, 1] = 0
    assert np.array_equal(copied.action, b.action)


def test_a_ragged_action_is_refused():
    """NumPy's ValueError on a ragged nested list used to escape here."""
    C2 = braces.table_of(groups.cyclic(2))
    with pytest.raises(PreconditionError, match="action is ragged"):
        bracoids.Bracoid(C2, C2, [[0, 1], [1]], {})


def test_an_identity_that_moves_a_point_fails_at_it():
    """e must act trivially: a first row that is not the identity is the
    first failure, reported as [0]."""
    G, psi = d4_setup()
    b = bracoids.bracoid_from_C1(G, psi, groups.subgroup_generated(G, [G.index_of("rs")]))
    act = np.array(b.action)
    act[0] = np.roll(act[0], 1)
    rep = bracoids.verify_bracoid(bracoids.Bracoid(b.acting, b.target, act, {}))
    assert rep.to_jsonable() == {"action_valid": False, "transitive": False,
                                 "relation_holds": False, "first_failure": [0]}
