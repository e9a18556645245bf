import functools

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from skewbracoid import braces, bracoids, corpus, groups, ideals, maps
from skewbracoid.errors import InternalConsistencyError, PreconditionError
from skewbracoid.ideals import FAMILIES

from conftest import (CATALOGUE, closed_per_stack, family_closed_forms,
                      fixpoint_roots, ker_times, normal_oracle, quaternion_group,
                      sli_oracle)


def d4_setup():
    G = groups.dihedral(4)
    psi = maps.make_map(G, G, {"r": "rs", "s": "e"})
    return G, psi


def cpq_setup():
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
    return G, psi


def test_named_subgroups_d4():
    G, psi = d4_setup()
    named = ideals.named_subgroups(G, psi)
    assert [G.names[m] for m in named.ker.members] == ["e", "r^2", "s", "r^2s"]
    assert [G.names[m] for m in named.fix.members] == ["e", "rs"]
    assert [G.names[m] for m in named.h_hat.members] == ["e", "r^2", "rs", "r^3s"]


def test_ker_times_products():
    G, psi = cpq_setup()
    named = ideals.named_subgroups(G, psi)
    assert named.ker.members == tuple(range(15))
    assert named.fix.members == (0, 15, 30, 45)
    y = groups.Subgroup(G, (0, 15))
    z = groups.Subgroup(G, (0, 30))
    yz = groups.Subgroup(G, (0, 45))
    assert ker_times(ideals.named_subgroups(G, psi), y).members == tuple(range(30))
    assert ker_times(named, z).members == tuple(range(15)) + tuple(range(30, 45))
    assert ker_times(named, yz).members == tuple(range(15)) + tuple(range(45, 60))
    with pytest.raises(PreconditionError):
        ker_times(named, groups.Subgroup(G, (0, 1, 2, 3, 4)))  # not inside fix


def test_fix_verdict_matches_published_example():
    G, psi = d4_setup()
    fix = groups.subgroup_generated(G, [G.index_of("rs")])
    verdict = ideals.classify_subgroup(G, psi, fix)
    assert verdict.C1 and not verdict.C2
    assert verdict.strong_left_ideal_of == ("(o,.)", "(o',.)")
    assert verdict.ideal_of == ()


def test_full_subgroup_normal_and_ideal():
    G, psi = d4_setup()
    whole = groups.Subgroup(G, tuple(range(8)))
    verdict = ideals.classify_subgroup(G, psi, whole)
    assert verdict.C1 and verdict.C2
    assert set(verdict.ideal_of) == set(ideals.IDEAL_LABELS)
    assert set(verdict.strong_left_ideal_of) == set(ideals.SLI_LABELS)


def test_cpq_order30_strong_left_ideals():
    G, psi = cpq_setup()
    for members in [tuple(range(30)),
                    tuple(range(15)) + tuple(range(30, 45)),
                    tuple(range(15)) + tuple(range(45, 60))]:
        H = groups.Subgroup(G, members)
        verdict = ideals.classify_subgroup(G, psi, H)
        assert verdict.C1
        assert "(o,.)" in verdict.strong_left_ideal_of


def test_classify_rejects_foreign_subgroup():
    G, psi = d4_setup()
    other = groups.dihedral(4)
    H = groups.Subgroup(other, (0, 2))
    with pytest.raises(PreconditionError):
        ideals.classify_subgroup(G, psi, H)


def test_classify_requires_abelian_endomorphism():
    G = groups.dihedral(4)
    ident = maps.identity_map(G)
    H = groups.Subgroup(G, (0, 2))
    with pytest.raises(PreconditionError):
        ideals.classify_subgroup(G, ident, H)


def test_named_subgroups_require_endomorphism():
    A = groups.cyclic(3)
    f = maps.left_regular_map(A)
    with pytest.raises(PreconditionError):
        ideals.named_subgroups(A, f)


@pytest.mark.parametrize("name", ["D4", "D6", "Q8", "S3"])
def test_direct_definition_matches_oracle_for_every_map(name):
    """Every strong-left-ideal and ideal label of each verdict against the
    scalar definitions, on the braces (A, M) built here from the tables of
    . and o and their transposes."""
    G = dict(CATALOGUE)[name]()
    dot = G.mul
    for psi in maps.enumerate_abelian_maps(G):
        circ = braces.circle_table(G, psi).op
        pairs = {"(o,.)": (circ, dot), "(o',.)": (circ.T, dot),
                 "(.,o)": (dot, circ), "(.',o)": (dot.T, circ),
                 "(.,o')": (dot, circ.T)}
        for verdict in ideals.find_strong_left_ideals(G, psi):
            members = verdict.subgroup.members
            for label, (A, M) in pairs.items():
                sli = sli_oracle(A, M, members)
                if label in ideals.SLI_LABELS:
                    assert (label in verdict.strong_left_ideal_of) == sli, \
                        f"{label} strong left ideal mismatch on {members}"
                if label in ideals.IDEAL_LABELS:
                    minv = [int(np.argmax(M[g] == 0)) for g in range(G.order)]
                    ideal = sli and normal_oracle(M, minv, members)
                    assert (label in verdict.ideal_of) == ideal, \
                        f"{label} ideal mismatch on {members}"


def test_classification_builds_no_opposite_table(monkeypatch):
    def refuse(t):
        raise AssertionError("an opposite table was built")

    monkeypatch.setattr(braces, "opposite_table", refuse)
    G, psi = d4_setup()
    assert len(ideals.find_strong_left_ideals(G, psi)) == 10


def test_find_strong_left_ideals_of_no_subgroups_is_empty():
    G, psi = d4_setup()
    assert ideals.find_strong_left_ideals(G, psi, []) == []
    H = groups.Subgroup(G, (0, 2, 4, 6))
    verdict, = ideals.find_strong_left_ideals(G, psi, [H])
    assert verdict.to_jsonable() == ideals.classify_subgroup(G, psi, H).to_jsonable()


def test_find_strong_left_ideals_enumerates_the_lattice_once(monkeypatch):
    calls = []
    closure = groups.closure
    monkeypatch.setattr(groups, "closure",
                        lambda G, gens: calls.append(gens) or closure(G, gens))
    G = groups.dihedral(8)
    found = maps.enumerate_abelian_maps(G)
    assert len(found) > 1
    for psi in found:
        assert len(ideals.find_strong_left_ideals(G, psi)) == 19
    once = len(calls)
    calls.clear()
    groups.enumerate_subgroups(groups.dihedral(8))
    assert once == len(calls) > 0


def test_phi_of_calls_per_psi_and_per_build(monkeypatch):
    """phi_of is the one source of phi: circle_table takes phi from psi
    itself, and the classification reads phi off the certified table."""
    calls = []
    phi_of = maps.phi_of
    monkeypatch.setattr(maps, "phi_of", lambda psi: calls.append(psi) or phi_of(psi))
    G = groups.dihedral(4)
    found = maps.enumerate_abelian_maps(G)
    for psi in found:
        assert len(ideals.find_strong_left_ideals(G, psi)) == 10
    assert calls == found
    calls.clear()
    H = groups.Subgroup(G, (0, 2))
    ideals.classify_subgroup(G, found[1], H)
    assert calls == [found[1]]
    # once for the circle table, twice per bracoid build
    calls.clear()
    braces.circle_table(G, found[1])
    bracoids.bracoid_from_C1(G, found[1], H)
    bracoids.bracoid_from_C2(G, found[1], groups.Subgroup(G, (0, 2, 4, 6)))
    assert calls == [found[1]] * 5


def test_classification_sweeps_only_to_check_the_circle_table(monkeypatch):
    """Every verdict is read from columns over the lattice, made once per
    psi from partitions and a record made once per group, and still goes
    through the module attributes the benchmark traces: one
    classify_subgroup call per subgroup, the commutator test on every call,
    and the normality test when the lattice record is made.  G is built
    again under the patches, as each benchmark op builds its groups."""
    G = groups.dihedral(8)
    psi = maps.enumerate_abelian_maps(G)[-1]
    want = [v.to_jsonable() for v in ideals.find_strong_left_ideals(G, psi)]
    sweeps, calls = [], []
    sweep = groups.sweep
    monkeypatch.setattr(groups, "sweep",
                        lambda *a, **k: sweeps.append(1) or sweep(*a, **k))
    braces.circle_table(G, psi)
    circle_sweeps = len(sweeps)
    sweeps.clear()
    for module, name in [(ideals, "classify_subgroup"), (groups, "is_normal"),
                         (groups, "commutator_condition")]:
        f = getattr(module, name)
        monkeypatch.setattr(module, name, lambda *a, f=f, name=name:
                            calls.append(name) or f(*a))
    G = groups.dihedral(8)
    psi = maps.GroupMap(G, G, psi.image_of)
    got = [v.to_jsonable() for v in ideals.find_strong_left_ideals(G, psi)]
    assert got == want and len(sweeps) == circle_sweeps
    assert calls.count("classify_subgroup") == 19
    assert calls.count("is_normal") >= 1
    assert calls.count("commutator_condition") >= 1


LATTICE_GROUPS = ([(name, builder, 1) for name, builder in CATALOGUE]
                  + [("C2xD4", lambda: groups.direct_product(groups.cyclic(2),
                                                             groups.dihedral(4)), 24),
                     ("S5", lambda: groups.symmetric(5), 1)])


@pytest.mark.parametrize("name,builder,step", LATTICE_GROUPS,
                         ids=[name for name, _, _ in LATTICE_GROUPS])
def test_lattice_route_matches_one_row_route(name, builder, step):
    """The columns over the whole lattice and the same column code run on
    the one-row stack [H] give the same verdicts.  S5 is not solvable, so
    its lattice is built through joins.  The one-row route is
    classify_subgroup, except on S5, where its 156 calls per map would each
    rebuild and check an order-120 circle table: there the one-row column
    code runs on tables built once per map.  C2xD4 takes every 24th of its
    960 maps."""
    G = builder()
    subgroups = groups.enumerate_subgroups(G)
    for psi in maps.enumerate_abelian_maps(G)[::step]:
        if name == "S5":
            tables = ideals._brace_tables(G, psi)
            want = [ideals.IdealVerdict(H, *row, *ideals.PREDICATE_LABELS[row]).to_jsonable()
                    for H in subgroups for row in ideals._columns(
                        G, tables, groups.subgroup_lattice(G, [H.members]), [H])]
        else:
            want = [ideals.classify_subgroup(G, psi, H).to_jsonable() for H in subgroups]
        assert [v.to_jsonable() for v in ideals.find_strong_left_ideals(G, psi)] == want


def d4xd4_sample():
    """D4xD4 and a sample of its abelian maps: every 26th of the products
    psi1 x psi2 and the swaps (a, b) -> (alpha(b), beta(a)) of abelian maps
    of D4, 61 maps."""
    D4 = groups.dihedral(4)
    G = groups.direct_product(D4, D4)
    ims = [f.image_of for f in maps.enumerate_abelian_maps(D4)]
    a, b = np.arange(64) % 8, np.arange(64) // 8  # the first factor runs fastest
    images = ([x[a] + 8 * y[b] for x in ims for y in ims]
              + [x[b] + 8 * y[a] for x in ims for y in ims])
    return G, [maps.make_map(G, G, im) for im in images[::26]]


def every_map(builder):
    G = builder()
    return G, maps.enumerate_abelian_maps(G)


ORBIT_GROUPS = ([(name, lambda b=builder: every_map(b)) for name, builder in CATALOGUE]
                + [("S4", lambda: every_map(lambda: groups.symmetric(4))),
                   ("C2xD4", lambda: every_map(lambda: groups.direct_product(
                       groups.cyclic(2), groups.dihedral(4)))),
                   ("D4xD4_sample", d4xd4_sample)])


@pytest.mark.parametrize("name,maps_of", ORBIT_GROUPS, ids=[name for name, _ in ORBIT_GROUPS])
def test_one_pass_roots_match_the_fixpoint_and_the_closed_forms(name, maps_of):
    """The least f_g(h) over g equals the orbit root that the all-g fixpoint
    finds, as {f_g} is a group; each family read from the tables equals its
    closed form in phi and psi, cell by cell; and phi read off the certified
    table is maps.phi_of.  The oracles keep all six families, and the
    re-indexing lemma holds on them: (.,o) and (.,o') at g are (o,.) and
    (o',.) at g^-1, so their partitions are those of FAMILIES."""
    G, found = maps_of()
    assert len(found) >= 2
    k = len(FAMILIES)
    for psi in found:
        tables = ideals._brace_tables(G, psi)
        circle = braces.circle_table(G, psi).group
        forms, roots = family_closed_forms(G, psi), fixpoint_roots(G, circle)
        assert np.array_equal(tables["roots"], roots[:k])
        assert np.array_equal(ideals._families(G, circle, slice(None)), forms[:k])
        assert np.array_equal(forms[3], forms[1][G.inv])
        assert np.array_equal(forms[5], forms[2][G.inv])
        assert np.array_equal(roots[3], roots[1]) and np.array_equal(roots[5], roots[2])
        assert np.array_equal(tables["phi"], maps.phi_of(psi))


def normalized_by_phi(mul, inv, phi, members):
    """Whether phi(h) normalizes H for every h in H, one element at a time."""
    H = set(members)
    return all({mul[mul[phi[h]][k]][inv[phi[h]]] for k in members} == H for h in members)


def every_8th_map(builder):
    G, found = every_map(builder)
    return G, found[::8]


CLOSURE_GROUPS = ([(name, maps_of) for name, maps_of in ORBIT_GROUPS if name != "C2xD4"]
                  + [("S5", lambda: every_8th_map(lambda: groups.symmetric(5))),
                     ("C2xD4", lambda: every_8th_map(lambda: groups.direct_product(
                         groups.cyclic(2), groups.dihedral(4))))])


@pytest.mark.parametrize("name,maps_of", CLOSURE_GROUPS, ids=[name for name, _ in CLOSURE_GROUPS])
def test_closure_under_o_is_normalization_by_phi(name, maps_of):
    """The lemma that lets the definition route take C2 for "H is a subgroup
    of (G, o)": a subgroup H of (G, .) is closed under o iff phi(h)
    normalizes H for every h in H, so every normal H is closed.  Closure is
    not C2: the trivial map makes every subgroup closed, so a group with a
    non-normal subgroup has a closed row that is not C2."""
    G, found = maps_of()
    members = [H.members for H in groups.enumerate_subgroups(G)]
    lattice = groups.subgroup_lattice(G)
    masks, C2 = lattice["masks"], lattice["normal"]
    mul, inv = G.mul.tolist(), G.inv.tolist()
    closed_apart_from_c2 = False
    for psi in found:
        closed = closed_per_stack(braces.circle_table(G, psi).op, masks, members)
        phi = maps.phi_of(psi).tolist()
        assert closed.tolist() == [normalized_by_phi(mul, inv, phi, m) for m in members]
        assert closed[C2].all()
        closed_apart_from_c2 |= bool(closed[~C2].any())
    assert closed_apart_from_c2 == (not C2.all())


@pytest.mark.parametrize("name,maps_of", CLOSURE_GROUPS, ids=[name for name, _ in CLOSURE_GROUPS])
def test_c2_decides_the_conjugation_families(name, maps_of):
    """The lemma that leaves (.,o) and (.',o) out of FAMILIES: their f_g are
    conjugations in (G, .), by psi(g)^-1 and phi(g), so every C2 row is a
    union of their orbits.  Their tests are not C2: under the trivial map
    (.',o) is conjugation by every g, so a group with a non-normal subgroup
    has a row that is not C2 and fails one of them."""
    G, found = maps_of()
    lattice = groups.subgroup_lattice(G)
    masks, C2 = lattice["masks"], lattice["normal"]
    fails_apart_from_c2 = False
    for psi in found:
        # (.,o) and (.',o) of the six closed forms, as (2 x g x h)
        forms = family_closed_forms(G, psi)[[3, 4]]
        # rows x 2: whether f_g(H) lies in H for every g
        stable = (masks[:, forms] | ~masks[:, None, None]).all(axis=(2, 3))
        assert stable[C2].all()
        fails_apart_from_c2 |= bool((~stable[~C2]).any())
    assert fails_apart_from_c2 == (not C2.all())


@pytest.mark.parametrize("block_bytes", [None, 4000, 400])
@pytest.mark.parametrize("builder", [d4xd4_sample, lambda: every_map(lambda: groups.symmetric(5))],
                         ids=["D4xD4", "S5"])
def test_closed_matches_per_stack_oracle(builder, block_bytes, monkeypatch):
    """Every subgroup that a verdict makes a strong left ideal of (.,o),
    which takes H to be a subgroup of (G, o) from C2, is closed under o by
    the per-stack oracle, with the lattice record and the orbit roots made
    whole or in blocks; at 400 bytes a block of `_families` holds one g."""
    if block_bytes:
        monkeypatch.setattr(groups, "SWEEP_BLOCK_BYTES", block_bytes)
    calls = []
    families = ideals._families
    monkeypatch.setattr(ideals, "_families", lambda *a: calls.append(1) or families(*a))
    G, found = builder()
    lattice = groups.subgroup_lattice(G)
    members = [H.members for H in groups.enumerate_subgroups(G)]
    seen = set()
    for psi in found[::8]:
        closed = closed_per_stack(braces.circle_table(G, psi).op, lattice["masks"], members)
        calls.clear()
        verdicts = ideals.find_strong_left_ideals(G, psi)
        assert (len(calls) > 1) == bool(block_bytes)
        assert [v.subgroup.members for v in verdicts] == members
        assert closed[["(.,o)" in v.strong_left_ideal_of for v in verdicts]].all()
        seen.update(closed.tolist())
    assert seen == {False, True}


@pytest.mark.parametrize("name", ["D4xD4", "S5"])
def test_verdicts_do_not_depend_on_the_block_size(name, monkeypatch):
    """With blocks of a few KiB, the family minimum takes several blocks per
    map, and every verdict is unchanged."""
    builder = {"D4xD4": d4xd4_sample,
               "S5": lambda: every_map(lambda: groups.symmetric(5))}[name]
    G, found = builder()
    found = found[::6]
    want = [[v.to_jsonable() for v in ideals.find_strong_left_ideals(G, psi)] for psi in found]
    monkeypatch.setattr(groups, "SWEEP_BLOCK_BYTES", 8 * len(FAMILIES) * G.order * 5 + 1)
    calls = []
    families = ideals._families
    monkeypatch.setattr(ideals, "_families", lambda *a: calls.append(1) or families(*a))
    G = builder()[0]  # a new group, whose lattice record is made under the patch
    got = [[v.to_jsonable() for v in ideals.find_strong_left_ideals(
        G, maps.GroupMap(G, G, psi.image_of))] for psi in found]
    assert got == want
    assert len(calls) >= 12 * len(found)


def test_listed_subgroups_share_one_set_of_tables(monkeypatch):
    """find_strong_left_ideals on listed subgroups gives their lattice
    verdicts and builds the brace tables once: the cpq_v4 fixture
    classifies its three order-30 subgroups that way."""
    G, psi = cpq_setup()
    by_members = {v.subgroup.members: v.to_jsonable()
                  for v in ideals.find_strong_left_ideals(G, psi)}
    listed = [groups.Subgroup(G, m) for m in
              [(0, 15), tuple(range(30)), tuple(range(15)) + tuple(range(45, 60))]]
    calls = []
    brace_tables = ideals._brace_tables
    monkeypatch.setattr(ideals, "_brace_tables",
                        lambda *a: calls.append(1) or brace_tables(*a))
    got = ideals.find_strong_left_ideals(G, psi, listed)
    assert [v.to_jsonable() for v in got] == [by_members[H.members] for H in listed]
    assert len(calls) == 1
    calls.clear()
    assert corpus.run_fixture("cpq_v4").ok
    assert len(calls) == 1
    with pytest.raises(PreconditionError):
        ideals.find_strong_left_ideals(G, psi, [groups.Subgroup(groups.cyclic(60), (0, 30))])


def test_disagreement_names_the_first_subgroup(monkeypatch):
    """With one orbit root moved, the two routes disagree on some
    subgroups; both routes raise, and the lattice route names the first of
    them in canonical (order, members) order."""
    G, psi = d4_setup()
    brace_tables = ideals._brace_tables

    def moved_root(G, psi):
        tables = brace_tables(G, psi)
        roots = tables["roots"].copy()
        roots[FAMILIES.index("(o,.)"), 4] = 5
        return {**tables, "roots": roots}

    monkeypatch.setattr(ideals, "_brace_tables", moved_root)
    subgroups = groups.enumerate_subgroups(G)
    disagree = []
    for H in subgroups:
        try:
            ideals.classify_subgroup(G, psi, H)
        except InternalConsistencyError as exc:
            assert f"H={H.members}:" in str(exc)
            disagree.append(H.members)
    assert disagree and disagree[0] != subgroups[0].members
    with pytest.raises(InternalConsistencyError) as exc:
        ideals.find_strong_left_ideals(G, psi)
    assert f"H={disagree[0]}:" in str(exc.value)
    assert "strong left ideal of (o,.): predicate True, direct False" in str(exc.value)


def test_agreement_column_compares_the_ideal_labels_too():
    """On inputs no psi gives, where both strong-left-ideal labels agree
    and only "ideal of (.,o)" differs, the one agreement column still
    flags the row, and the error names it and that label alone.  C4 with
    rows {e} and H = {0, 2}: K is false off e, so C1 fails on H; H is
    normal; the "o" partition is singletons, so H is normal in (G, o),
    and the gamma partitions join 1 and 2, which H splits."""
    G = groups.cyclic(4)
    subgroups = [groups.Subgroup(G, (0,)), groups.Subgroup(G, (0, 2))]
    masks = np.array([[True, False, False, False], [True, False, True, False]])
    commutes = np.zeros((2, 4), dtype=bool)
    commutes[:, 0] = True
    rows = {"masks": masks, "normal": np.array([True, True]), "commutes": commutes}
    merged = [0, 1, 1, 3]
    tables = {"phi": np.arange(4), "roots": np.array([[0, 1, 2, 3], merged, merged])}
    with pytest.raises(InternalConsistencyError) as exc:
        ideals._columns(G, tables, rows, subgroups)
    assert str(exc.value).endswith(
        "H=(0, 2): ideal of (.,o): predicate False, direct True")


def test_label_order_is_pinned_for_every_c1_c2():
    """The JSON of a verdict lists its labels in one fixed order for each
    (C1, C2), on the lattice route and the one-row route alike."""
    want = {(False, False): ([], []),
            (True, False): (["(o,.)", "(o',.)"], []),
            (False, True): (["(.',o)", "(.,o)"], []),
            (True, True): (["(o,.)", "(.',o)", "(.,o)", "(o',.)"],
                           ["(.,o)", "(.,o')", "(o',.)"])}
    seen = set()
    G = groups.dihedral(6)  # the one catalogue group with all four
    for psi in maps.enumerate_abelian_maps(G):
        for v in ideals.find_strong_left_ideals(G, psi):
            for got in (v.to_jsonable(),
                        ideals.classify_subgroup(G, psi, v.subgroup).to_jsonable()):
                key = (got["C1"], got["C2"])
                assert (got["strong_left_ideal_of"], got["ideal_of"]) == want[key]
                seen.add(key)
    assert seen == set(want)


RELABELED = {"D4": lambda: groups.dihedral(4), "D6": lambda: groups.dihedral(6),
             "Q8": quaternion_group, "S3": lambda: groups.symmetric(3),
             "C2xD4": lambda: groups.direct_product(groups.cyclic(2),
                                                    groups.dihedral(4))}


@functools.cache
def labelled_verdicts(name):
    """The group, its center, and per abelian map the verdicts keyed by
    member tuple, in builder order."""
    G = RELABELED[name]()
    verdicts = [(psi, {v.subgroup.members: v for v in
                       ideals.find_strong_left_ideals(G, psi)})
                for psi in maps.enumerate_abelian_maps(G)]
    return G, groups.center(G).members, verdicts


def check_relabeling(name, data):
    """Relabel by a permutation pi fixing 0 and rebuild the group from its
    table alone; normality, the center and every verdict for every abelian
    map must map across under pi, though the orbit roots need not."""
    G, center, verdicts = labelled_verdicts(name)
    pi = np.array([0] + data.draw(st.permutations(range(1, G.order))))
    back = np.argsort(pi)
    relabeled = groups.build_group({"kind": "table",
                                    "mul": pi[G.mul[back][:, back]].tolist()})
    assert relabeled.generators is None

    def image(members):
        return tuple(sorted(pi[list(members)].tolist()))

    assert groups.center(relabeled).members == image(center)
    for psi, by_members in verdicts:
        psi_pi = maps.make_map(relabeled, relabeled, pi[psi.image_of[back]].tolist())
        got = ideals.find_strong_left_ideals(relabeled, psi_pi)
        assert sorted(v.subgroup.members for v in got) == \
            sorted(image(m) for m in by_members)
        for v in got:
            want = by_members[tuple(sorted(back[list(v.subgroup.members)].tolist()))]
            assert groups.is_normal(relabeled, v.subgroup) == want.C2
            assert (v.C1, v.C2, v.strong_left_ideal_of, v.ideal_of) == \
                (want.C1, want.C2, want.strong_left_ideal_of, want.ideal_of)


@settings(max_examples=8, deadline=None)
@given(st.sampled_from(["D4", "D6", "Q8", "S3"]), st.data())
def test_verdicts_survive_relabeling(name, data):
    check_relabeling(name, data)


@settings(max_examples=1, deadline=None)  # 960 maps, about 2 s each labelling
@given(st.data())
def test_verdicts_survive_relabeling_c2xd4(data):
    check_relabeling("C2xD4", data)
