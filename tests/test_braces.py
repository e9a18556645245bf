import itertools

import numpy as np
import pytest

from skewbracoid import braces, bracoids, corpus, groups, ideals, maps
from skewbracoid.errors import InternalConsistencyError, PreconditionError

from conftest import CATALOGUE, brace_oracle, circle_inverse, circle_product


def d4_setup():
    G = groups.dihedral(4)
    psi = maps.make_map(G, G, {"r": "rs", "s": "e"})
    return G, psi


def test_circle_table_matches_pointwise_formula():
    G, psi = d4_setup()
    circ = braces.circle_table(G, psi)
    for g in range(8):
        for h in range(8):
            assert circ.op[g, h] == circle_product(G, psi, g, h)
    assert circ.op[G.index_of("r"), G.index_of("s")] == G.index_of("r^3s")


def test_circle_inverse_closed_form():
    G, psi = d4_setup()
    circ = braces.circle_table(G, psi)
    for g in range(8):
        gbar = circle_inverse(G, psi, g)
        assert circ.op[g, gbar] == 0 and circ.op[gbar, g] == 0


def test_opposite_table_is_involution():
    G, _ = d4_setup()
    t = braces.table_of(G)
    opp = braces.opposite_table(t)
    assert opp.label == ".'"
    assert np.array_equal(braces.opposite_table(opp).op, t.op)
    assert opp.op[1, 4] == t.op[4, 1]


def test_certified_tables_pass_lights_test(monkeypatch):
    """Light's test is the oracle for the certificate: the circle table of
    every abelian map of the catalogue groups, its opposite, and every
    circle and opposite table that the corpus builds pass the group-table
    check, which finds the generating set that the certified group finds
    without it."""
    tables = []
    for name in ("circle_table", "opposite_table"):
        real = getattr(braces, name)
        monkeypatch.setattr(braces, name, lambda *a, real=real, **k: tables.append(real(*a, **k))
                            or tables[-1])
    assert corpus.run_all() and tables
    made_by_corpus = len(tables)
    psis = [psi for _, build in CATALOGUE for psi in maps.enumerate_abelian_maps(build())]
    assert len(psis) == 281
    for psi in psis:
        braces.opposite_table(braces.circle_table(psi.domain, psi))
    assert len(tables) == made_by_corpus + 2 * 281
    for t in tables:
        assert t.group.generators is None
        assert groups.verify_group_table(t.op) == t.group.generating_set()


def test_certificate_refuses_a_changed_cell():
    """A circle table with any one cell changed to any other element fails
    the phi or psi comparison, and so does the transpose of a nonabelian
    one, a group table that is not the table of o.  Some changes keep phi
    of the cell (ker phi is not trivial here) and some keep psi of it, so
    each comparison is needed."""
    G = groups.dihedral(6)
    psi = maps.make_map(G, G, {"r": "r^3", "s": "e"})
    im, phi = psi.image_of, maps.phi_of(psi)
    table = braces.circle_table(G, psi).op
    assert not np.array_equal(table, table.T) and (phi == 0).sum() > 1
    bad = [table.T.copy()]
    for g, h, shift in itertools.product(range(G.order), range(G.order), range(1, G.order)):
        bad.append(table.copy())
        bad[-1][g, h] = (table[g, h] + shift) % G.order
    for t in bad:
        with pytest.raises(InternalConsistencyError, match="is not multiplicative on"):
            braces._certified(t, G, phi, im)


def test_circle_table_takes_phi_from_psi_alone():
    """The certificate's premise g = phi(g) psi(g) holds because phi is
    computed from psi inside circle_table, so no caller can pass a phi:
    a zero phi with the trivial psi of D4 gave a certified table whose
    rows were all 0..7, not a group."""
    G = groups.dihedral(4)
    psi = maps.trivial_map(G)
    zero = np.zeros(G.order, dtype=np.int64)
    with pytest.raises(TypeError):
        braces.circle_table(G, psi, phi=zero)
    with pytest.raises(TypeError):
        braces.circle_table(G, psi, "o", zero)
    circ = braces.circle_table(G, psi)
    assert circ.label == "o" and np.array_equal(circ.op, G.mul)


def test_quotients_pass_lights_test(monkeypatch):
    """Light's test is the oracle for the congruence proof that makes each
    coset quotient a group unchecked: every quotient built on the catalogue
    groups of order <= 8 by the C1 and C2 targets, plain and opposite, the
    acting groups of their reductions, and `quotient_brace` by every ideal
    of (G, ., o), and G/[G, G] of every catalogue group, passes the
    group-table check, which finds the generating set the quotient finds."""
    made = {"G/[G, G]": [], "targets": [], "reduced": [], "braces": []}
    phase = "G/[G, G]"
    real = groups.CosetSpace.quotient

    def quotient(cs, op):
        made[phase].append(real(cs, op))
        return made[phase][-1]

    monkeypatch.setattr(groups.CosetSpace, "quotient", quotient)
    for _, build in CATALOGUE:
        G = build()
        phase = "G/[G, G]"
        psis = maps.enumerate_abelian_maps(G)
        if G.order > 8:
            continue
        for psi in psis:
            phase, bs = "targets", []
            for H in groups.enumerate_subgroups(G):
                for make in (bracoids.bracoid_from_C1, bracoids.bracoid_from_C2):
                    for opposite in (False, True):
                        try:
                            bs.append(make(G, psi, H, opposite=opposite))
                        except PreconditionError:
                            continue
            phase = "reduced"
            for b in bs:
                bracoids.reduce_bracoid(b)
            phase = "braces"
            brace = braces.make_brace(braces.table_of(G), braces.circle_table(G, psi))
            for v in ideals.find_strong_left_ideals(G, psi):
                if "(.,o)" in v.ideal_of:
                    braces.quotient_brace(brace, v.subgroup)
    assert all(made.values())
    for Q in itertools.chain(*made.values()):
        assert Q is not None and Q.generators is None
        assert groups.verify_group_table(Q.mul) == Q.generating_set()


def test_verify_brace_agrees_with_oracle():
    G, psi = d4_setup()
    dot = braces.table_of(G)
    circ = braces.circle_table(G, psi)
    for A, M in [(dot, circ), (circ, dot), (braces.opposite_table(dot), circ),
                 (braces.opposite_table(circ), dot)]:
        rep = braces.verify_brace(A, M)
        assert rep.holds and rep.checked == "exhaustive"
        assert brace_oracle(A.op, M.op) is None


def test_verify_brace_failure_witness_matches_oracle():
    # dihedral of order 12 admits abelian maps whose opposite pair fails;
    # every failing map must report the oracle's first witness
    G = groups.dihedral(6)
    A = braces.opposite_table(braces.table_of(G))
    failures = []
    for psi in maps.enumerate_abelian_maps(G):
        M = braces.opposite_table(braces.circle_table(G, psi))
        rep = braces.verify_brace(A, M)
        assert rep.failure == brace_oracle(A.op, M.op)
        assert rep.holds == (rep.failure is None)
        if not rep.holds:
            failures.append(rep.failure)
    assert len(failures) == 24
    # all 24 fail first at (1, 1, 1); swapping two cells in one row g of a
    # brace's multiplicative table moves the first failure to the g-slice
    dot = braces.table_of(G)
    M = braces.circle_table(G, maps.enumerate_abelian_maps(G)[1]).op
    for g, k1, k2 in [(1, 2, 7), (5, 0, 11), (9, 3, 4), (11, 6, 10)]:
        bad = np.array(M)
        bad[g, k1], bad[g, k2] = M[g, k2], M[g, k1]
        want = brace_oracle(dot.op, bad)
        assert want is not None and want[0] == g
        assert groups.relation_failure(bad, G, G.inv) == want


def test_make_brace_and_braces_from_map():
    G, psi = d4_setup()
    left, right = braces.braces_from_map(G, psi)
    assert left.additive.label == "." and left.multiplicative.label == "o"
    assert right.additive.label == "o" and right.multiplicative.label == "."
    bad = np.array(G.mul)
    bad[1, 1] = 0  # breaks the Latin property
    with pytest.raises(PreconditionError):  # so it never becomes a table
        groups.from_table(bad)


def test_gamma_family_values_and_failure():
    G, psi = d4_setup()
    brace, _ = braces.braces_from_map(G, psi)
    gamma = braces.gamma_family(brace)
    circ = brace.multiplicative.op
    for g in range(8):
        for h in range(8):
            assert gamma[g, h] == G.mul[G.inv[g], int(circ[g, h])]
    # gamma of a pair of groups that is not a brace must be rejected: C4,
    # and C4 with the indices 1 and 2 swapped
    C4, pi = groups.cyclic(4), np.array([0, 2, 1, 3])
    pair = braces.SkewBrace(braces.table_of(C4),
                            braces.OpTable(groups.from_table(pi[C4.mul[pi][:, pi]]), "x"))
    assert not braces.verify_brace(pair.additive, pair.multiplicative).holds
    with pytest.raises(PreconditionError):
        braces.gamma_family(pair)


def test_brace_block_depths_and_pairwise_relation():
    G, psi = d4_setup()
    tables = braces.brace_block(psi, 3)
    assert [t.label for t in tables] == [".", "o", "o_2", "o_3"]
    assert np.array_equal(tables[1].op, braces.circle_table(G, psi).op)
    for tm in tables:
        for tn in tables:
            assert brace_oracle(tm.op, tn.op) is None
    with pytest.raises(PreconditionError):
        braces.brace_block(psi, 99)


def test_quotient_brace_by_center():
    G, psi = d4_setup()
    brace, _ = braces.braces_from_map(G, psi)
    q = braces.quotient_brace(brace, (0, 2))  # <r^2>, an ideal here
    assert q.order == 4
    assert brace_oracle(q.additive.op, q.multiplicative.op) is None


def test_quotient_brace_rejects_bad_subset():
    G, psi = d4_setup()
    brace, _ = braces.braces_from_map(G, psi)
    with pytest.raises(PreconditionError):
        braces.quotient_brace(brace, (0, 1))  # not even a subgroup


def test_quotient_brace_rejects_subgroup_where_circle_is_ill_defined():
    # <r^3> is the centre of D6, so . is well-defined on its cosets; o is not
    G = groups.dihedral(6)
    psi = maps.make_map(G, G, {"r": "s", "s": "e"})
    brace, _ = braces.braces_from_map(G, psi)
    with pytest.raises(PreconditionError, match="operation 'o' is not well-defined"):
        braces.quotient_brace(brace, (0, 3))
