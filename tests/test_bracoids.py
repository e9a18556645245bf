import numpy as np
import pytest

from skewbracoid import braces, bracoids, groups, maps
from skewbracoid.errors import PreconditionError

from conftest import action_oracle, bracoid_oracle


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
            assert b.action[g, c] == cs.coset_of[G.op(g, x)]


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


def test_opposite_target_still_valid():
    G, psi = d4_setup()
    fix = groups.subgroup_generated(G, [G.index_of("rs")])
    b = bracoids.bracoid_from_C1(G, psi, fix, opposite=True)
    assert b.target.label == "o'"
    assert bracoid_oracle(b) is None


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


def test_find_contained_brace_enumerates():
    G, psi = d4_setup()
    fix = groups.subgroup_generated(G, [G.index_of("rs")])
    b = bracoids.bracoid_from_C1(G, psi, fix)
    K = bracoids.find_contained_brace(b)
    assert K is not None
    seen = {int(b.action[k, 0]) for k in K.members}
    assert len(seen) == b.target_order  # regular restriction


def test_find_contained_brace_prefers_provenance_candidates():
    G, psi = d4_setup()
    b = bracoids.phi_tower_bracoid(G, psi, 1)
    K = bracoids.find_contained_brace(b)
    assert K.members == tuple(b.provenance["target_members"])


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
            assert b.action[g, pos[int(phin[x])]] == pos[int(phin[G.op(g, x)])]
