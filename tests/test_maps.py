import functools
import itertools
import json
import re
import tracemalloc

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from skewbracoid import corpus, groups, maps, serialize
from skewbracoid.errors import PreconditionError, WorkLimitError

from conftest import (CATALOGUE, _extend_by_bfs, brute_force_abelian_maps, circle_product,
                      quaternion_group)


def d4_psi():
    G = groups.dihedral(4)
    return G, maps.make_map(G, G, {"r": "rs", "s": "e"})


def test_make_map_from_generators_matches_explicit_formula():
    G, psi = d4_psi()
    rs = G.index_of("rs")
    # psi(r^i s^j) = (rs)^i, so image is rs for odd i and e otherwise
    for a in range(8):
        i = a % 4
        assert psi(a) == (rs if i % 2 else 0)


def test_make_map_rejects_non_homomorphism():
    G = groups.dihedral(4)
    with pytest.raises(PreconditionError):
        maps.make_map(G, G, [0] * 7)  # wrong length
    with pytest.raises(PreconditionError):
        maps.make_map(G, G, list(range(1, 9)))  # out of range / not a hom


EXTEND_MESSAGE = re.escape("generator images do not extend to a homomorphism "
                           "(or the given elements do not generate the domain)")


@pytest.mark.parametrize("images", [
    {"r": "s", "s": "r"},                 # s has order 2, its image r order 4
    {"r^2": "e", "s": "e"},               # a homomorphism of <r^2, s>, not of D4
    {"e": "r", "r": "e", "s": "e"},       # the identity sent to r
    {"e": "s"}])
def test_make_map_refusals_keep_their_message(images):
    G = groups.dihedral(4)
    assert _extend_by_bfs(G, G, [G.index_of(k) for k in images],
                          [G.index_of(v) for v in images.values()]) is None
    with pytest.raises(PreconditionError, match=f"^{EXTEND_MESSAGE}$"):
        maps.make_map(G, G, images)


def fixture_generator_maps():
    """(G, G', generator images) of every map that a corpus fixture gives
    by its generator images."""
    for name in corpus.FIXTURE_NAMES:
        fx = corpus.load_fixture(name)
        if "images" in fx.get("map", {}):
            G = groups.build_group(fx["group"])
            yield G, G, fx["map"]["images"]
        if "alpha" in fx:
            G1, G2 = groups.build_group(fx["g1"]), groups.build_group(fx["g2"])
            yield G1, G2, fx["alpha"]["images"]
            yield G2, G1, fx["beta"]["images"]


def test_make_map_agrees_with_bfs_on_fixture_maps():
    found = list(fixture_generator_maps())
    assert len(found) == 6
    for G, Gp, images in found:
        expected = _extend_by_bfs(G, Gp, [G.index_of(k) for k in images],
                                  [Gp.index_of(v) for v in images.values()])
        assert maps.make_map(G, Gp, images).image_of.tolist() == expected.tolist()


@pytest.mark.parametrize("order, images", [
    (4, [0, 1.9, 2, 3]), (4, [0, 1.0, 2, 3]), (2, [False, True]), (4, [0, "1", 2, 3]),
    (4, [0, True, 2, 3])])
def test_group_map_refuses_non_integer_images(order, images):
    C = groups.cyclic(order)
    # as integers these are the identity map, so only their type is at fault
    assert maps.GroupMap(C, C, np.asarray(images).astype(np.int64)).idempotent
    with pytest.raises(PreconditionError, match="image array has an entry that is not an integer"):
        maps.GroupMap(C, C, images)
    with pytest.raises(PreconditionError, match="not an integer"):
        maps.make_map(C, C, images)


@pytest.mark.parametrize("flag", ["abelian_image", "idempotent", "fixed_point_free"])
def test_group_map_takes_no_flags(flag):
    C4 = groups.cyclic(4)
    with pytest.raises(TypeError):
        maps.GroupMap(C4, C4, [0, 1, 2, 3], **{flag: False})


def test_map_between_different_groups_has_no_endomorphism_flags():
    f = maps.GroupMap(groups.cyclic(4), groups.cyclic(2), [0, 1, 0, 1])
    assert (f.abelian_image, f.idempotent, f.fixed_point_free) == (True, None, None)
    assert json.loads(serialize.export_json(f))["flags"] == {
        "is_hom": True, "abelian_image": True, "idempotent": None,
        "fixed_point_free": None}


def test_map_flags():
    G, psi = d4_psi()
    assert psi.abelian_image
    assert psi.idempotent
    assert not psi.fixed_point_free
    assert maps.trivial_map(G).fixed_point_free
    ident = maps.identity_map(G)
    assert not ident.abelian_image  # D4 is nonabelian
    assert ident.idempotent


def test_enumerate_abelian_maps_against_naive_search():
    G = groups.dihedral(4)
    found = maps.enumerate_abelian_maps(G)
    assert len(found) == len({tuple(f.image_of.tolist()) for f in found})

    # oracle: all 64 generator assignments, extended by the normal form
    # r^i s^j |-> a^i b^j and checked elementwise
    count = 0
    for a in range(8):
        for b in range(8):
            img = np.empty(8, dtype=np.int64)
            for g in range(8):
                i, j = g % 4, g // 4
                v = 0
                for _ in range(i):
                    v = G.mul[v, a]
                for _ in range(j):
                    v = G.mul[v, b]
                img[g] = v
            is_hom = all(img[G.mul[x, y]] == G.mul[img[x], img[y]]
                         for x in range(8) for y in range(8))
            if not is_hom:
                continue
            image = set(img.tolist())
            if all(G.mul[u, v] == G.mul[v, u] for u in image for v in image):
                count += 1
    assert len(found) == count == 28


def test_enumerate_abelian_maps_work_limit(monkeypatch):
    G = groups.symmetric(4)
    monkeypatch.setattr(maps, "ABELIAN_MAP_CANDIDATE_CAP", 10)
    # two generators, each with the 10 elements of S4 whose square is e
    with pytest.raises(WorkLimitError,
                       match="100 candidate assignments > cap 10"):
        maps.enumerate_abelian_maps(G)


# the groups of the benchmark's abmaps workload
ABMAPS_GROUPS = [
    ("D50", lambda: groups.dihedral(50)),
    ("C2xS4", lambda: groups.direct_product(groups.cyclic(2), groups.symmetric(4))),
    ("S5", lambda: groups.symmetric(5)),
    ("C2xD4", lambda: groups.direct_product(groups.cyclic(2), groups.dihedral(4)))]


def _images(found):
    return [f.image_of.tolist() for f in found]


@pytest.mark.parametrize("name, builder", CATALOGUE + ABMAPS_GROUPS)
def test_enumerate_abelian_maps_matches_brute_force(name, builder):
    G = builder()
    assert _images(maps.enumerate_abelian_maps(G)) == \
        _images(brute_force_abelian_maps(G))


@pytest.mark.parametrize("domain, codomain", [
    (lambda: groups.symmetric(3), lambda: groups.cyclic(6)),
    (lambda: groups.cyclic(4), lambda: groups.dihedral(4))])
def test_enumerate_abelian_maps_between_groups_matches_brute_force(domain, codomain):
    G, Gp = domain(), codomain()
    got = maps.enumerate_abelian_maps(G, Gp)
    assert got and all(f.codomain is Gp for f in got)
    assert _images(got) == _images(brute_force_abelian_maps(G, Gp))


def test_enumerate_abelian_maps_c8xs4():
    G = groups.direct_product(groups.cyclic(8), groups.symmetric(4))
    found = maps.enumerate_abelian_maps(G)
    assert len(found) == 1024
    keys = [tuple(f.image_of[list(G.generators)].tolist()) for f in found]
    assert all(a < b for a, b in zip(keys, keys[1:]))


def test_enumerate_abelian_maps_into_a_large_codomain_stays_small():
    G = groups.symmetric(3)
    Gp = groups.direct_product(groups.cyclic(500), groups.symmetric(3))
    tracemalloc.start()
    try:
        found = maps.enumerate_abelian_maps(G, Gp)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    # the transposition goes to one of the 8 elements of order <= 2, the
    # 3-cycle, a commutator, to e
    assert len(found) == 8
    assert peak < 2**20  # an order x order bool table would take 8.6 MiB


HOM_GROUPS = {"D4": lambda: groups.dihedral(4),
              "S3": lambda: groups.symmetric(3),
              # a table group without a generator list
              "Q8": lambda: groups.from_table(quaternion_group().mul),
              "C6": lambda: groups.cyclic(6)}


@functools.cache
def hom_setup(name):
    """G, its endomorphisms by conjugation and its abelian endomorphisms."""
    G = HOM_GROUPS[name]()
    idx = np.arange(G.order)
    homs = [G.mul[G.mul[g, idx], G.inv[g]] for g in range(G.order)]
    homs += [f.image_of for f in maps.enumerate_abelian_maps(G)]
    return G, homs


def _map_record(f):
    return (f.image_of.tolist(), f.abelian_image, f.idempotent, f.fixed_point_free,
            f.provenance, f.domain, f.codomain)


C2xD4 = dict(ABMAPS_GROUPS)["C2xD4"]
BLOCK_CASES = {
    "C2xD4": lambda: (C2xD4(), None),
    "D50": lambda: (groups.dihedral(50), None),
    "S3->C500xS3": lambda: (groups.symmetric(3),
                            groups.direct_product(groups.cyclic(500), groups.symmetric(3))),
    "Q8": lambda: (HOM_GROUPS["Q8"](), None)}


@pytest.mark.parametrize("block_bytes", [1, 4096])
@pytest.mark.parametrize("name", sorted(BLOCK_CASES))
def test_enumeration_does_not_depend_on_block_size(name, block_bytes, monkeypatch):
    """Blocks of one or a few choices give the maps, their order, flags and
    provenance of the default block size."""
    G, Gp = BLOCK_CASES[name]()
    default = [_map_record(f) for f in maps.enumerate_abelian_maps(G, Gp)]
    monkeypatch.setattr(groups, "SWEEP_BLOCK_BYTES", block_bytes)
    small = [_map_record(f) for f in maps.enumerate_abelian_maps(G, Gp)]
    assert small == default and len(default) > 1
    if name == "C2xD4":
        assert small == [_map_record(f) for f in brute_force_abelian_maps(G)]


@pytest.mark.parametrize("name", sorted(HOM_GROUPS) + ["C2xD4"])
def test_enumerated_maps_match_checked_maps_and_own_their_arrays(name):
    G = C2xD4() if name == "C2xD4" else HOM_GROUPS[name]()
    found = maps.enumerate_abelian_maps(G)
    for f, other in zip(found, found[1:] + found[:1]):
        checked = maps.GroupMap(G, G, f.image_of)
        assert (f.abelian_image, f.idempotent, f.fixed_point_free) == \
            (checked.abelian_image, checked.idempotent, checked.fixed_point_free)
        assert not f.image_of.flags.writeable and f.image_of.base is None
        assert len(found) == 1 or not np.shares_memory(f.image_of, other.image_of)


@settings(max_examples=60, deadline=None)
@given(data=st.data())
@pytest.mark.parametrize("name", sorted(HOM_GROUPS))
def test_homomorphism_check_matches_all_pairs(name, data):
    """GroupMap checks f(xa) = f(x) f(a) with a over generators only; it
    must accept exactly the image arrays that pass on all order^2 pairs."""
    G, homs = hom_setup(name)
    n = G.order
    kind = data.draw(st.sampled_from(["random", "hom", "corrupt", "non_generator"]))
    if kind == "random":
        im = np.array(data.draw(st.lists(st.integers(0, n - 1), min_size=n, max_size=n)))
    else:
        im = np.array(data.draw(st.sampled_from(homs)))
        # "non_generator" changes only images of elements outside the
        # generating set, so the generator images stay those of a homomorphism
        cells = [g for g in range(n)
                 if kind == "corrupt" or g not in G.generating_set()]
        for g in data.draw(st.lists(st.sampled_from(cells), min_size=1, max_size=2)):
            im[g] = data.draw(st.integers(0, n - 1))
    all_pairs = np.array_equal(im[G.mul], G.mul[im[:, None], im[None, :]])
    if all_pairs:
        assert np.array_equal(maps.GroupMap(G, G, im).image_of, im)
    else:
        with pytest.raises(PreconditionError, match="^map is not a homomorphism$"):
            maps.GroupMap(G, G, im)


def test_homomorphism_check_on_the_trivial_group():
    G = groups.from_table([[0]])  # its generating set is empty
    assert G.generating_set() == ()
    assert maps.identity_map(G).image_of.tolist() == [0]
    with pytest.raises(PreconditionError, match="not a homomorphism"):
        maps.GroupMap(G, groups.cyclic(2), np.array([1]))


def test_abelian_image_flag_matches_pairwise_check():
    for G in (groups.dihedral(4), groups.symmetric(3)):
        flags = []
        for a, b in itertools.product(range(G.order), repeat=2):
            try:
                f = maps.make_map(G, G, dict(zip(G.generators, (a, b))))
            except PreconditionError:
                continue
            img = f.image_members()
            flags.append(f.abelian_image)
            assert f.abelian_image == all(G.mul[x, y] == G.mul[y, x]
                                          for x in img for y in img)
        assert True in flags and False in flags


def test_map_analysis_named_sets():
    G, psi = d4_psi()
    analysis = maps.map_analysis(psi)
    assert [G.names[m] for m in analysis.kernel.members] == ["e", "r^2", "s", "r^2s"]
    assert [G.names[m] for m in analysis.fix.members] == ["e", "rs"]
    assert psi.image_members() == (0, G.index_of("rs"))


def test_circle_product_hand_values():
    G, psi = d4_psi()
    r, s = G.index_of("r"), G.index_of("s")
    # worked by hand from g o h = g psi(g^-1) h psi(g):
    # r o r = r(rs)r(rs) = e,  r o s = r(rs)s(rs) = r^3 s,  s o s = e
    assert circle_product(G, psi, r, r) == 0
    assert circle_product(G, psi, r, s) == G.index_of("r^3s")
    assert circle_product(G, psi, s, s) == 0
    # for g in ker psi the circle product degenerates to the group product
    for g in (0, 2, 4, 6):
        for h in range(8):
            assert circle_product(G, psi, g, h) == G.mul[g, h]


def test_phi_values_and_kernel():
    G, psi = d4_psi()
    phi = maps.phi_of(psi)
    for g in range(8):
        assert phi[g] == G.mul[g, psi(G.inv[g])]
    assert set(np.flatnonzero(phi == 0).tolist()) == {0, G.index_of("rs")}
    assert groups.Subgroup(G, phi).members == (0, 2, 4, 6)  # = ker psi here


def test_psi_iterate_recursion():
    G, psi = d4_psi()
    assert np.array_equal(maps.psi_iterate(psi, 0).image_of, np.zeros(8, dtype=np.int64))
    assert np.array_equal(maps.psi_iterate(psi, 1).image_of, psi.image_of)
    phi = maps.phi_of(psi)
    prev = maps.psi_iterate(psi, 1).image_of
    for n in (2, 3, 4):
        cur = maps.psi_iterate(psi, n).image_of
        for g in range(8):
            assert cur[g] == G.mul[psi(g), int(prev[phi[g]])]
        prev = cur
    with pytest.raises(PreconditionError):
        maps.psi_iterate(psi, -1)


def test_phi_power_is_composition():
    G, psi = d4_psi()
    phi = maps.phi_of(psi)
    composed = np.arange(8)
    for n in range(5):
        assert np.array_equal(maps.phi_power(psi, n), composed)
        composed = phi[composed]


def phi_powers_oracle(phi):
    """phi^0, phi^1, ... composed one step at a time, up to the first
    repeat, and the index at which the sequence starts to cycle."""
    powers, seen = [], {}
    power = tuple(range(len(phi)))
    while power not in seen:
        seen[power] = len(powers)
        powers.append(power)
        power = tuple(int(phi[x]) for x in power)
    return powers, seen[power]


@pytest.mark.parametrize("fixture", ["d4_psi", "d4xd4_tower"])
def test_phi_power_by_squaring_matches_step_by_step(fixture):
    fx = corpus.load_fixture(fixture)
    G = groups.build_group(fx["group"])
    psi = maps.make_map(G, G, fx["map"]["images"])
    phi = maps.phi_of(psi)
    step = np.arange(G.order)
    for n in range(41):
        assert np.array_equal(maps.phi_power(psi, n), step)
        step = phi[step]
    powers, start = phi_powers_oracle(phi)
    n = 10**12
    expected = powers[start + (n - start) % (len(powers) - start)]
    assert maps.phi_power(psi, n).tolist() == list(expected)


def test_product_swap_map_coordinates():
    G1 = groups.cyclic(4)
    G2 = groups.symmetric(3)
    alpha = maps.make_map(G1, G2, {"g": "102"})
    beta = maps.make_map(G2, G1, {"102": "g^2", "120": "e"})
    psi = maps.product_swap_map(alpha, beta)
    G = psi.domain
    assert G.order == 24
    for g1 in range(4):
        for g2 in range(6):
            got = psi(g1 + 4 * g2)
            assert got % 4 == beta(g2)
            assert got // 4 == alpha(g1)


def test_cyclic_chain_map():
    C2 = groups.cyclic(2)
    ident = maps.identity_map(C2)
    psi = maps.cyclic_chain_map([ident, ident, ident])
    G = psi.domain
    # coordinates are cyclically shifted by one slot
    for c0 in range(2):
        for c1 in range(2):
            for c2 in range(2):
                idx = c0 + 2 * c1 + 4 * c2
                assert psi(idx) == c2 + 2 * c0 + 4 * c1
    # a two-element chain coincides with the product swap
    C3 = groups.cyclic(3)
    a = maps.trivial_map(C2, C3)
    b = maps.trivial_map(C3, C2)
    swap = maps.product_swap_map(a, b)
    assert np.array_equal(maps.cyclic_chain_map([a, b]).image_of, swap.image_of)
    assert swap.provenance == "product_swap"
    assert swap.domain.factors == (C2, C3)


def test_left_regular_map():
    A = groups.cyclic(3)
    f = maps.left_regular_map(A)
    S = f.codomain
    assert S.order == 6
    perms = groups.symmetric_perms(3)
    image = {perms[m] for m in f.image_members()}
    assert image == {(0, 1, 2), (1, 2, 0), (2, 0, 1)}  # identity + both 3-cycles
    with pytest.raises(PreconditionError):
        maps.left_regular_map(groups.symmetric(3))
