import functools
import itertools
import json
import math
import re
import tracemalloc
from unittest import mock

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from skewbracoid import braces, cli, groups, ideals, maps, serialize
from skewbracoid.errors import (InternalConsistencyError, PreconditionError,
                                WorkLimitError)

from conftest import (CATALOGUE, brute_force_subgroups, c61_c10, element_orders_oracle,
                      commutator_closure_oracle, commutator_oracle, coset_space_oracle,
                      derived_series_oracle, dihedral_oracle,
                      extension_bfs_subgroups, normal_oracle, project_to_factor,
                      push_down_oracles, quaternion_group, semidirect_oracle,
                      symmetric_oracle, symmetric_rows_oracle)


def test_cyclic_matches_modular_addition():
    G = groups.cyclic(6)
    for a in range(6):
        for b in range(6):
            assert G.mul[a, b] == (a + b) % 6
    assert G.inv[2] == 4
    assert G.names[0] == "e" and G.names[1] == "g" and G.names[5] == "g^5"


def test_dihedral_relations():
    n = 4
    G = groups.dihedral(n)
    r, s = G.index_of("r"), G.index_of("s")
    # r^n = s^2 = (rs)^2 = e
    x = 0
    for _ in range(n):
        x = G.mul[x, r]
    assert x == 0
    assert G.mul[s, s] == 0
    rs = G.mul[r, s]
    assert G.mul[rs, rs] == 0
    # s r = r^-1 s
    assert G.mul[s, r] == G.mul[G.inv[r], s]
    assert G.names[G.mul[r, s]] == "rs"


def test_symmetric_composition_convention():
    G = groups.symmetric(3)
    perms = groups.symmetric_perms(3)
    for i, p in enumerate(perms):
        for j, q in enumerate(perms):
            composed = tuple(p[q[x]] for x in range(3))  # (p*q)(x) = p(q(x))
            assert perms[G.mul[i, j]] == composed
    assert perms[0] == (0, 1, 2)  # identity at index 0


def test_symmetric_generators_generate():
    G = groups.symmetric(4)
    assert len(groups.closure(G, G.generators)) == 24


def test_identity_is_index_zero_everywhere():
    for G in (groups.cyclic(5), groups.dihedral(3), groups.symmetric(3)):
        n = G.order
        assert np.array_equal(G.mul[0], np.arange(n))
        assert np.array_equal(G.mul[:, 0], np.arange(n))
        for g in range(n):
            assert G.mul[g, G.inv[g]] == 0


@pytest.mark.parametrize("build, value", [
    (lambda v: groups.from_table([[0, v], [v, 0]]), True),
    (lambda v: groups.from_table([[0, 1], [1, 0]], generators=[v, 1]), True),
    (lambda v: groups.from_table([[0, 1], [1, v]]), False),
    (lambda v: groups.from_table([[0, v], [v, 0]]), np.True_),
    (lambda v: serialize.parse_map({"image_array": [0, v]}, groups.cyclic(2)), True),
    (lambda v: maps.GroupMap(groups.cyclic(4), groups.cyclic(4), [0, v, 2, 3]), True),
], ids=["cell", "generator", "false_cell", "numpy_bool_cell", "image_array",
        "group_map"])
def test_booleans_mixed_with_integers_are_refused(build, value):
    """NumPy reads True among integers as 1, so these specs would pass as
    integers; each is refused, and the same spec with 1 or 0 is accepted."""
    build(int(value))
    with pytest.raises(PreconditionError, match="not an integer"):
        build(value)


def test_bad_table_rejected():
    with pytest.raises(PreconditionError):
        groups.from_table([[0, 1], [1, 1]])  # not a Latin square
    with pytest.raises(PreconditionError):
        groups.from_table([[1, 0], [0, 1]])  # identity not at 0
    with pytest.raises(PreconditionError, match="associativity"):
        # identity and right inverses, but 3 > log2(4) greedy generators
        groups.from_table([[0, 1, 2, 3], [1, 0, 2, 3], [2, 2, 0, 3], [3, 3, 3, 0]])


def test_generators_that_do_not_generate_rejected(capsys):
    c4 = ((np.arange(4)[:, None] + np.arange(4)[None, :]) % 4).tolist()
    assert groups.from_table(c4, generators=[3]).generators == (3,)
    for gens in ([2], [0, 2], []):
        with pytest.raises(PreconditionError, match="do not generate"):
            groups.from_table(c4, generators=gens)
    spec = json.dumps({"kind": "table", "mul": c4, "generators": [2]})
    assert cli.main(["group", "build", spec]) == 1
    assert "do not generate" in json.loads(capsys.readouterr().err)["message"]
    assert cli.main(["abmaps", "enumerate", spec]) == 1
    assert capsys.readouterr().out == ""


def _c1000_swapped_unsampled() -> np.ndarray:
    """C1000 with two cells of row 5 swapped, in cells that associativity
    sampling on 100k triples from default_rng(0) never reads."""
    n = 1000
    idx = np.arange(n)
    mul = (idx[:, None] + idx[None, :]) % n
    a, b, c = np.random.default_rng(0).integers(0, n, size=(3, 100_000))
    read = np.zeros((n, n), dtype=bool)
    read[a, b] = read[mul[a, b], c] = read[b, c] = read[a, mul[b, c]] = True
    c1, c2 = np.flatnonzero(~read[5, 1:])[:2] + 1
    mul[5, c1], mul[5, c2] = mul[5, c2], mul[5, c1]
    return mul


def test_large_non_associative_table_rejected(capsys):
    bad = _c1000_swapped_unsampled()
    with pytest.raises(PreconditionError, match="associativity"):
        groups.from_table(bad)
    spec = json.dumps({"kind": "table", "mul": bad.tolist()})
    assert cli.main(["group", "build", spec]) == 1
    assert capsys.readouterr().out == ""


@pytest.mark.parametrize("block_bytes", [1, 8 * 5 * 6 * 2, 8 * 5 * 6 * 64, 2**30])
def test_sweep_returns_first_failure_across_blocks(monkeypatch, block_bytes):
    # 8 * 5 * 6 * 64 bytes: blocks of 1, 2 and 4 of the 7 leading indices
    monkeypatch.setattr(groups, "SWEEP_BLOCK_BYTES", block_bytes)
    rng = np.random.default_rng(3)
    axes = (np.arange(7), np.array([0, 2, 3, 6, 8]), np.arange(6))
    for density in (0.0, 0.002, 0.05, 0.5):
        mask = rng.random((7, 9, 6)) < density
        want = next((t for t in itertools.product(*axes) if mask[t]), None)
        assert groups.sweep(lambda x, y, z: mask[x, y, z], axes) == want


@pytest.mark.parametrize("block_bytes,lengths", [
    (None, (192, 192, 192)),       # the order-192 braid sweep: 1, 2, 4, 8, then 14
    (None, (1000, 1000, 3)),
    (None, (5000, 1)),
    (1, (9, 4)),
    (8 * 7 * 127, (700, 7)),       # a cap of 127 rows, not a power of two
    (8 * 7 * 64 * 3, (1000, 7)),   # a first block of 3 rows
    (2**30, (50, 6, 6)),
])
def test_sweep_blocks_grow_from_a_64th_of_the_cap(monkeypatch, block_bytes, lengths):
    if block_bytes is not None:
        monkeypatch.setattr(groups, "SWEEP_BLOCK_BYTES", block_bytes)
    total = groups.SWEEP_BLOCK_BYTES
    axes = [np.arange(k) for k in lengths]
    row_bytes = 8 * math.prod(lengths[1:])
    cap = max(1, total // row_bytes)
    seen = []

    def bad(first, *rest):
        seen.append(first.ravel().copy())
        return np.zeros(np.broadcast_shapes(first.shape, *(r.shape for r in rest)), bool)

    assert groups.sweep(bad, axes) is None
    sizes = [len(s) for s in seen]
    assert sizes[0] <= max(1, (total // 64) // row_bytes)
    assert all(b <= min(2 * a, cap) for a, b in zip(sizes, sizes[1:]))
    assert np.array_equal(np.concatenate(seen), axes[0])
    # growth adds at most six calls to those of blocks of the cap alone
    assert len(sizes) <= -(-lengths[0] // cap) + 6


def test_direct_product_coordinates():
    A, B = groups.cyclic(4), groups.cyclic(2)
    G = groups.direct_product(A, B)
    assert G.order == 8
    for i1, j1, i2, j2 in itertools.product(range(4), range(2), range(4), range(2)):
        x = i1 + 4 * j1
        y = i2 + 4 * j2
        assert G.mul[x, y] == (i1 + i2) % 4 + 4 * ((j1 + j2) % 2)
    assert G.names[1 + 4 * 1] == "(g,g)"
    assert groups.factor_embedding(G, 0) == [0, 1, 2, 3]
    assert groups.factor_embedding(G, 1) == [0, 4]
    assert project_to_factor(G, 0, 7) == 3
    assert project_to_factor(G, 1, 7) == 1


def test_semidirect_gives_dihedral():
    base = groups.cyclic(5)
    acting = groups.cyclic(2)
    inv = [(5 - i) % 5 for i in range(5)]
    G = groups.semidirect(base, acting, [list(range(5)), inv])
    D = groups.dihedral(5)
    # same indexing convention: r^i at i, r^i s at 5+i
    assert np.array_equal(G.mul, D.mul)


@pytest.mark.parametrize("build", [
    lambda: groups.cyclic(6), lambda: groups.dihedral(5), lambda: groups.symmetric(4),
    lambda: groups.direct_product(groups.cyclic(2), groups.symmetric(3)),
    lambda: groups.semidirect(groups.cyclic(7), groups.cyclic(3), _multiplier_action(7, 3, 2)),
    lambda: groups.from_table(quaternion_group().mul.tolist()),
    quaternion_group])
def test_every_builder_computes_the_brute_force_inverses(build):
    G = build()
    brute = [next(b for b in range(G.order) if G.mul[a, b] == 0 and G.mul[b, a] == 0)
             for a in range(G.order)]
    assert G.inv.tolist() == brute and not G.inv.flags.writeable


def test_finite_group_takes_no_inverses():
    """`inv` is computed from the table.  A call that still passes it binds
    the inverses to `names` and is refused, instead of running with names
    or inverses that do not match the table."""
    C4 = groups.cyclic(4)
    with pytest.raises(PreconditionError, match="names must be a list of strings"):
        groups.FiniteGroup(C4.mul, np.arange(4), C4.names, (1,))
    with pytest.raises(TypeError):
        groups.FiniteGroup(C4.mul, C4.names, (1,), inv=np.arange(4))
    for names in (("e", "g"), ("e", "g", "g^2", 3), "eabc"):
        with pytest.raises(PreconditionError, match="names must be a list of strings"):
            groups.FiniteGroup(C4.mul, names)
    G = groups.FiniteGroup(C4.mul, list(C4.names), (1,))
    assert G.names == C4.names and G.inv.tolist() == [0, 3, 2, 1]


@pytest.mark.parametrize("block_bytes", [None, 1, 24, 100])
def test_inverses_in_row_blocks_match_one_block(monkeypatch, block_bytes):
    """Blocks of 1, 3 (24 bytes over 8 columns) or 12 rows give the inverses
    of one block, and a row without the identity reads 0 in any of them,
    so `verify_group_table` refuses it with the same message."""
    if block_bytes is not None:
        monkeypatch.setattr(groups, "SWEEP_BLOCK_BYTES", block_bytes)
    for G in (groups.dihedral(4), groups.symmetric(4), quaternion_group()):
        assert groups.inverses(G.mul).tolist() == G.inv.tolist()
    no_inverse = [[0, 1, 2], [1, 2, 1], [2, 1, 0]]  # row 1 has no 0
    assert groups.inverses(np.array(no_inverse)).tolist() == [0, 0, 2]
    with pytest.raises(PreconditionError, match="some element has no right inverse"):
        groups.from_table(no_inverse)


def test_inverses_peak_stays_within_two_blocks():
    """On an order-4,000 table, whose `mul == 0` would take 15.3 MiB at
    once, the peak is the result and at most two row blocks."""
    n = 4000
    a = np.arange(n, dtype=np.int16)
    mul = (a[:, None] + a) % np.int16(n)  # C_n, built before tracing
    tracemalloc.start()
    try:
        inv = groups.inverses(mul)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert inv.tolist() == [(n - x) % n for x in range(n)]
    assert peak < 8 * n + 2 * groups.SWEEP_BLOCK_BYTES


def test_semidirect_rejects_bad_action():
    base = groups.cyclic(4)
    acting = groups.cyclic(2)
    with pytest.raises(PreconditionError):
        groups.semidirect(base, acting, [list(range(4)), [0, 2, 1, 3]])
    with pytest.raises(PreconditionError):
        # nontrivial action of the identity
        groups.semidirect(base, acting, [[0, 3, 2, 1], list(range(4))])
    with pytest.raises(PreconditionError, match="homomorphism"):
        # x -> 2x has order 4 in Aut(C5), so C2 cannot act through it
        groups.semidirect(groups.cyclic(5), acting,
                          [list(range(5)), [2 * i % 5 for i in range(5)]])


def _multiplier_action(nb: int, na: int, m: int) -> list[list[int]]:
    """C_na acting on C_nb through x -> m^a x."""
    return [[pow(m, a, nb) * x % nb for x in range(nb)] for a in range(na)]


def _assert_same_group(G, H):
    assert np.array_equal(G.mul, H.mul) and G.mul.dtype == H.mul.dtype
    assert np.array_equal(G.inv, H.inv)
    assert G.names == H.names and G.generators == H.generators
    assert serialize.export_json(G) == serialize.export_json(H)


@pytest.mark.parametrize("n", range(1, 41))
def test_dihedral_matches_loop_oracle(n):
    _assert_same_group(groups.dihedral(n), dihedral_oracle(n))


@pytest.mark.parametrize("n", range(1, 7))
def test_symmetric_matches_loop_oracle(n):
    _assert_same_group(groups.symmetric(n), symmetric_oracle(n))


@pytest.mark.parametrize("block_bytes", [1, 8 * 120 * 5 * 7])
@pytest.mark.parametrize("n", [4, 5])
def test_symmetric_blocks_match_loop_oracle(monkeypatch, n, block_bytes):
    # one row per block, and blocks of 7 rows that do not divide 5! evenly
    monkeypatch.setattr(groups, "SWEEP_BLOCK_BYTES", block_bytes)
    _assert_same_group(groups.symmetric(n), symmetric_oracle(n))


def test_symmetric_7_matches_loop_oracle_on_sampled_rows():
    """Every 97th row of S7 (5040 elements), its names and its generators;
    the double loop runs on the sampled rows alone."""
    G, perms = groups.symmetric(7), groups.symmetric_perms(7)
    rows = range(0, 5040, 97)
    assert np.array_equal(G.mul[rows], symmetric_rows_oracle(7, rows))
    assert G.names == tuple("".join(map(str, p)) for p in perms)
    assert [perms[g] for g in G.generators] == [(1, 0, 2, 3, 4, 5, 6), (1, 2, 3, 4, 5, 6, 0)]


def test_symmetric_8_is_refused_before_its_rank_array():
    """S8's rank array (8^7 int64 keys, 16 MiB) is never allocated under
    the default cap; the cap test checks the message."""
    tracemalloc.start()
    try:
        with pytest.raises(PreconditionError):
            groups.symmetric(8)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak < 2**20


@pytest.mark.parametrize("nb,na,m", [(5, 2, 4), (7, 3, 2), (4, 2, 3), (61, 10, 3)])
def test_semidirect_matches_loop_oracle(nb, na, m):
    base, acting = groups.cyclic(nb), groups.cyclic(na)
    action = _multiplier_action(nb, na, m)
    _assert_same_group(groups.semidirect(base, acting, action),
                       semidirect_oracle(base, acting, action))


@pytest.mark.parametrize("build,order", [
    (lambda cap: groups.symmetric(8, order_cap=cap), 40320),
    (lambda cap: groups.direct_product(groups.cyclic(200), groups.cyclic(200),
                                       order_cap=cap), 40000),
    (lambda cap: groups.dihedral(10**5, order_cap=cap), 2 * 10**5),
    (lambda cap: groups.cyclic(20_000, order_cap=cap), 20_000),
    (lambda cap: groups.semidirect(groups.cyclic(200), groups.cyclic(200),
                                   [list(range(200))] * 200, order_cap=cap), 40000),
])
def test_builders_refuse_orders_over_the_cap(build, order):
    cap = groups.DEFAULT_ORDER_CAP
    with pytest.raises(PreconditionError, match=f"order {order} exceeds cap {cap}"):
        build(cap)
    with pytest.raises(PreconditionError, match=f"order {order} exceeds cap 100"):
        build(100)


def test_build_group_threads_its_cap_into_the_builders(monkeypatch):
    spec = {"kind": "product", "factors": [{"kind": "cyclic", "n": 200},
                                           {"kind": "dihedral", "n": 60}]}
    with pytest.raises(PreconditionError, match="order 24000 exceeds cap 10000"):
        groups.build_group(spec)
    caps = []
    check = groups._check_order
    monkeypatch.setattr(groups, "_check_order",
                        lambda order, cap: caps.append(cap) or check(order, cap))
    spec = {"kind": "product", "factors": [
        {"kind": "symmetric", "n": 3},
        {"kind": "semidirect", "base": {"kind": "cyclic", "n": 5},
         "acting": {"kind": "cyclic", "n": 2}, "action": _multiplier_action(5, 2, 4)}]}
    assert groups.build_group(spec, order_cap=77).order == 60
    # the whole spec checked once by build_group, then the five builders
    assert caps == [77] * 6


@pytest.mark.parametrize("bad", [{"kind": "cyclic", "n": 0}, {"kind": "dihedral", "n": -3},
                                 {"kind": "table", "mul": []}])
def test_build_group_caps_a_table_beside_a_part_of_order_below_one(monkeypatch, bad):
    """The whole spec's cap bounds each part, so a table part over the cap
    is refused before it is checked, whatever part of order < 1 sits beside
    it; each such part fails on its own."""
    checks = []
    monkeypatch.setattr(groups, "verify_group_table", lambda mul: checks.append(1))
    table = {"kind": "table", "mul": groups.cyclic(200).mul.tolist()}
    for spec in ({"kind": "product", "factors": [table, bad]},
                 {"kind": "semidirect", "base": table, "acting": bad, "action": []}):
        with pytest.raises(PreconditionError, match="order 200 exceeds cap 100"):
            groups.build_group(spec, order_cap=100)
    assert not checks
    monkeypatch.undo()
    with pytest.raises(PreconditionError):
        groups.build_group(bad)


def test_build_group_reads_the_whole_spec_before_building(monkeypatch):
    built = []
    for name in ("cyclic", "symmetric", "direct_product"):
        monkeypatch.setattr(groups, name, lambda *a, **k: built.append(a))
    spec = {"kind": "product", "factors": [
        {"kind": "cyclic", "n": 2},
        {"kind": "semidirect", "base": {"kind": "symmetric", "n": 5},
         "acting": {"kind": "cyclic", "n": 2}}]}
    with pytest.raises(PreconditionError, match="group spec needs 'action'"):
        groups.build_group(spec)
    assert not built


def test_build_group_specs():
    assert groups.build_group({"kind": "cyclic", "n": 7}).order == 7
    assert groups.build_group({"kind": "dihedral", "n": 4}).order == 8
    assert groups.build_group({"kind": "symmetric", "n": 4}).order == 24
    G = groups.build_group({"kind": "product",
                            "factors": [{"kind": "cyclic", "n": 2},
                                        {"kind": "cyclic", "n": 3}]})
    assert G.order == 6 and G.is_abelian()
    with pytest.raises(PreconditionError):
        groups.build_group({"kind": "cyclic", "n": 100}, order_cap=50)
    with pytest.raises(PreconditionError):
        groups.build_group({"kind": "mystery"})


@pytest.mark.parametrize("builder,expected", [
    (lambda: groups.dihedral(4), 10),
    (lambda: groups.symmetric(3), 6),
    (lambda: groups.cyclic(4), 3),
])
def test_subgroup_enumeration_counts(builder, expected):
    G = builder()
    subs = groups.enumerate_subgroups(G)
    assert len(subs) == expected
    assert sorted(s.members for s in subs) == sorted(brute_force_subgroups(G))


def test_subgroup_validation():
    G = groups.dihedral(4)
    with pytest.raises(PreconditionError):
        groups.Subgroup(G, (0, 1))  # not closed: r has order 4
    with pytest.raises(PreconditionError):
        groups.Subgroup(G, (1, 2))  # missing the identity
    H = groups.Subgroup(G, (0, 4))
    assert H.order == 2 and 4 in H.members and 1 not in H.members


@pytest.mark.parametrize("value", [2.9, 2.0, np.float64(2.0), True, np.True_])
def test_non_integer_members_and_generators_are_refused(value):
    """A float or bool member or generator is refused, not truncated to an
    index: int(2.9) is 2 and int(True) is 1."""
    G = groups.cyclic(4)
    with pytest.raises(PreconditionError, match="subgroup member .* is not an integer"):
        groups.Subgroup(G, (0, value, 2, 3))
    with pytest.raises(PreconditionError, match="generator .* is not an integer"):
        groups.closure(G, [value])
    assert groups.Subgroup(G, (0, np.int64(2))).members == groups.closure(G, [np.int64(2)])


@pytest.mark.parametrize("builder, members, message", [
    (lambda: groups.dihedral(4), (0, 1), "subgroup not closed under inversion"),
    (lambda: groups.dihedral(4), (1, 2), "subgroup must contain the identity"),
    (lambda: groups.dihedral(4), (), "subgroup must contain the identity"),
    (lambda: groups.dihedral(4), (0, 8), "subgroup member index out of range"),
    # s * rs = r^3 leaves the set; every inverse stays in it
    (lambda: groups.dihedral(4), (0, 4, 5),
     "subgroup not closed under multiplication"),
    # g^3 * g^4 = g leaves the set before g^4's inverse g^2 is looked at
    (lambda: groups.cyclic(6), (0, 3, 4),
     "subgroup not closed under multiplication"),
    # g's inverse g^3 is looked at before the product g * g = g^2
    (lambda: groups.cyclic(4), (0, 1), "subgroup not closed under inversion"),
    (lambda: groups.cyclic(4), (0, 1, 2), "subgroup not closed under inversion"),
])
def test_subgroup_rejection_messages(builder, members, message):
    """The first member in index order whose inverse or product with some
    member leaves the set decides the message, inverse first."""
    with pytest.raises(PreconditionError) as exc:
        groups.Subgroup(builder(), members)
    assert str(exc.value) == message


def test_subgroup_and_normality_checks_stay_small_on_large_groups():
    G = groups.cyclic(3000)  # its 72 MB table is built outside the trace
    tracemalloc.start()
    try:
        H = groups.Subgroup(G, tuple(range(G.order)))
        normal = groups.is_normal(G, H)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert normal and H.order == 3000
    assert peak < 32 * 2**20


def _c8xs4():
    return groups.direct_product(groups.cyclic(8), groups.symmetric(4))


LARGER = [("C2xD4", lambda: groups.direct_product(groups.cyclic(2), groups.dihedral(4))),
          ("S4", lambda: groups.symmetric(4)),
          ("D4xD4", lambda: groups.direct_product(groups.dihedral(4),
                                                  groups.dihedral(4)))]


@pytest.mark.parametrize("name, builder", CATALOGUE + LARGER)
def test_lattice_matches_extension_oracle(name, builder):
    G = builder()
    got = [s.members for s in groups.enumerate_subgroups(G)]
    want = [s.members for s in extension_bfs_subgroups(G)]
    assert got == want
    if name == "D4xD4":
        assert len(got) == 389


def _count_joins(monkeypatch):
    calls = []
    join = groups._join
    monkeypatch.setattr(groups, "_join",
                        lambda *args: calls.append(args) or join(*args))
    return calls


@pytest.mark.parametrize("name, builder", [
    ("D4xD4", lambda: groups.direct_product(groups.dihedral(4), groups.dihedral(4))),
    ("C8xS4", _c8xs4)])
def test_solvable_lattice_never_joins(monkeypatch, name, builder):
    """In a solvable group every extension is by a normalizing zuppo, a
    product of cosets."""
    calls = _count_joins(monkeypatch)
    subs = groups.enumerate_subgroups(builder())
    assert not calls
    assert len(subs) == {"D4xD4": 389, "C8xS4": 246}[name]


def test_s5_lattice_within_default_work_limit(monkeypatch):
    """S5 is not solvable: A5 and S5 are reached only by joins."""
    calls = _count_joins(monkeypatch)
    subs = groups.enumerate_subgroups(groups.symmetric(5))
    assert calls
    assert len(subs) == 156
    assert [s.order for s in subs].count(60) == 1  # A5, which is perfect
    assert subs[-1].order == 120


@pytest.mark.parametrize("n", [4, 5])
@settings(max_examples=1, deadline=None)
@given(data=st.data())
def test_lattice_survives_relabeling(n, data):
    """S4 and S5 as table groups without generators, relabeled by a
    permutation fixing 0, have the image of the original lattice."""
    G = groups.symmetric(n)
    pi = np.array([0] + data.draw(st.permutations(range(1, G.order))))
    back = np.argsort(pi)
    relabeled = groups.build_group({"kind": "table",
                                    "mul": pi[G.mul[back][:, back]].tolist()})
    assert relabeled.generators is None
    want = sorted((tuple(sorted(pi[list(s.members)].tolist()))
                   for s in groups.enumerate_subgroups(G)),
                  key=lambda m: (len(m), m))
    assert [s.members for s in groups.enumerate_subgroups(relabeled)] == want


@pytest.mark.parametrize("n", [12, 30, 50])
def test_dihedral_lattice_size(n):
    """D_n of order 2n has tau(n) + sigma(n) subgroups: for each divisor d
    of n, the rotations of order d and n/d reflection subgroups of order 2d."""
    divisors = [d for d in range(1, n + 1) if n % d == 0]
    subs = groups.enumerate_subgroups(groups.dihedral(n))
    assert len(subs) == len(divisors) + sum(divisors)


def test_c61_c10_lattice_within_default_work_limit():
    """Order 610, whose lattice took more than the default work limit by
    joins; the histogram was recorded with the limit raised."""
    subs = groups.enumerate_subgroups(c61_c10())
    assert len(subs) == 188
    orders = [s.order for s in subs]
    assert {o: orders.count(o) for o in orders} == {
        1: 1, 2: 61, 5: 61, 10: 61, 61: 1, 122: 1, 305: 1, 610: 1}


def test_lattice_work_limit_still_applies(monkeypatch):
    """The error says how far the enumeration got.  The cyclic subgroups of
    prime-power order come first, so a small limit stops before the
    lattice has any subgroup."""
    for limit, work, found in [(100, 104, 17), (20, 24, 0)]:
        monkeypatch.setattr(groups, "SUBGROUP_WORK_LIMIT", limit)
        with pytest.raises(WorkLimitError) as exc:
            groups.enumerate_subgroups(groups.symmetric(4))
        assert str(exc.value) == (
            f"subgroup enumeration work limit exceeded: work {work} > limit "
            f"{limit}, {found} subgroups found so far")


@pytest.mark.parametrize("block_bytes", [None, 64])
@pytest.mark.parametrize("name, limit, work, found", [
    ("S5", 1000, 1050, 52), ("S5", 3000, 3066, 77),
    ("C2^6", groups.SUBGROUP_WORK_LIMIT, 1000004, 2697)])
def test_lattice_work_limit_messages_follow_the_order_layers(
        monkeypatch, block_bytes, name, limit, work, found):
    """The messages of extending the subgroups of one order after another,
    each layer's (subgroup, zuppo) pairs in row-major order: S5 is not
    solvable, so its layers join, and C2^6 stops at the default limit.  They
    do not depend on the block size: 64-byte blocks hold one pair each."""
    G = groups.symmetric(5) if name == "S5" else groups.direct_product(*[groups.cyclic(2)] * 6)
    monkeypatch.setattr(groups, "SUBGROUP_WORK_LIMIT", limit)
    if block_bytes:
        monkeypatch.setattr(groups, "SWEEP_BLOCK_BYTES", block_bytes)
    with pytest.raises(WorkLimitError) as exc:
        groups.enumerate_subgroups(G)
    assert str(exc.value) == (
        f"subgroup enumeration work limit exceeded: work {work} > limit "
        f"{limit}, {found} subgroups found so far")


def test_lattice_refusal_holds_the_keys_found_and_a_few_blocks(monkeypatch):
    """Up to the work limit the enumeration holds the `np.packbits` key of
    each subgroup found, a few hundred bytes of bookkeeping per subgroup and
    a few blocks of SWEEP_BLOCK_BYTES, however many (subgroup, zuppo) pairs a
    layer has: C2^11's order-2 layer has 2047 subgroups and 2047 zuppos,
    about 4.2M pairs, whose pair index alone would take 64 MiB.  The limit
    is lowered to keep the traced run short; the bound is per subgroup
    found, so it holds at any limit."""
    G = groups.direct_product(*[groups.cyclic(2)] * 11)  # its 32 MiB table is built outside the trace
    monkeypatch.setattr(groups, "SUBGROUP_WORK_LIMIT", 30_000)
    tracemalloc.start()
    try:
        with pytest.raises(WorkLimitError) as exc:
            groups.enumerate_subgroups(G)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    found = int(re.search(r"(\d+) subgroups found", str(exc.value))[1])
    assert peak < 4 * groups.SWEEP_BLOCK_BYTES + found * (G.order // 8 + 512)


@pytest.mark.parametrize("name, builder, threshold", [
    ("S4", lambda: groups.symmetric(4), 756),
    ("D4xD4", lambda: groups.direct_product(groups.dihedral(4), groups.dihedral(4)), 150_932),
    ("C2^5", lambda: groups.direct_product(*[groups.cyclic(2)] * 5), 113_956),
    ("S5", lambda: groups.symmetric(5), 397_900)])
def test_lattice_work_limit_refuses_by_total_work(monkeypatch, name, builder, threshold):
    """Every closure and every (subgroup, zuppo) pair costs its work once, in
    whatever order they run, so the least limit that lets the enumeration
    finish is the total work: one less stops at the last pair."""
    monkeypatch.setattr(groups, "SUBGROUP_WORK_LIMIT", threshold - 1)
    with pytest.raises(WorkLimitError, match=f"work {threshold} > limit {threshold - 1},"):
        groups.enumerate_subgroups(builder())
    monkeypatch.setattr(groups, "SUBGROUP_WORK_LIMIT", threshold)
    G = builder()
    assert groups.enumerate_subgroups(G)[-1].order == G.order


MIXED_LAYERS = {"D10": lambda: groups.dihedral(10),
                "S3xS3": lambda: groups.direct_product(groups.symmetric(3), groups.symmetric(3)),
                "S5": lambda: groups.symmetric(5)}


@functools.cache
def _extension_oracle(name):
    return [s.members for s in extension_bfs_subgroups(MIXED_LAYERS[name](), work_limit=10**8)]


@pytest.mark.parametrize("block_bytes", [64, 4096])
@pytest.mark.parametrize("name", list(MIXED_LAYERS))
def test_layers_whose_subgroups_skipped_orders_match_extension_oracle(monkeypatch, name,
                                                                      block_bytes):
    """A layer's subgroups may have been reached through different orders
    on the way: D10's order-10 layer holds C10, reached from the centre C2,
    and the two D5, reached from C5, and S3xS3's order-18 layer mixes
    likewise.  S5 is not solvable, and its joins skip orders (D4 from C2,
    A5).  64-byte blocks hold one pair each."""
    monkeypatch.setattr(groups, "SWEEP_BLOCK_BYTES", block_bytes)
    got = [s.members for s in groups.enumerate_subgroups(MIXED_LAYERS[name]())]
    assert got == _extension_oracle(name)


@pytest.mark.parametrize("block_bytes", [64, 4096])
@pytest.mark.parametrize("builder", [
    lambda: groups.direct_product(groups.dihedral(4), groups.dihedral(4)),
    lambda: groups.symmetric(5), c61_c10], ids=["D4xD4", "S5", "C61xC10"])
def test_lattice_in_split_candidate_blocks_is_unchanged(monkeypatch, block_bytes, builder):
    """Blocks of one (subgroup, zuppo) pair (64 bytes), or of a few (4 KiB),
    give the same lattice as the default blocks of a few MiB."""
    want = [H.members for H in groups.enumerate_subgroups(builder())]
    monkeypatch.setattr(groups, "SWEEP_BLOCK_BYTES", block_bytes)
    assert [H.members for H in groups.enumerate_subgroups(builder())] == want


def test_lattice_is_computed_once_per_group(monkeypatch):
    calls = []
    closure = groups.closure
    monkeypatch.setattr(groups, "closure",
                        lambda G, gens: calls.append(gens) or closure(G, gens))
    G = groups.dihedral(6)
    first = groups.enumerate_subgroups(G)
    assert calls
    calls.clear()
    first.clear()
    second = groups.enumerate_subgroups(G)
    assert not calls
    assert [s.members for s in second] == sorted(brute_force_subgroups(G),
                                                 key=lambda m: (len(m), m))
    # another group object computes its own lattice
    groups.enumerate_subgroups(groups.dihedral(6))
    assert calls


@pytest.mark.parametrize("n", [4, 6])
def test_predicates_match_scalar_oracles(n):
    G = groups.dihedral(n)
    everything = range(G.order)
    subs = groups.enumerate_subgroups(G)
    for H in subs:
        assert groups.is_normal(G, H) == normal_oracle(G.mul, G.inv, H.members)
        assert groups.commutator_condition(G, everything, H) == \
            commutator_oracle(G, everything, H.members)
    for psi in maps.enumerate_abelian_maps(G):
        phi = maps.phi_of(psi)
        for H in subs:
            phiH = sorted({int(phi[h]) for h in H.members})
            assert groups.commutator_condition(G, phiH, H) == \
                commutator_oracle(G, phiH, H.members)


@pytest.mark.parametrize("builder", [lambda: groups.dihedral(6), lambda: groups.symmetric(4),
                                     quaternion_group, c61_c10])
def test_lattice_predicates_match_one_row_calls(builder):
    """A stack of member masks gives one verdict per row: the lattice record
    (normality and the commutator-containment matrix K, cached once) agrees
    with the one-row calls, and K read at any element sets agrees with K
    computed for the stack alone."""
    G = builder()
    subs = groups.enumerate_subgroups(G)
    lattice = groups.subgroup_lattice(G)
    masks = lattice["masks"]
    assert lattice is groups.subgroup_lattice(G)
    assert [tuple(np.flatnonzero(m).tolist()) for m in masks] == [H.members for H in subs]
    assert lattice["normal"].tolist() == [groups.is_normal(G, H) for H in subs]
    S = np.where(masks, np.roll(np.arange(G.order), 1), 0)
    one_row = [groups.commutator_condition(G, S[r], H) for r, H in enumerate(subs)]
    assert groups.commutator_condition(G, S, masks).tolist() == one_row
    assert groups.commutator_condition(G, S, masks, lattice["commutes"]).tolist() == one_row
    if G.order <= 24:
        assert one_row == [commutator_oracle(G, S[r], H.members) for r, H in enumerate(subs)]


def test_lattice_record_built_in_small_blocks_is_unchanged(monkeypatch):
    """The blocked gathers (K by blocks of elements, the orbit roots by
    blocks of g) give the same record and verdicts with tiny blocks."""
    G = groups.symmetric(4)
    psis = maps.enumerate_abelian_maps(G)
    want = groups.subgroup_lattice(G)
    verdicts = [[v.to_jsonable() for v in ideals.find_strong_left_ideals(G, psi)] for psi in psis]
    monkeypatch.setattr(groups, "SWEEP_BLOCK_BYTES", 64)
    G = groups.symmetric(4)
    got = groups.subgroup_lattice(G)
    for key in ("masks", "normal", "commutes"):
        assert np.array_equal(got[key], want[key])
    assert [[v.to_jsonable() for v in ideals.find_strong_left_ideals(G, psi)]
            for psi in maps.enumerate_abelian_maps(G)] == verdicts


def test_closure_matches_naive_word_enumeration():
    G = groups.symmetric(3)
    for gens in [(1,), (3,), (1, 3), ()]:
        # words up to length |G| over the generators and their inverses
        reachable = {0}
        alphabet = set(gens) | {int(G.inv[g]) for g in gens}
        for _ in range(G.order):
            reachable |= {int(G.mul[x, g]) for x in reachable for g in alphabet}
        assert set(groups.closure(G, gens)) == reachable


def test_center_and_normality():
    G = groups.dihedral(4)
    assert groups.center(G).members == (0, 2)  # {e, r^2}
    rot = groups.subgroup_generated(G, [1])
    assert groups.is_normal(G, rot)
    refl = groups.subgroup_generated(G, [4])
    assert not groups.is_normal(G, refl)
    S = groups.symmetric(3)
    assert groups.center(S).members == (0,)


@pytest.mark.parametrize("name, builder", CATALOGUE + LARGER)
def test_center_and_classes_match_oracles(name, builder):
    """The classes against x -> min over g of g x g^-1, and the center
    against the elements whose row and column of the table agree."""
    G = builder()
    idx = np.arange(G.order)
    roots = G.mul[G.mul[idx[:, None], idx], G.inv[:, None]].min(axis=0)
    assert np.array_equal(groups._classes(G)[0], roots)
    assert groups.center(G).members == tuple(
        g for g in range(G.order) if np.array_equal(G.mul[g], G.mul[:, g]))


def orbit_oracle(rows, n):
    """Least point of each orbit of the permutations `rows`, by search."""
    roots = list(range(n))
    for x in range(n):
        orbit, frontier = {x}, [x]
        while frontier:
            frontier = [int(p[y]) for y in frontier for p in rows
                        if int(p[y]) not in orbit]
            orbit.update(frontier)
        roots[x] = min(orbit)
    return roots


@settings(max_examples=60, deadline=None)
@given(st.integers(1, 12).flatmap(lambda n: st.lists(
    st.permutations(range(n)), max_size=4)), st.sampled_from([1, 8 * 12, 2**22]))
def test_orbit_roots_match_search(rows, block_bytes):
    """Any permutations, not only sets closed under inverses, made one row
    per block, a few rows per block, or all at once."""
    n = len(rows[0]) if rows else 5
    P = np.array(rows, dtype=np.int64).reshape(len(rows), n)
    with mock.patch.object(groups, "SWEEP_BLOCK_BYTES", block_bytes):
        got = groups.orbit_roots(lambda r: P[r], len(rows), n)
    assert got.tolist() == orbit_oracle(rows, n)


def test_class_predicates_stay_small_on_large_groups():
    G = groups.dihedral(1500)  # its 72 MB table is built outside the trace
    rotations = groups.Subgroup(G, tuple(range(1500)))
    reflection = groups.Subgroup(G, (0, 1500))
    tracemalloc.start()
    try:
        commutes = groups.commutator_condition(G, range(G.order), rotations)
        normal = groups.is_normal(G, rotations)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert commutes and normal
    assert not groups.commutator_condition(G, range(G.order), reflection)
    assert not groups.is_normal(G, reflection)
    assert peak < 32 * 2**20


def test_commutator_condition():
    G = groups.dihedral(4)
    zentrum = groups.center(G)
    # [G, G] = <r^2> for D4, so commutators always land in the center
    assert groups.commutator_condition(G, range(G.order), zentrum)
    refl = groups.subgroup_generated(G, [4])
    assert not groups.commutator_condition(G, range(G.order), refl)


def test_coset_space_partitions():
    G = groups.dihedral(4)
    H = groups.subgroup_generated(G, [5])  # <rs>
    cs = groups.coset_space(G, H)
    assert len(cs.representatives) == 4
    assert sorted(cs.coset_of.tolist()).count(0) == H.order
    for g in range(G.order):
        for h in H.members:
            assert cs.coset_of[G.mul[g, h]] == cs.coset_of[g]
    # representatives are the minimal member of their coset
    for c, rep in enumerate(cs.representatives):
        assert rep == min(np.flatnonzero(cs.coset_of == c))
    assert json.loads(serialize.export_json(cs))["representatives"] == [0, 1, 2, 3]
    # the product is well-defined on the cosets of a normal subgroup only
    assert cs.quotient(G.mul) is None
    Z = groups.coset_space(G, groups.center(G))
    reps = Z.representatives.tolist()
    assert Z.quotient(G.mul).mul.tolist() == [
        [Z.coset_of[G.mul[x, y]] for y in reps] for x in reps]


@pytest.mark.parametrize("name, builder", CATALOGUE + LARGER[:1])
def test_coset_space_matches_loop_oracle(name, builder):
    """Every subgroup's cosets, numbered and represented as the loop over G
    numbers and represents them."""
    G = builder()
    for H in groups.enumerate_subgroups(G):
        cs = groups.coset_space(G, H)
        assert (cs.coset_of.tolist(), cs.representatives.tolist()) == \
            coset_space_oracle(G, H.members)


@pytest.mark.parametrize("name, builder", [
    ("D4", lambda: groups.dihedral(4)), ("S3", lambda: groups.symmetric(3)), LARGER[0]])
def test_push_downs_match_oracles(name, builder):
    """action, rows and quotient on the cosets of every subgroup, for the
    group's table, its transpose and the circle tables of its abelian maps,
    equal the scalar oracles, None included: a non-normal H leaves the
    product ill-defined, right multiplication is no action on left cosets,
    and the rows of a table need not be uniform on cosets."""
    G = builder()
    ops = [G.mul, G.mul.T] + [braces.circle_table(G, psi).op
                              for psi in maps.enumerate_abelian_maps(G)[:6]]
    seen = set()
    for H in groups.enumerate_subgroups(G):
        cs = groups.coset_space(G, H)
        for op in ops:
            action, rows, induced = push_down_oracles(cs.coset_of, cs.representatives, op)
            got = cs.action(op), cs.rows(op), cs.quotient(op)
            assert [None if g is None else g.tolist() for g in got[:2]] == [action, rows]
            assert (None if got[2] is None else got[2].mul.tolist()) == induced
            seen.update((i, v is None) for i, v in enumerate((action, rows, induced)))
    assert seen == {(i, none) for i in range(3) for none in (True, False)}


def test_generating_set_of_a_table_group_is_computed_once(monkeypatch):
    G = groups.from_table(groups.dihedral(5).mul)
    calls = []
    check = groups.verify_group_table
    monkeypatch.setattr(groups, "verify_group_table",
                        lambda mul: calls.append(1) or check(mul))
    gens = G.generating_set()
    maps.identity_map(G)
    maps.trivial_map(G)
    assert G.generating_set() == gens and not calls
    groups.require_generating(G.mul, gens)


@settings(max_examples=30, deadline=None)
@given(st.sampled_from([3, 4, 5, 6]), st.lists(st.integers(0, 11), max_size=3))
def test_closure_is_always_a_subgroup(n, gens):
    G = groups.dihedral(n)
    gens = [g % G.order for g in gens]
    H = groups.subgroup_generated(G, gens)
    assert G.order % H.order == 0
    mset = H.member_set()
    assert all(int(G.mul[a, b]) in mset for a in H.members for b in H.members)


@pytest.mark.parametrize("name, builder", CATALOGUE + LARGER + [
    ("S5", lambda: groups.symmetric(5)), ("C8xS4", lambda: _c8xs4()),
    ("C1", lambda: groups.cyclic(1))])
def test_derived_subgroup_matches_all_commutators(name, builder):
    G = builder()
    assert tuple(groups.derived_subgroup(G).tolist()) == \
        commutator_closure_oracle(G, range(G.order))


SOLVABLE = CATALOGUE + LARGER + [("C8xS4", _c8xs4), ("C61xC10", c61_c10),
                                 ("C1", lambda: groups.cyclic(1))]
NOT_SOLVABLE = [("S5", lambda: groups.symmetric(5)),
                ("C2xS5", lambda: groups.direct_product(groups.cyclic(2),
                                                        groups.symmetric(5)))]


@pytest.mark.parametrize("name, builder", SOLVABLE + NOT_SOLVABLE)
def test_derived_series_matches_commutator_closures(name, builder):
    """Each term is the closure of all commutators of the term before; the
    series ends at 1 exactly for the solvable groups."""
    G = builder()
    series = [tuple(t.tolist()) for t in groups.derived_series(G)]
    assert series == derived_series_oracle(G)
    assert (len(series[-1]) == 1) == ((name, builder) in SOLVABLE)
    if name == "S5":
        assert [len(t) for t in series] == [60, 60]  # A5 is perfect


@pytest.mark.parametrize("name, builder", CATALOGUE + [
    ("C1", lambda: groups.cyclic(1)), ("S5", lambda: groups.symmetric(5)),
    ("C61xC10", c61_c10),
    ("C500xS3", lambda: groups.direct_product(groups.cyclic(500), groups.symmetric(3)))])
def test_element_orders_match_powering_oracle(name, builder):
    G = builder()
    assert groups.element_orders(G.mul).tolist() == element_orders_oracle(G.mul).tolist()


def test_derived_subgroup_stays_small_on_large_groups():
    G = groups.direct_product(groups.cyclic(500), groups.symmetric(3))
    tracemalloc.start()
    try:
        derived = groups.derived_subgroup(G)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert derived.tolist() == [0, 1500, 2000]  # A3 in the second factor
    assert peak < 2**20  # an order x order bool table would take 8.6 MiB


def _d4_psi():
    G = groups.dihedral(4)
    return maps.make_map(G, G, {"r": "e", "s": "s"})


C2_C3 = functools.partial(groups.direct_product, groups.cyclic(2), groups.cyclic(3))


@pytest.mark.parametrize("call, message", [
    (lambda: groups.dihedral(True), "dihedral parameter True is not an integer"),
    (lambda: groups.cyclic(2.5), "cyclic order 2.5 is not an integer"),
    (lambda: groups.symmetric(3.0), "symmetric degree 3.0 is not an integer"),
    (lambda: maps.psi_iterate(_d4_psi(), 2.0), "iteration index 2.0 is not an integer"),
    (lambda: braces.brace_block(_d4_psi(), 1.5), "block depth 1.5 is not an integer"),
    (lambda: maps.phi_power(_d4_psi(), -2), "tower index must be non-negative"),
    (lambda: maps.phi_power(_d4_psi(), 2.0), "tower index 2.0 is not an integer"),
    (lambda: groups.factor_embedding(C2_C3(), 5), "no direct-product factor at position 5"),
    (lambda: groups.factor_embedding(C2_C3(), -1), "no direct-product factor at position -1"),
    (lambda: groups.factor_embedding(C2_C3(), 1.0), "factor position 1.0 is not an integer"),
    (lambda: groups.factor_embedding(groups.cyclic(6), 0), "no direct-product factor"),
], ids=["dihedral_bool", "cyclic_float", "symmetric_float", "psi_iterate_float",
        "brace_block_float", "phi_power_negative", "phi_power_float",
        "factor_past_the_end", "factor_negative", "factor_float", "not_a_product"])
def test_integer_arguments_are_refused_unless_integers_in_range(call, message):
    """bool and float arguments are refused, not built (dihedral(True) was D1)
    or failed on (a float in range()); so is a negative phi power (it was the
    identity) and a factor position past the factors (an IndexError)."""
    with pytest.raises(PreconditionError, match=re.escape(message)):
        call()
