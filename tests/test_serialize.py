import json
import secrets
import tracemalloc
from dataclasses import replace

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from skewbracoid import braces, bracoids, corpus, groups, ideals, maps, serialize, ybe
from skewbracoid.errors import InternalConsistencyError, PreconditionError

from conftest import CATALOGUE, quaternion_group


def test_trivial_group_export():
    G = groups.cyclic(1)
    text = serialize.export_json(G)
    obj = json.loads(text)
    assert obj["order"] == 1 and obj["mul"] == [[0]]


def test_export_is_canonical_and_stable():
    G = groups.dihedral(4)
    a = serialize.export_json(G)
    b = serialize.export_json(groups.dihedral(4))
    assert a == b
    assert " " not in a.split('"names"')[0]  # no insignificant whitespace
    pretty = serialize.export_pretty(G)
    assert json.loads(pretty) == json.loads(a)


def test_group_round_trip():
    G = groups.dihedral(4)
    obj = json.loads(serialize.export_json(G))
    G2 = serialize.parse_group(obj)
    assert np.array_equal(G.mul, G2.mul)
    assert G.names == G2.names
    assert serialize.export_json(G2) == serialize.export_json(G)


def test_map_round_trip():
    G = groups.dihedral(4)
    psi = maps.make_map(G, G, {"r": "rs", "s": "e"})
    obj = json.loads(serialize.export_json(psi))
    psi2 = serialize.parse_map(obj, G)
    assert np.array_equal(psi.image_of, psi2.image_of)


def test_parse_group_spec_and_errors():
    G = serialize.parse_group({"kind": "cyclic", "n": 5})
    assert G.order == 5
    with pytest.raises(PreconditionError):
        serialize.parse_group({"foo": 1})
    with pytest.raises(PreconditionError):
        serialize.parse_map({}, None)
    with pytest.raises(PreconditionError):
        serialize.parse_map({"nothing": 1}, G)


def test_optable_and_reports_serialize():
    G = groups.dihedral(4)
    psi = maps.make_map(G, G, {"r": "rs", "s": "e"})
    circ = braces.circle_table(G, psi)
    obj = json.loads(serialize.export_json(circ))
    assert obj["label"] == "o" and len(obj["table"]) == 8
    rep = braces.verify_brace(braces.table_of(G), circ)
    assert json.loads(serialize.export_json(rep))["holds"] is True


def test_unserializable_value_rejected():
    with pytest.raises(PreconditionError):
        serialize.export_json(object())


def oracle_json(value) -> str:
    """The canonical export as one json.dumps of the nested-list tree."""
    return json.dumps(serialize.to_jsonable(value), sort_keys=True,
                      separators=(",", ":"))


def _d4():
    G = groups.dihedral(4)
    return G, maps.make_map(G, G, {"r": "rs", "s": "e"})


def _d4_bracoid(build=bracoids.bracoid_from_C2):
    G, psi = _d4()
    H = (groups.Subgroup(G, (0, 2, 4, 6)) if build is bracoids.bracoid_from_C2
         else groups.subgroup_generated(G, [G.index_of("rs")]))
    return build(G, psi, H)


def _d4_verdict():
    G, psi = _d4()
    return ideals.classify_subgroup(G, psi, groups.Subgroup(G, (0, 2, 4, 6)))


def _c4_s3_product():
    G1, G2 = groups.cyclic(4), groups.symmetric(3)
    alpha = maps.make_map(G1, G2, {"g": "102"})
    beta = maps.make_map(G2, G1, {"102": "g^2", "120": "e"})
    return ybe.build_ybe_product(G1, G2, alpha, beta)


def _ybe_verify_payload():
    sol = ybe.build_ybe_idempotent(*_d4())
    return {"R": sol, "reports": {"R": ybe.verify_ybe(sol)}}


# one value of every exported type, and each payload dict the CLI emits
EXPORTED = {
    "group": lambda: groups.dihedral(4),
    "trivial_group": lambda: groups.cyclic(1),
    "table_group_q8": quaternion_group,
    "subgroup": lambda: groups.Subgroup(groups.dihedral(4), (0, 2, 4, 6)),
    "coset_space": lambda: groups.coset_space(
        groups.dihedral(4), groups.Subgroup(groups.dihedral(4), (0, 4))),
    "group_map": lambda: _d4()[1],
    "op_table": lambda: braces.circle_table(*_d4()),
    "skew_brace": lambda: braces.braces_from_map(*_d4())[0],
    "bracoid_c1": lambda: _d4_bracoid(bracoids.bracoid_from_C1),
    "bracoid_c2": _d4_bracoid,
    "ybe_solution": lambda: ybe.build_ybe_idempotent(*_d4()),
    "ybe_product": _c4_s3_product,
    "brace_report": lambda: braces.verify_brace(
        braces.table_of(_d4()[0]), braces.circle_table(*_d4())),
    "bracoid_report": lambda: bracoids.verify_bracoid(_d4_bracoid()),
    "ideal_verdict": _d4_verdict,
    "ybe_report": lambda: ybe.verify_ybe(_c4_s3_product()),
    "nondegeneracy_report": lambda: ybe.verify_ybe(_c4_s3_product()).nondegeneracy,
    "abmaps_payload": lambda: {"maps": maps.enumerate_abelian_maps(groups.dihedral(2))},
    "brace_block_payload": lambda: {"block_depth": 2,
                                    "tables": braces.brace_block(_d4()[1], 2)},
    "brace_build_payload": lambda: dict(zip(("dot_circ", "circ_dot"),
                                            braces.braces_from_map(*_d4()))),
    "named_payload": lambda: vars(ideals.named_subgroups(*_d4())),
    "verdicts_payload": lambda: {"verdicts": ideals.find_strong_left_ideals(*_d4())},
    "bracoid_payload": lambda: {"bracoid": _d4_bracoid(),
                                "report": bracoids.verify_bracoid(_d4_bracoid())},
    "tower_payload": lambda: {"bracoid": bracoids.phi_tower_bracoid(*_d4(), 2)},
    "ybe_verify_payload": _ybe_verify_payload,
    "corpus_payload": lambda: {"ok": True, "fixtures": [
        corpus.run_fixture("d4_psi").to_jsonable()]},
}


@pytest.mark.parametrize("name", EXPORTED)
def test_export_matches_nested_list_oracle(name):
    value = EXPORTED[name]()
    assert serialize.export_json(value) == oracle_json(value)


@settings(max_examples=40, deadline=None)
@given(data=st.data())
def test_export_matches_oracle_on_relabeled_tables(data):
    """Catalogue groups and the trivial group, relabeled by a permutation
    fixing 0 and given arbitrary names, in every table-bearing type."""
    _, builder = data.draw(st.sampled_from(
        [("C1", lambda: groups.cyclic(1))] + CATALOGUE))
    G = builder()
    pi = np.array([0] + data.draw(st.permutations(range(1, G.order))))
    back = np.argsort(pi)
    names = data.draw(st.lists(st.text(), min_size=G.order, max_size=G.order,
                               unique=True))
    R = groups.from_table(pi[G.mul[back][:, back]].tolist(), names)
    trivial = maps.trivial_map(R)
    for value in (R, braces.OpTable(R, data.draw(st.text())),
                  braces.make_brace(braces.table_of(R), braces.table_of(R)),
                  ybe.build_ybe_idempotent(R, trivial),
                  {"group": R, "raw": R.mul, "inv": R.inv, names[0]: [R, trivial]}):
        assert serialize.export_json(value) == oracle_json(value)


def test_strings_in_the_placeholder_shape_are_not_spliced():
    shaped = [f"{secrets.randbelow(10 ** 32):032d}{i}" for i in range(4)]
    G = groups.from_table(groups.cyclic(4).mul.tolist(), shaped)
    value = {shaped[0]: G, shaped[1]: [braces.table_of(G), shaped[2]]}
    assert serialize.export_json(value) == oracle_json(value)


def test_a_string_equal_to_a_live_placeholder_is_refused():
    """A collision with this process's random token is detected, never
    spliced into the wrong place."""
    G = groups.from_table([[0]], [f"{serialize._TOKEN}0"])
    with pytest.raises(InternalConsistencyError):
        serialize.export_json(G)
    with pytest.raises(InternalConsistencyError):
        serialize.export_json({f"{serialize._TOKEN}1": groups.cyclic(2), "x": 0})
    psi = replace(maps.identity_map(groups.cyclic(2)), provenance=f"{serialize._TOKEN}0")
    with pytest.raises(InternalConsistencyError):
        serialize.export_json({"maps": [psi]})


def _maps_of_two_orders():
    return {"maps": [*maps.enumerate_abelian_maps(groups.dihedral(4)),
                     *maps.enumerate_abelian_maps(groups.cyclic(6))]}


def _maps_into_a_larger_codomain():
    """Images of C2 and C3 in C6 and S3: entries at or above the row length,
    which a lookup made for the image length would not hold."""
    C2, C3, C6, S3 = groups.cyclic(2), groups.cyclic(3), groups.cyclic(6), groups.symmetric(3)
    return [maps.make_map(C2, C6, [0, 3]), maps.make_map(C3, C6, [0, 2, 4]),
            maps.make_map(C2, S3, [0, 2]), maps.make_map(C2, C6, [0, 0])]


def _maps_with_escaped_provenances():
    psi = maps.identity_map(groups.cyclic(3))
    return [replace(psi, provenance=p) for p in ('say "hi"', "back\\slash", "ψ ∘ φ", "é\n\t", "")]


# exports of maps: each image array is written by the stacked lookup, made
# for the largest codomain, between its flags and provenance
MAP_EXPORTS = {
    "two_domain_orders": _maps_of_two_orders,
    "larger_codomain": lambda: {"maps": _maps_into_a_larger_codomain()},
    "larger_codomain_beside_a_table": lambda: {
        "maps": _maps_into_a_larger_codomain(), "group": groups.cyclic(6)},
    "non_endomorphisms": lambda: [psi for psi in _maps_into_a_larger_codomain()
                                  if psi.idempotent is None],
    "escaped_provenances": _maps_with_escaped_provenances,
    "empty": lambda: {"count": 0, "maps": []},
    "mixed": lambda: {"group": groups.dihedral(4), "psi": _d4()[1],
                      "tables": braces.brace_block(_d4()[1], 2),
                      "maps": maps.enumerate_abelian_maps(groups.dihedral(4)),
                      "raw": np.arange(8), "bracoid": _d4_bracoid(),
                      "nested": [[_d4()[1], groups.cyclic(2)], {"x": _d4()[1]}]},
}


@pytest.mark.parametrize("name", MAP_EXPORTS)
def test_map_exports_match_the_oracle(name):
    value = MAP_EXPORTS[name]()
    assert serialize.export_json(value) == oracle_json(value)


def test_a_map_image_outside_its_codomain_is_refused():
    psi = maps.make_map(groups.cyclic(2), groups.cyclic(6), [0, 3])
    psi.image_of = np.array([0, 6])
    with pytest.raises(InternalConsistencyError):
        serialize.export_json([psi])


@pytest.mark.parametrize("lam, index_table", [
    ([[0, -1], [1, 0]], False),        # negative: would index the lookup from the end
    ([[0, 10**12], [1, 0]], False),    # larger than the table: no lookup that long
    (np.zeros((0, 0), dtype=np.int64), True),
    (np.zeros((3, 0), dtype=np.int64), False),
    ([[True, False], [False, True]], False),
    ([[0.5, 1.0], [1.0, 0.0]], False),
    (np.array([[0, 1], [1, 0]], dtype=np.uint8), True),
], ids=["negative", "huge", "empty", "no_columns", "boolean", "float", "uint8"])
def test_unusual_tables_keep_the_oracle_bytes(lam, index_table):
    """A Bracoid keeps any action array, so its export and a raw table's are
    compared with the oracle; a YbeSolution holds only an n x n table of
    0..n-1, and refuses the rest when it is made."""
    lam = np.asarray(lam)
    values = [bracoids.Bracoid(braces.table_of(groups.cyclic(3)),
                               braces.table_of(groups.cyclic(1)), lam.copy(), {}),
              {"raw": lam}]
    if index_table:
        values.append(ybe.YbeSolution(lam, lam.copy(), {"construction": "test"}))
    else:
        with pytest.raises(PreconditionError, match="integer|n x n|0..n-1"):
            ybe.YbeSolution(lam, lam.copy(), {"construction": "test"})
    for value in values:
        assert serialize.export_json(value) == oracle_json(value)


def _as_lists(value):
    """`value` with each array as the lists that json.loads gives for it."""
    if isinstance(value, np.ndarray):
        return value.tolist()
    if isinstance(value, dict):
        return {k: _as_lists(v) for k, v in value.items()}
    if isinstance(value, list):
        return [_as_lists(v) for v in value]
    return value


def _outcome(load, text: str):
    try:
        return "value", repr(_as_lists(load(text)))
    except Exception as exc:  # the same type and message, positions included
        return type(exc).__name__, str(exc)


def assert_loads_as_json(text: str):
    assert _outcome(serialize.load_json, text) == _outcome(json.loads, text)


_rows = st.lists(st.lists(st.integers(-1, 5) | st.sampled_from([2**63, 2**64]),
                          max_size=4), max_size=4)
_square = st.integers(1, 4).flatmap(lambda n: st.lists(
    st.lists(st.integers(0, n), min_size=n, max_size=n), min_size=n, max_size=n))
_json_values = st.recursive(
    st.none() | st.booleans() | st.integers() | st.floats(allow_nan=False) | st.text()
    | _rows | _square | _square.map(lambda t: json.dumps(t, separators=(",", ":"))),
    lambda inner: st.lists(inner, max_size=3) | st.dictionaries(st.text(max_size=3), inner,
                                                                max_size=3),
    max_leaves=8)


@settings(max_examples=300, deadline=None)
@given(value=_json_values, separators=st.sampled_from([(",", ":"), (", ", ": ")]),
       edit=st.none() | st.tuples(st.integers(0, 10**6), st.sampled_from(
           ["", "[", "]", ",", "0", "1", "-", ".", "e", " ", '"', "[[", "]]"])))
def test_load_json_reads_what_json_loads_reads(value, separators, edit):
    """Tables compared as lists, every text (valid or not, with each edit
    placed anywhere, an empty edit deleting the character there) reads as
    json.loads reads it, or raises the same error."""
    text = json.dumps(value, separators=separators)
    if edit is not None:
        at, insert = edit[0] % (len(text) + 1), edit[1]
        text = text[:at] + insert + text[at + (not insert):]
    assert_loads_as_json(text)


@pytest.mark.parametrize("text", [
    "[[0,1],[1]]", "[[0,1,2],[0]]", "[[0,1,1],[0]]", "[[0,1],[2]]",  # ragged rows
    "[[00,1],[1,0]]", "[[0,1],[1,01]]",                              # leading zeros
    "[[0,-1],[1,0]]", "[[-0,1],[1,0]]",                              # negatives
    "[[0,1],[1,1.0]]", "[[0,1],[1,0.7]]", "[[0,1],[1,0e0]]",        # floats
    "[[0, 1],[1,0]]", "[[0,1],\n[1,0]]", "[ [0,1],[1,0]]",           # whitespace
    '{"a":"[[0,1],[1,0]]"}', '["[[0]]",[[0]]]', '{"[[0]]":[[0]]}',  # inside a string
    "[[[0]]]", "[[[0,1],[1,0]]]", "[[]]", "[[],[]]",
    "[[0,1],[1,9223372036854775808]]", "[[0,18446744073709551617],[1,0]]",
    "[[0,2],[2,0]]", "[[1]]", "[[0,1,2],[1,2,3]]",                    # entries >= size
    "[[0,1],[1,0]]5", "5[[0,1],[1,0]]", "-[[0]]", "[[0]]e5", "[[0]].5",
    "[[0,1],[1,0]", "[[0,1],[1,0]]]", '{[[0]]:1}', '{"a":[[0]] "b":1}',
], ids=repr)
def test_load_json_near_tables(text):
    assert_loads_as_json(text)


def test_load_json_with_a_float_shaped_like_a_placeholder():
    """A user float literal carrying the token is read as a float, never as
    a table; the text holding it is read by plain json.loads."""
    for i in (0, 1):
        text = f'[0.{serialize._TOKEN}{i},[[0,1],[1,0]]]'
        assert_loads_as_json(text)
        assert isinstance(serialize.load_json(text)[0], float)


def test_load_json_reads_each_table_as_an_array():
    text = '{"a":[[0,1],[1,0]],"b":[[0,1,2],[1,2,0]],"c":[[0],[1]],"d":[[0,2],[2,0]]}'
    got = serialize.load_json(text)
    for key in "abc":
        assert got[key].dtype == np.int64 and got[key].tolist() == json.loads(text)[key]
    assert got["d"] == [[0, 2], [2, 0]]


@pytest.mark.parametrize("name", EXPORTED)
def test_exports_read_back(name):
    text = serialize.export_json(EXPORTED[name]())
    assert_loads_as_json(text)


def test_exported_groups_read_back_as_arrays():
    for _, build in CATALOGUE:
        G = build()
        got = serialize.load_json(serialize.export_json(G))
        assert isinstance(got["mul"], np.ndarray) and np.array_equal(got["mul"], G.mul)


def _dumps(t) -> str:
    return json.dumps(np.asarray(t).tolist(), separators=(",", ":"))


def _table(rows: int, cols: int, dtype=np.int64) -> np.ndarray:
    """A rows x cols table whose entries run over 0..max(rows, cols)-1, the
    largest value included, in an order that mixes the digit widths."""
    n = max(rows, cols)
    return (np.arange(rows * cols).reshape(rows, cols) * 7919 % n).astype(dtype)


# the largest side at each digit-width boundary, square and in both
# orientations, one row, one column and 1x1
SHAPES = [(n, n) for n in (9, 10, 11, 99, 100, 101)] + [
    (1000, 3), (3, 1000), (1001, 2), (2, 999), (1, 1), (1, 7), (7, 1), (5, 12), (12, 5)]


@pytest.mark.parametrize("shape", SHAPES, ids=str)
def test_table_texts_match_json_dumps(shape):
    t = _table(*shape)
    assert t.max() == max(shape) - 1
    assert serialize._table_texts([t]) == [_dumps(t)]


@pytest.mark.parametrize("view", [np.transpose, lambda t: t[:, ::2], lambda t: t[::-1, ::-1]],
                         ids=["transposed", "every_other_column", "reversed"])
def test_table_texts_of_non_contiguous_tables(view):
    t = view(_table(101, 100))
    assert not t.flags.c_contiguous
    assert serialize._table_texts([t]) == [_dumps(t)]


@pytest.mark.parametrize("dtype,shape", [
    (np.uint8, (2, 200)), (np.uint8, (200, 200)), (np.int8, (3, 120)),
    (np.int16, (2, 30000)), (np.uint16, (2, 40000)), (np.int32, (300, 70)),
], ids=lambda v: getattr(v, "__name__", str(v)))
def test_table_texts_of_narrow_integer_tables(dtype, shape):
    """Below int32, n + entry overflows the table's own dtype; the writer
    adds in intp."""
    t = _table(*shape, dtype=dtype)
    if np.iinfo(dtype).bits < 32:
        assert int(t.max()) + max(shape) > np.iinfo(dtype).max
    assert serialize._table_texts([t]) == [_dumps(t)]
    assert serialize.export_json({"t": t}) == oracle_json({"t": t})


def test_one_export_of_tables_of_different_sizes():
    """A bracoid's acting, target and action tables share one lookup, made
    for the largest of them."""
    acting, target = groups.dihedral(60), groups.cyclic(4)
    action = np.tile(np.arange(4), (120, 1))
    b = bracoids.Bracoid(braces.table_of(acting), braces.table_of(target), action, {})
    assert serialize.export_json(b) == oracle_json(b)
    tables = [acting.mul, target.mul, action, action.T]
    assert serialize._table_texts(tables) == [_dumps(t) for t in tables]


@pytest.mark.parametrize("block_bytes", [1, 16 * 11 * (8 + 4) * 7],
                         ids=["one_row", "seven_rows"])
def test_table_texts_in_small_blocks(monkeypatch, block_bytes):
    # one row per block, and blocks of 7 rows (11 index columns of 8 bytes
    # and 4-byte cells each) that do not divide 101
    monkeypatch.setattr(groups, "SWEEP_BLOCK_BYTES", block_bytes)
    tables = [_table(101, 10), _table(10, 101), groups.cyclic(101).mul]
    assert serialize._table_texts(tables) == [_dumps(t) for t in tables]


def _peak(call) -> int:
    """The tracemalloc peak of call()."""
    tracemalloc.start()
    try:
        call()
        return tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()


def test_table_writer_peak_stays_near_twice_its_text(monkeypatch):
    """On C1000 the writer holds its text twice (the blocks and their join)
    and little more; in one block its index and byte arrays alone would
    take four times the text."""
    t = groups.cyclic(1000).mul
    limit = 2.5 * len(_dumps(t))
    assert _peak(lambda: serialize._table_texts([t])) < limit
    monkeypatch.setattr(groups, "SWEEP_BLOCK_BYTES", 2**40)
    assert _peak(lambda: serialize._table_texts([t])) > limit


def test_map_export_peak_stays_near_twice_its_text(monkeypatch):
    """20,032 maps of C64: the images are stacked in blocks, so the export
    holds its text twice and little more; stacked whole, they alone take
    more than the text."""
    G = groups.cyclic(64)
    value = {"maps": [maps.make_map(G, G, k * np.arange(64) % 64) for k in range(64)] * 313}
    text = serialize.export_json(value)
    if text != oracle_json(value):  # pytest's diff of two 6 MB lines would take minutes
        pytest.fail("the export differs from the oracle")
    limit = 2 * len(text) + 2 * groups.SWEEP_BLOCK_BYTES
    assert _peak(lambda: serialize.export_json(value)) < limit
    monkeypatch.setattr(groups, "SWEEP_BLOCK_BYTES", 2**40)
    assert _peak(lambda: serialize.export_json(value)) > limit
