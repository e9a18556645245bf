import functools
import hashlib
import json
import os
import re
import shlex
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest

import skewbracoid
from skewbracoid import bracoids, cli, corpus, groups, maps, serialize, ybe
from skewbracoid.errors import InternalConsistencyError

D4 = '{"kind":"dihedral","n":4}'
PSI = '{"images":{"r":"rs","s":"e"}}'


def run(capsys, argv):
    code = cli.main(argv)
    out = capsys.readouterr()
    return code, out.out, out.err


def test_group_build(capsys):
    code, out, _ = run(capsys, ["group", "build", D4])
    assert code == 0
    obj = json.loads(out)
    assert obj["order"] == 8 and obj["names"][1] == "r"


def test_group_build_from_file(tmp_path, capsys):
    p = tmp_path / "d4.json"
    p.write_text(D4)
    code, out, _ = run(capsys, ["group", "build", str(p)])
    assert code == 0 and json.loads(out)["order"] == 8


def test_abmaps_enumerate(capsys):
    code, out, _ = run(capsys, ["abmaps", "enumerate", D4])
    assert code == 0
    assert json.loads(out)["count"] == 28


D3_TABLE = json.dumps({"kind": "table", "mul": groups.dihedral(3).mul.tolist()})
C2_TABLE = '{"kind":"table","mul":[[0,1],[1,0]]}'


def abmap_images(capsys, spec):
    code, out, _ = run(capsys, ["abmaps", "enumerate", spec])
    assert code == 0
    return {tuple(m["image_array"]) for m in json.loads(out)["maps"]}


@pytest.mark.parametrize("template, table, built", [
    ("%s", D3_TABLE, '{"kind":"dihedral","n":3}'),
    ('{"kind":"product","factors":[%s,{"kind":"cyclic","n":2}]}', D3_TABLE,
     '{"kind":"dihedral","n":3}'),
    ('{"kind":"semidirect","base":{"kind":"cyclic","n":3},"acting":%s,'
     '"action":[[0,1,2],[0,2,1]]}', C2_TABLE, '{"kind":"cyclic","n":2}')],
    ids=["table", "product", "semidirect"])
def test_abmaps_enumerate_table_group_without_generators(capsys, template,
                                                          table, built):
    """A table spec without "generators" enumerates as the same group
    built by its own builder, alone and as a factor."""
    assert abmap_images(capsys, template % table) == \
        abmap_images(capsys, template % built)


def test_ideals_classify_named(capsys):
    code, out, _ = run(capsys, ["ideals", "classify", D4, PSI, "--named"])
    assert code == 0
    obj = json.loads(out)
    assert obj["ker"]["members"] == [0, 2, 4, 6]
    assert obj["fix"]["members"] == [0, 5]
    assert obj["h_hat"]["members"] == [0, 2, 5, 7]


def test_ideals_classify_all_and_single(capsys):
    code, out, _ = run(capsys, ["ideals", "classify", D4, PSI, "--all"])
    assert code == 0
    assert json.loads(out)["count"] == 10
    code, out, _ = run(capsys, ["ideals", "classify", D4, PSI,
                                "--subgroup", "e,rs"])
    assert code == 0
    obj = json.loads(out)
    assert obj["C1"] is True and obj["C2"] is False


S3 = '{"kind":"symmetric","n":3}'
S4 = '{"kind":"symmetric","n":4}'
C2 = '{"kind":"cyclic","n":2}'
C3 = '{"kind":"cyclic","n":3}'


@pytest.mark.parametrize("group, order, by_name, by_index, members", [
    (S3, 6, "012,102", "0,2", [0, 2]), (S3, 6, "012,120,201", "0,3,4", [0, 3, 4]),
    (S4, 24, "0123,1023", "0,6", [0, 6]), (S4, 24, "0123,1023", "0123,6", [0, 6])])
def test_subgroup_members_by_name_or_index(capsys, group, order, by_name, by_index,
                                           members):
    """S_n element names are digits: a token that names an element means
    that element, and any other decimal token is an index."""
    trivial = json.dumps({"image_array": [0] * order})
    outs = []
    for text in (by_name, by_index):
        code, out, err = run(capsys, ["ideals", "classify", group, trivial,
                                      "--subgroup", text])
        assert (code, err) == (0, "")
        outs.append(out)
    assert outs[0] == outs[1]
    assert json.loads(outs[0])["subgroup"] == members


@pytest.mark.parametrize("group, order, by_name, by_index, members", [
    ('{"kind":"product","factors":[%s,%s]}' % (C2, C2), 4, "(e,e),(g,e)", "0,1", [0, 1]),
    ('{"kind":"product","factors":[%s,{"kind":"product","factors":[%s,%s]}]}'
     % (C2, C2, C3), 12, "(e,(e,e)),(e,(e,g)),(e,(e,g^2))", "0,4,8", [0, 4, 8]),
    ('{"kind":"semidirect","base":%s,"acting":%s,"action":[[0,1,2],[0,2,1]]}'
     % (C3, C2), 6, "(e,e), (e,g)", "0,3", [0, 3]),
    (D4, 8, "e,rs", "0,5", [0, 5]), (S3, 6, "012,102", "0,2", [0, 2])],
    ids=["product", "nested_product", "semidirect", "D4", "S3"])
def test_subgroup_names_with_commas(capsys, group, order, by_name, by_index, members):
    """Product and semidirect element names hold commas: --subgroup splits
    only at commas outside parentheses."""
    trivial = json.dumps({"image_array": [0] * order})
    outs = [run(capsys, ["ideals", "classify", group, trivial, "--subgroup", text])
            for text in (by_name, by_index)]
    assert outs[0][0] == 0 and outs[0] == outs[1]
    assert json.loads(outs[0][1])["subgroup"] == members


def test_brace_build_and_block(capsys):
    code, out, _ = run(capsys, ["brace", "build", D4, PSI])
    assert code == 0
    assert json.loads(out)["dot_circ"]["multiplicative"]["label"] == "o"
    code, out, _ = run(capsys, ["brace", "build", D4, PSI, "--block", "2"])
    assert code == 0
    assert len(json.loads(out)["tables"]) == 3


def test_bracoid_build_via_c1_and_tower(capsys):
    code, out, _ = run(capsys, ["bracoid", "build", D4, PSI,
                                "--via", "C1", "--subgroup", "e,rs"])
    assert code == 0
    obj = json.loads(out)
    assert obj["report"]["relation_holds"] is True
    code, out, _ = run(capsys, ["bracoid", "build", D4, PSI, "--via", "tower:2"])
    assert code == 0
    assert json.loads(out)["bracoid"]["target"]["order"] == 4


def test_bracoid_build_missing_subgroup_is_user_error(capsys):
    code, out, err = run(capsys, ["bracoid", "build", D4, PSI, "--via", "C2"])
    assert code == 1
    assert json.loads(err)["error"] == "precondition"


def test_ybe_build_idempotent_verified(capsys):
    code, out, _ = run(capsys, ["ybe", "build", D4, PSI,
                                "--construction", "idempotent", "--verify"])
    assert code == 0
    rep = json.loads(out)["reports"]["R"]
    assert rep == {"holds": True, "checked": "exhaustive", "witness": None,
                   "nondegeneracy": {"left": False, "right": True,
                                     "witnesses": {"left_x": 0}}}


def test_ybe_build_product(capsys):
    code, out, _ = run(capsys, [
        "ybe", "build", "--construction", "product",
        "--g1", '{"kind":"cyclic","n":4}', "--g2", '{"kind":"symmetric","n":3}',
        "--alpha", '{"images":{"g":"102"}}',
        "--beta", '{"images":{"102":"g^2","120":"e"}}', "--verify"])
    assert code == 0
    assert json.loads(out)["reports"]["R"]["holds"] is True


def test_ybe_build_contained(capsys):
    code, out, _ = run(capsys, [
        "ybe", "build",
        '{"kind":"product","factors":[{"kind":"cyclic","n":4},{"kind":"cyclic","n":2}]}',
        '{"image_array":[0,0,0,0,4,4,4,4]}',
        "--construction", "contained", "--subgroup", "0,4", "--verify"])
    assert code == 0
    assert json.loads(out)["reports"]["R"]["holds"] is True


def test_corpus_run_single(capsys):
    code, out, _ = run(capsys, ["corpus", "run", "d4_psi"])
    assert code == 0
    obj = json.loads(out)
    assert obj["ok"] is True
    assert obj["fixtures"][0]["name"] == "d4_psi"


def test_bad_spec_exit_code(capsys):
    code, out, err = run(capsys, ["group", "build", '{"kind":"nope"}'])
    assert code == 1
    assert json.loads(err)["error"] == "precondition"


def test_internal_consistency_exit_code(monkeypatch, capsys):
    def boom(name):
        raise InternalConsistencyError("synthetic contradiction")

    monkeypatch.setattr(corpus, "run_fixture", boom)
    code, out, err = run(capsys, ["corpus", "run", "d4_psi"])
    assert code == 2
    assert json.loads(err)["error"] == "internal-consistency"


def test_pretty_output(capsys):
    code, out, _ = run(capsys, ["group", "build", D4, "--pretty"])
    assert code == 0 and out.startswith("{\n")


def test_max_order_flag(capsys):
    code, _, err = run(capsys, ["group", "build", D4, "--max-order", "4"])
    assert code == 1
    assert "exceeds cap" in json.loads(err)["message"]


def test_max_order_applies_to_reimported_exports(capsys):
    export = serialize.export_json(groups.dihedral(10))
    code, out, _ = run(capsys, ["group", "build", export])
    assert code == 0 and json.loads(out)["order"] == 20
    code, _, err = run(capsys, ["group", "build", export, "--max-order", "4"])
    assert code == 1
    assert json.loads(err)["message"] == "requested order 20 exceeds cap 4"


C1 = '{"kind":"cyclic","n":1}'


def _product(*factors):
    return '{"kind":"product","factors":[%s]}' % ",".join(factors)


@pytest.mark.parametrize("spec, generators", [
    (_product(C2, C1), [1]),
    (_product(C1, C1), [0]),
    (_product(C1, _product(C1, C2)), [1]),
    (functools.reduce(_product, [C1] * 40), [0])],
    ids=["C2xC1", "C1xC1", "C1x(C1xC2)", "C1^40_nested"])
def test_product_drops_the_generators_of_trivial_factors(capsys, spec, generators):
    """A trivial factor's generator is e, which generates nothing; a product
    of trivial factors keeps e alone, as C1 does."""
    code, out, _ = run(capsys, ["group", "build", spec])
    assert code == 0 and json.loads(out)["generators"] == generators


D4_ZERO = '{"image_array":[0,0,0,0,0,0,0,0]}'
# a product spec nested deeper than the JSON decoder recurses
DEEP_PRODUCT = '{"kind":"product","factors":[' * 600 + C2 + "]}" * 600
REFUSED = {
    "unreadable_path": (["group", "build", "missing.json"], "cannot read 'missing.json'"),
    "undecodable_file": (["group", "build", "utf16.json"], "cannot read 'utf16.json'"),
    "invalid_json": (["group", "build", "{bad"], "invalid JSON in '{bad'"),
    "deeply_nested_file": (["group", "build", "deep.json"], "invalid JSON in 'deep.json'"),
    "deeply_nested_spec": (["group", "build", DEEP_PRODUCT], "invalid JSON in '{"),
    "json_list": (["group", "build", "list.json"], "'list.json' must contain a JSON object"),
    "tower_opposite": (["bracoid", "build", D4, PSI, "--via", "tower:1", "--opposite"],
                       "--opposite does not apply to the tower"),
    "product_without_g2": (["ybe", "build", "--construction", "product", "--g1", D4],
                           "--construction product needs --g1, --g2, --alpha, --beta"),
    "idempotent_without_group": (["ybe", "build", "--construction", "idempotent"],
                                 "--construction idempotent needs a group and a map"),
    "contained_without_subgroup": (["ybe", "build", D4, D4_ZERO, "--construction",
                                    "contained"],
                                   "--construction contained needs --subgroup"),
    "contained_not_regular": (["ybe", "build", D4, D4_ZERO, "--construction", "contained",
                               "--subgroup", "e,r^2"],
                              "no subgroup of the acting group acts regularly on the target"),
}


@pytest.mark.parametrize("argv, message", REFUSED.values(), ids=REFUSED.keys())
def test_refusals_name_their_cause(tmp_path, monkeypatch, capsys, argv, message):
    """Unusable arguments exit 1 with a JSON error that says what is wrong."""
    monkeypatch.chdir(tmp_path)
    (tmp_path / "list.json").write_text("[1,2]")
    (tmp_path / "utf16.json").write_bytes(b"\xff\xfe{}")  # a UTF-16 byte order mark
    (tmp_path / "deep.json").write_text('{"a":' + "[" * 100_000)
    code, out, err = run(capsys, argv)
    assert (code, out) == (1, "")
    error = json.loads(err)
    assert error["error"] == "precondition" and error["message"].startswith(message)


def test_bracoid_build_reduced_prints_the_library_result(capsys):
    """`bracoid build --via C1 --reduce` prints the export of the reduced
    bracoid and its report: with psi = 0, <r^2> is central, so the action
    kernel is <r^2> and the acting group falls from order 8 to 4."""
    G = groups.dihedral(4)
    psi = maps.make_map(G, G, [0] * 8)
    b = bracoids.reduce_bracoid(bracoids.bracoid_from_C1(G, psi, groups.Subgroup(G, (0, 2))))
    assert b.acting_order == 4
    want = serialize.export_json({"bracoid": b, "report": bracoids.verify_bracoid(b)})
    assert run(capsys, ["bracoid", "build", D4, D4_ZERO, "--via", "C1",
                        "--subgroup", "e,r^2", "--reduce"]) == (0, want + "\n", "")


def test_ybe_build_abelian_pair_prints_the_library_result(capsys):
    C6 = '{"kind":"cyclic","n":6}'
    psi_spec = '{"images":{"g":"g^3"}}'
    G = groups.cyclic(6)
    R, Rp = ybe.build_ybe_abelian_pair(G, maps.make_map(G, G, {"g": "g^3"}))
    want = serialize.export_json({"R": R, "R_prime": Rp, "reports": {
        "R": ybe.verify_ybe(R), "R_prime": ybe.verify_ybe(Rp)}})
    assert run(capsys, ["ybe", "build", C6, psi_spec, "--construction", "abelian-pair",
                        "--verify"]) == (0, want + "\n", "")


@pytest.mark.parametrize("option", [["--sample"], ["--seed", "5"]])
def test_ybe_build_has_no_sampling_options(option):
    """The braid relation is always decided exactly: sampling options are
    usage errors."""
    with pytest.raises(SystemExit) as exc:
        cli.main(["ybe", "build", D4, PSI, "--construction", "idempotent",
                  "--verify", *option])
    assert exc.value.code == 2


C3_ON_C2 = '{"kind":"semidirect","base":{"kind":"cyclic","n":3},' \
    '"acting":{"kind":"cyclic","n":2},"action":%s}'
MALFORMED = {
    "float_cell": ["group", "build", '{"kind":"table","mul":[[0,1],[1,0.7]]}'],
    "string_cell": ["group", "build", '{"kind":"table","mul":[[0,1],[1,"0"]]}'],
    "integral_float_cell": ["group", "build",
                            '{"kind":"table","mul":[[0,1],[1,0.0]]}'],
    "boolean_cell": ["group", "build", '{"kind":"table","mul":[[0,true],[true,0]]}'],
    "ragged_mul": ["group", "build", '{"kind":"table","mul":[[0,1],[1]]}'],
    "float_cell_in_export": ["group", "build", '{"mul":[[0,1],[1,0.5]]}'],
    # an export whose order or inv is not its table's
    "export_order_not_its_table": ["group", "build", '{"order":5,"mul":[[0,1],[1,0]],'
                                   '"inv":[0,1],"names":["e","g"],"generators":null}'],
    "export_inv_not_its_table": ["group", "build", '{"order":2,"mul":[[0,1],[1,0]],'
                                 '"inv":[1,1],"names":["e","g"],"generators":null}'],
    "float_generator": ["group", "build",
                        '{"kind":"table","mul":[[0,1],[1,0]],"generators":[1.5]}'],
    "float_n": ["group", "build", '{"kind":"cyclic","n":2.5}'],
    "string_n": ["group", "build", '{"kind":"cyclic","n":"4"}'],
    "missing_n": ["group", "build", '{"kind":"cyclic"}'],
    "negative_symmetric_n": ["group", "build", '{"kind":"symmetric","n":-1}'],
    "large_symmetric_n": ["group", "build", '{"kind":"symmetric","n":2000}'],
    "int_factors": ["group", "build", '{"kind":"product","factors":5}'],
    "int_names": ["group", "build",
                  '{"kind":"table","mul":[[0,1],[1,0]],"names":5}'],
    "int_mul": ["group", "build", '{"kind":"table","mul":5}'],
    "list_names": ["group", "build",
                   '{"kind":"table","mul":[[0,1],[1,0]],"names":[[1],[0]]}'],
    "missing_n_in_factor": ["group", "build", '{"kind":"product","factors":'
                            '[{"kind":"dihedral"},{"kind":"cyclic","n":2}]}'],
    "float_action": ["group", "build", C3_ON_C2 % "[[0,1,2],[0,2,1.0]]"],
    "ragged_action": ["group", "build", C3_ON_C2 % "[[0,1,2],[0,2]]"],
    "float_image": ["brace", "build", C2, '{"image_array":[0,0.9]}'],
    "ragged_image": ["brace", "build", C2, '{"image_array":[0,[1]]}'],
    "boolean_image": ["brace", "build", C2, '{"image_array":[0,true]}'],
    "float_generator_image": ["brace", "build", D4, '{"images":{"r":"e","s":4.0}}'],
    "generator_image_out_of_range": ["brace", "build", D4,
                                     '{"images":{"r":"e","s":99}}'],
    "unknown_via": ["bracoid", "build", D4, PSI, "--via", "C3",
                    "--subgroup", "0,2,4,6"],
    "underscored_tower_index": ["bracoid", "build", D4, PSI, "--via", "tower:1_0"],
    "spaced_tower_index": ["bracoid", "build", D4, PSI, "--via", "tower: 2"],
    "negative_tower_index": ["bracoid", "build", D4, PSI, "--via", "tower:-1"],
    # str.isdigit() takes these, int() reads the second as 2
    "superscript_subgroup_index": ["ideals", "classify", '{"kind":"cyclic","n":4}',
                                   '{"image_array":[0,0,0,0]}', "--subgroup", "0,\u00b2"],
    "arabic_indic_subgroup_index": ["ideals", "classify", '{"kind":"cyclic","n":4}',
                                    '{"image_array":[0,0,0,0]}', "--subgroup", "0,\u0662"],
    # a table where a spec holds none: read as an array, refused as its lists
    "table_kind": ["group", "build", '{"kind":[[0,1],[1,0]]}'],
    "table_n": ["group", "build", '{"kind":"cyclic","n":[[0]]}'],
    "table_factors": ["group", "build", '{"kind":"product","factors":[[0,1],[1,0]]}'],
    "table_base": ["group", "build", '{"kind":"semidirect","base":[[0]],"acting":%s,'
                   '"action":[[0]]}' % C2],
    "table_names": ["group", "build", '{"mul":[[0,1],[1,0]],"names":[[0,1],[1,0]]}'],
    "table_generator_image": ["brace", "build", D4, '{"images":{"r":[[0,1],[1,0]],"s":"e"}}'],
    "table_image_array": ["brace", "build", C2, '{"image_array":[[0,1],[1,0]]}'],
    "table_map_group": ["brace", "build", D4, '{"group":[[0]],"images":{"r":"e","s":"e"}}'],
    "table_action_not_automorphism": ["group", "build", C3_ON_C2 % "[[0,1,2],[1,2,0]]"],
    # a map spec's group of another JSON type than an object
    "int_map_group": ["ideals", "classify", C2, '{"group":5,"image_array":[0,0]}'],
    "null_map_group": ["ideals", "classify", C2, '{"group":null,"image_array":[0,0]}'],
    "bool_map_group": ["ideals", "classify", C2, '{"group":true,"image_array":[0,0]}'],
    "int_map_codomain": ["ideals", "classify", C2, '{"codomain":7,"image_array":[0,0]}'],
    "int_alpha_codomain": ["ybe", "build", "--construction", "product", "--g1", C2,
                           "--g2", C2, "--beta", '{"image_array":[0,0]}',
                           "--alpha", '{"codomain":7,"image_array":[0,0]}'],
}


@pytest.mark.parametrize("argv", MALFORMED.values(), ids=MALFORMED.keys())
def test_malformed_specs_are_precondition_errors(capsys, monkeypatch, argv):
    """Malformed input is refused with exit 1 and a JSON error, neither
    truncated to an integer nor left to raise a traceback, and with the
    error it gets when the arguments are read by plain json.loads."""
    code, out, err = run(capsys, argv)
    assert code == 1 and out == ""
    assert json.loads(err)["error"] == "precondition"
    monkeypatch.setattr(serialize, "load_json", json.loads)
    assert run(capsys, argv) == (code, out, err)


def test_c1000_export_reimports_from_a_file_byte_for_byte(tmp_path, capsys):
    """An export of C1000 read back from a file builds a group that prints
    the same bytes; the same text with two cells of a row swapped is still
    refused.  Both tables are read by NumPy."""
    export = serialize.export_json(groups.cyclic(1000))
    path = tmp_path / "c1000.json"
    path.write_text(export + "\n")
    assert run(capsys, ["group", "build", str(path)]) == (0, export + "\n", "")
    swapped = export.replace("[5,6,7,", "[5,7,6,", 1)
    assert isinstance(serialize.load_json(swapped)["mul"], np.ndarray)
    path.write_text(swapped)
    code, out, err = run(capsys, ["group", "build", str(path)])
    assert code == 1 and out == ""
    assert json.loads(err)["message"] == "associativity fails"


C4 = '{"kind":"cyclic","n":4}'
V4 = '{"kind":"product","factors":[{"kind":"cyclic","n":2},{"kind":"cyclic","n":2}]}'
V4_PROJECTION = '{"group":%s,"image_array":[0,1,0,1]}' % V4
OTHER_GROUP = {
    "larger_group": ["ideals", "classify", '{"kind":"cyclic","n":6}',
                     '{"group":%s,"image_array":[0,1,2,3]}' % C4],
    "same_order_tower": ["bracoid", "build", C4, V4_PROJECTION, "--via", "tower:1"],
    "same_order_ybe": ["ybe", "build", C4, V4_PROJECTION, "--construction", "idempotent"],
    "same_order_identity": ["ideals", "classify", C4,
                            '{"group":%s,"image_array":[0,1,2,3]}' % V4],
    "same_order_codomain": ["ybe", "build", "--construction", "product", "--g1", C4,
                            "--g2", S3, "--beta", '{"image_array":[0,0,0,0,0,0]}',
                            "--alpha", '{"codomain":{"kind":"cyclic","n":6},'
                            '"image_array":[0,0,0,0]}'],
}


@pytest.mark.parametrize("argv", OTHER_GROUP.values(), ids=OTHER_GROUP.keys())
def test_map_spec_naming_another_group_is_refused(capsys, argv):
    """A map spec's own "group" or "codomain" must be the group the command
    was given: a different one is refused, not used in its place."""
    code, out, err = run(capsys, argv)
    assert code == 1 and out == ""
    assert json.loads(err)["error"] == "precondition"
    assert "is not the group it is given with" in json.loads(err)["message"]


@pytest.mark.parametrize("group", [D4, serialize.export_json(groups.dihedral(4))],
                         ids=["spec", "export"])
@pytest.mark.parametrize("command", [
    ["ideals", "classify"], ["brace", "build"], ["bracoid", "build", "--via", "tower:1"],
    ["ybe", "build", "--construction", "idempotent", "--verify"]], ids=lambda c: c[0])
def test_map_spec_naming_the_same_group(capsys, group, command):
    """A map spec whose "group" has the given group's table gives the same
    output as the spec without it."""
    with_group = json.dumps({"group": json.loads(group), **json.loads(PSI)})
    outs = [run(capsys, command[:2] + [D4, spec] + command[2:]) for spec in (PSI, with_group)]
    assert outs[0][0] == 0 and outs[0] == outs[1]


def test_map_spec_naming_the_same_codomain(capsys):
    """alpha's own "codomain", with the table of --g2, is --g2 itself: the
    product of the two maps is built as without it."""
    argv = ["ybe", "build", "--construction", "product", "--g1", C4, "--g2", S3,
            "--beta", '{"images":{"102":"g^2","120":"e"}}', "--alpha"]
    alpha = {"images": {"g": "102"}}
    outs = [run(capsys, argv + [json.dumps(spec)])
            for spec in (alpha, {"codomain": json.loads(S3), **alpha})]
    assert outs[0][0] == 0 and outs[0] == outs[1]


VERSION_LINE = f"skewbracoid {skewbracoid.__version__} (interface {cli.INTERFACE_VERSION})\n"


def test_version(capsys):
    with pytest.raises(SystemExit) as exc:
        cli.main(["--version"])
    assert exc.value.code == 0
    assert capsys.readouterr().out == VERSION_LINE


def test_package_runs_as_a_module():
    """`python -m skewbracoid` runs the CLI without the installed script."""
    src = str(Path(cli.__file__).resolve().parents[1])
    env = {**os.environ, "PYTHONPATH": os.pathsep.join(
        filter(None, [src, os.environ.get("PYTHONPATH")]))}
    done = subprocess.run([sys.executable, "-m", "skewbracoid", "--version"],
                          capture_output=True, text=True, env=env, timeout=60)
    assert done.returncode == 0 and done.stdout == VERSION_LINE


# exit codes and stdout digests recorded by bench/record.py
RECORDED = Path(__file__).resolve().parents[1] / "bench" / "expected.json"
C8_S4_PRODUCT = [
    "ybe", "build", "--construction", "product",
    "--g1", '{"kind":"cyclic","n":8}', "--g2", '{"kind":"symmetric","n":4}',
    "--alpha", '{"images":{"g":"1230"}}',
    "--beta", '{"images":{"1023":"g^4","1230":"g^4"}}', "--verify"]


D4XD4 = ('{"kind":"product","factors":[{"kind":"dihedral","n":4},'
         '{"kind":"dihedral","n":4}]}')
D4XD4_TOWER = ('{"images":{"(r,e)":"(e,e)","(s,e)":"(e,s)",'
               '"(e,r)":"(e,e)","(e,s)":"(s,e)"}}')


@pytest.mark.parametrize("name, argv", [
    ("corpus_run", ["corpus", "run"]),
    ("ybe_c8xs4", C8_S4_PRODUCT),
    ("ideals_d4xd4_all", ["ideals", "classify", D4XD4, D4XD4_TOWER, "--all"]),
    ("abmaps_D50", ["abmaps", "enumerate", '{"kind":"dihedral","n":50}']),
    ("abmaps_C2xS4", ["abmaps", "enumerate", '{"kind":"product","factors":['
                      '{"kind":"cyclic","n":2},{"kind":"symmetric","n":4}]}']),
    ("abmaps_S5", ["abmaps", "enumerate", '{"kind":"symmetric","n":5}']),
    ("abmaps_C2xD4", ["abmaps", "enumerate", '{"kind":"product","factors":['
                      '{"kind":"cyclic","n":2},{"kind":"dihedral","n":4}]}'])])
def test_stdout_matches_recorded_digest(capsys, name, argv):
    recorded = json.loads(RECORDED.read_text())
    want = next(section[name] for section in recorded.values() if name in section)
    code, out, _ = run(capsys, argv)
    assert {"exit": code, "sha256": hashlib.sha256(out.encode()).hexdigest()} == want


README = Path(__file__).resolve().parents[1] / "README.md"


def test_readme_cli_examples_run(tmp_path, monkeypatch, capsys):
    """Every command in the README's CLI block exits 0 and prints JSON, run
    in a directory that holds the files its `echo` lines write."""
    section = README.read_text(encoding="utf-8").split("\n## CLI\n", 1)[1]
    block = re.search(r"```sh\n(.*?)```", section, re.S).group(1)
    monkeypatch.chdir(tmp_path)
    commands = 0
    for line in block.replace("\\\n", " ").splitlines():
        words = shlex.split(line, comments=True)
        if not words:
            continue
        if words[0] == "echo":
            assert len(words) == 4 and words[2] == ">", line
            Path(words[3]).write_text(words[1] + "\n")
            continue
        assert words[0] == "skewbracoid", line
        code, out, err = run(capsys, words[1:])
        assert code == 0, (line, err)
        json.loads(out)
        commands += 1
    assert commands
