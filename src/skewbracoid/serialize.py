"""Canonical JSON export, its reader, and spec parsing.

Exports are canonical (sorted keys, no insignificant whitespace) so golden
files diff stably; exporting the same value twice is byte-identical.

`export_json` writes tables and maps in bulk.  Each table, and each list
made only of maps (a lone map is such a list without its brackets), stands
in the tree as one placeholder.  A table goes through one byte lookup of
entry texts; a list's image arrays are stacked per run of one length and
written by the same lookup, in blocks whose rows are joined with the text
around each image (its flags and provenance), which json.dumps writes once
per distinct set of them.  The bytes are those of json.dumps on the nested
lists: the lookup holds json.dumps's own text of each integer, and a map's
text is its sorted-key dict, whose only entry that differs between two
maps with the same flags and provenance is the image array.
"""

from __future__ import annotations

import itertools
import json
import operator
import re
import secrets

import numpy as np

from . import groups, maps
from .bracoids import Bracoid, BracoidReport
from .braces import BraceReport, OpTable, SkewBrace
from .errors import InternalConsistencyError, PreconditionError
from .groups import CosetSpace, FiniteGroup, Subgroup
from .ideals import IdealVerdict
from .maps import GroupMap
from .ybe import NondegeneracyReport, YbeReport, YbeSolution


def _tree(value, table, write_maps=None):
    """`value` as JSON data, with `table` applied to each 2-D integer table
    (a Cayley table, an operation table, an action, lambda and rho) and to
    each map's image array; `write_maps`, if given, writes each list (or
    tuple) made only of GroupMaps, and each GroupMap elsewhere, in place of
    its dicts: write_maps(maps, bracketed), with the list's brackets or,
    for a lone map, none."""
    if isinstance(value, GroupMap):
        if write_maps is not None:
            return write_maps((value,), False)
        return {
            "image_array": table(value.image_of),
            "flags": {
                "is_hom": True,
                "abelian_image": value.abelian_image,
                "idempotent": value.idempotent,
                "fixed_point_free": value.fixed_point_free,
            },
            "provenance": value.provenance,
        }
    if isinstance(value, (bool, int, float, str)) or value is None:
        return value
    if isinstance(value, (np.integer,)):
        return int(value)
    if isinstance(value, np.ndarray):
        return value.tolist()
    if isinstance(value, (list, tuple)):
        if write_maps is not None and value and isinstance(value[0], GroupMap) \
                and all(map(isinstance, value, itertools.repeat(GroupMap))):
            return write_maps(value, True)
        return [_tree(v, table, write_maps) for v in value]
    if isinstance(value, dict):
        return {str(k): _tree(v, table, write_maps) for k, v in value.items()}
    if isinstance(value, FiniteGroup):
        return {
            "order": value.order,
            "mul": table(value.mul),
            "inv": value.inv.tolist(),
            "names": list(value.names),
            "generators": list(value.generators) if value.generators else None,
        }
    if isinstance(value, Subgroup):
        return {"members": list(value.members), "order": value.order}
    if isinstance(value, CosetSpace):
        return {"coset_of": value.coset_of.tolist(),
                "representatives": value.representatives.tolist()}
    if isinstance(value, OpTable):
        return {"label": value.label, "order": value.order,
                "table": table(value.op)}
    if isinstance(value, SkewBrace):
        return {"additive": _tree(value.additive, table, write_maps),
                "multiplicative": _tree(value.multiplicative, table, write_maps)}
    if isinstance(value, Bracoid):
        return {"acting": _tree(value.acting, table, write_maps),
                "target": _tree(value.target, table, write_maps),
                "action": table(value.action),
                "provenance": _tree(value.provenance, table, write_maps)}
    if isinstance(value, YbeSolution):
        return {"order": value.set_order, "lambda": table(value.lam),
                "rho": table(value.rho),
                "provenance": _tree(value.provenance, table, write_maps)}
    if isinstance(value, (BraceReport, BracoidReport, IdealVerdict,
                          YbeReport, NondegeneracyReport)):
        return value.to_jsonable()
    raise PreconditionError(f"cannot serialize value of type {type(value).__name__}")


def to_jsonable(value):
    return _tree(value, np.ndarray.tolist)


# Tables and lists of maps stand in the tree as "<token><index>", their text
# spliced in after json.dumps; load_json stands a table's text in as
# "0.<token><index>".  The token is random and decimal; export_json refuses an
# export in which a user string matches a placeholder, and load_json does not
# splice a text with it.
_TOKEN = f"{secrets.randbelow(10 ** 32):032d}"
_PLACEHOLDER = re.compile(f'"{_TOKEN}(\\d+)"')


def _is_table(t: np.ndarray) -> bool:
    """Whether `t` is written as a table: a nonempty 2-D integer array whose
    entries index its rows or columns (`_table_texts` looks them up)."""
    return bool(t.ndim == 2 and t.dtype.kind in "iu" and t.size
                and t.min() >= 0 and t.max() < max(t.shape))


def _cells(n: int) -> np.ndarray:
    """The byte lookup for entries below n: the text of each entry i followed
    by "," (i) or by "]" (n + i, for the last column), and ",[" (2n),
    NUL-padded to one width."""
    return np.array([f"{i}," for i in range(n)] + [f"{i}]" for i in range(n)] + [",["],
                    dtype=f"S{len(str(n - 1)) + 1}")


def _table_text(t: np.ndarray, cells: np.ndarray) -> str:
    """The canonical JSON text of table `t`, whose entries lie below the n of
    `cells`, written by one byte lookup per block of rows instead of a
    Python int or string per cell.

    A block of rows is gathered from the lookup with ",[" after each row,
    its padding deleted and its bytes decoded; joined, the blocks end in
    ",[", which is cut.  A block's index and byte arrays, (cols + 1) x (8 +
    the lookup's width) bytes a row, take at most SWEEP_BLOCK_BYTES / 16, so
    the writer's peak is the text twice (its blocks and their join), not the
    whole table's index and byte arrays."""
    n, cols = len(cells) // 2, t.shape[1]
    spans = groups.blocks(len(t), 16 * (cols + 1) * (8 + cells.itemsize))
    index = np.empty((spans[0].stop, cols + 1), dtype=np.intp)
    index[:, cols] = 2 * n
    parts = ["[["]
    for s in spans:
        block = index[:s.stop - s.start]
        block[:, :cols] = t[s]  # in intp, where n + i cannot wrap
        block[:, cols - 1] += n
        # translate, not replace: stacked map images hold a NUL every few
        # bytes, where replace's copy per match costs more than the scan
        parts.append(cells[block].tobytes().translate(None, b"\0").decode())
    parts[-1] = parts[-1][:-2] + "]"
    return "".join(parts)


def _table_texts(tables: list) -> list[str]:
    """The canonical JSON text of each table, through one lookup made for
    the largest table side."""
    cells = _cells(max(max(t.shape) for t in tables))
    return [_table_text(t, cells) for t in tables]


_FLAGS = operator.attrgetter("abelian_image", "idempotent", "fixed_point_free", "provenance")
_IMAGE, _CODOMAIN = operator.attrgetter("image_of"), operator.attrgetter("codomain")


def _map_ends(m: GroupMap) -> tuple[str, str]:
    """The canonical JSON text of map `m` before and after the entries of its
    image array, the first after a ",": its `_tree` dict, written with a
    placeholder for the image."""
    parts = _PLACEHOLDER.split(json.dumps(_tree(m, lambda t: f"{_TOKEN}0"),
                                          sort_keys=True, separators=(",", ":")))
    if len(parts) != 3:
        raise InternalConsistencyError(
            f"{len(parts) // 2} image placeholders in the export of one map")
    return f",{parts[0]}[", f"]{parts[2]}"


def _maps_text(heads: tuple, images: list, tails: tuple, bracketed: bool,
               cells: np.ndarray) -> str:
    """The text of a list of maps, each given by its head, image array and
    tail (`_map_ends`), within brackets if `bracketed`.

    Each run of images of one length is stacked in blocks of the rows that
    `_table_text` writes at once; each block is range-checked, written as
    one table and split into rows, which slice assignment interleaves with
    the heads and tails, and the block's text is joined.  Joined, the
    blocks are the text: the peak is the text twice and about one block."""
    lengths = list(map(len, images))
    cuts = [0, *itertools.compress(itertools.count(1), map(operator.ne, lengths, lengths[1:])),
            len(images)]
    texts = ["["] if bracketed else []
    for lo, hi in zip(cuts, cuts[1:]):
        length = lengths[lo]
        for s in groups.blocks(hi - lo, 16 * (length + 1) * (8 + cells.itemsize)):
            s = slice(lo + s.start, lo + s.stop)
            block = np.concatenate(images[s]).reshape(-1, length)
            if not (block.dtype.kind in "iu" and block.min() >= 0
                    and block.max() < len(cells) // 2):
                raise InternalConsistencyError("a map's image lies outside its codomain")
            parts = [None] * (3 * (s.stop - s.start))
            parts[0::3], parts[2::3] = heads[s], tails[s]
            parts[1::3] = _table_text(block, cells)[2:-2].split("],[")
            if s.start == 0:
                parts[0] = parts[0][1:]  # no "," before the first map
            texts.append("".join(parts))
    if bracketed:
        texts.append("]")
    return "".join(texts)


def _spliced_texts(spliced: list) -> list[str]:
    """The text of each table, and of each list of maps given as (heads,
    image arrays, tails, bracketed, largest codomain order), in `spliced`,
    all through one lookup made for the largest table side or codomain
    order."""
    cells = _cells(max(max(s.shape) if isinstance(s, np.ndarray) else s[4] for s in spliced))
    return [_table_text(s, cells) if isinstance(s, np.ndarray) else _maps_text(*s[:4], cells)
            for s in spliced]


def export_json(value) -> str:
    """Canonical JSON of `value`: the bytes of json.dumps(to_jsonable(value),
    sort_keys=True, separators=(",", ":")), with each table and each list of
    maps spliced in by `_spliced_texts`.  A map's text around its image
    array is that of its flags and provenance alone, written once per
    distinct set of them."""
    spliced, ends = [], {}

    def record(t: np.ndarray):
        if _is_table(t):
            spliced.append(t)
            return f"{_TOKEN}{len(spliced) - 1}"
        return t.tolist()

    def write_maps(ms, bracketed: bool) -> str:
        keys = list(map(_FLAGS, ms))
        for key, m in dict(zip(keys, ms)).items():
            if key not in ends:
                ends[key] = _map_ends(m)
        heads, tails = zip(*map(ends.__getitem__, keys))
        spliced.append((heads, list(map(_IMAGE, ms)), tails, bracketed,
                        max(G.order for G in set(map(_CODOMAIN, ms)))))
        return f"{_TOKEN}{len(spliced) - 1}"

    text = json.dumps(_tree(value, record, write_maps), sort_keys=True, separators=(",", ":"))
    if not spliced:
        return text
    parts = _PLACEHOLDER.split(text)  # text, index, text, ..., index, text
    if len(parts) != 2 * len(spliced) + 1:
        raise InternalConsistencyError(
            f"{len(parts) // 2} placeholders in the export for {len(spliced)} entries")
    texts = _spliced_texts(spliced)
    parts[1::2] = [texts[int(i)] for i in parts[1::2]]
    return "".join(parts)


_BLANK_BRACKETS = bytes.maketrans(b"[]", b"  ")


def _read_table(span: str) -> np.ndarray | None:
    """The table that `_table_texts` writes as `span`, byte for byte, else None;
    `groups.frozen`, so `from_table` keeps it uncopied.

    NumPy reads the entries with the brackets blanked, so it skips them as
    it skips spaces, and the first row gives the column count.  That read
    takes more than the canonical text (spaces, leading zeros, a plus sign,
    ragged rows whose total divides), so the write-back is the only test."""
    try:  # on text it cannot read, NumPy 2 raises, NumPy 1 warns and returns a part
        flat = np.fromstring(span.encode().translate(_BLANK_BRACKETS), dtype=np.int64, sep=",")
        table = flat.reshape(-1, span.count(",", 0, span.find("]")) + 1)
    except (ValueError, DeprecationWarning):  # the warning, where warnings are errors
        return None
    return groups.frozen(table) if _is_table(table) and _table_texts([table])[0] == span else None


def load_json(text: str):
    """json.loads(text), except that each `[[...]]` span that `_table_texts`
    writes back byte for byte is read by NumPy, an int64 array in place of
    its lists."""
    if _TOKEN in text:
        return json.loads(text)
    parts, tables, done, pos = [], {}, 0, 0
    while (start := text.find("[[", pos)) >= 0 and (pos := text.find("]]", start) + 2) > 1:
        table = _read_table(text[start:pos])
        if table is not None:
            parts += [text[done:start], f"0.{_TOKEN}{len(tables)}"]
            tables[parts[-1]], done = table, pos
    if not tables:  # parse_float would be a Python call per float
        return json.loads(text)
    try:
        obj = json.loads("".join(parts) + text[done:],
                         parse_float=lambda s: tables.pop(s) if s in tables else float(s))
    except json.JSONDecodeError:
        return json.loads(text)  # raises with the positions in `text`
    # a placeholder left over stood inside a string: read the text as it is
    return json.loads(text) if tables else obj


def export_pretty(value) -> str:
    return json.dumps(to_jsonable(value), sort_keys=True, indent=2)


def parse_group(obj: dict, *, order_cap: int = groups.DEFAULT_ORDER_CAP) -> FiniteGroup:
    """Accept either a GroupSpec or a previously exported group."""
    if not isinstance(obj, dict):
        raise PreconditionError("not a recognizable group spec")
    if "kind" in obj:
        return groups.build_group(obj, order_cap=order_cap)
    if "mul" in obj:  # an export is a table spec, whose order and inv its table fixes
        G = groups.build_group({**obj, "kind": "table"}, order_cap=order_cap)
        for key, value in (("order", G.order), ("inv", G.inv)):
            if key in obj and not np.array_equal(groups.int_array(obj[key], key), value):
                raise PreconditionError(f"the export's {key!r} disagrees with its table")
        return G
    raise PreconditionError("not a recognizable group spec")


def _spec_or_given(obj: dict, key: str, given, order_cap: int) -> FiniteGroup | None:
    """The group `given` by the caller, else the one that obj[key] specifies;
    PreconditionError if both name a group and their tables differ."""
    if key not in obj:
        return given
    named = parse_group(obj[key], order_cap=order_cap)
    if given is not None and not np.array_equal(named.mul, given.mul):
        raise PreconditionError(f"the map spec's {key!r} is not the group it is given with")
    return named if given is None else given


def parse_map(obj: dict, group: FiniteGroup | None = None,
              codomain: FiniteGroup | None = None,
              *, order_cap: int = groups.DEFAULT_ORDER_CAP) -> GroupMap:
    """Map spec: {"group": spec?, "codomain": spec?, "images": {...}} or
    {"image_array": [...]}; the caller may supply the domain and codomain, and
    a spec's own must then have the same table (the codomain defaults to the domain)."""
    G = _spec_or_given(obj, "group", group, order_cap)
    if G is None:
        raise PreconditionError("map spec needs a domain group")
    Gp = _spec_or_given(obj, "codomain", codomain, order_cap) or G
    if "image_array" in obj:
        return maps.make_map(G, Gp, obj["image_array"])
    if "images" in obj:
        return maps.make_map(G, Gp, obj["images"])
    raise PreconditionError("map spec needs 'images' or 'image_array'")
