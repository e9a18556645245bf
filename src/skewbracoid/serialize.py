"""Canonical JSON export and spec parsing.

Exports are canonical (sorted keys, no insignificant whitespace) so golden
files diff stably; exporting the same value twice is byte-identical.
"""

from __future__ import annotations

import json

import numpy as np

from . import groups, maps
from .bracoids import Bracoid, BracoidReport
from .braces import BraceReport, OpTable, SkewBrace
from .errors import PreconditionError
from .groups import CosetSpace, FiniteGroup, Subgroup
from .ideals import IdealVerdict
from .maps import GroupMap
from .ybe import NondegeneracyReport, YbeReport, YbeSolution


def to_jsonable(value):
    if isinstance(value, (bool, int, float, str)) or value is None:
        return value
    if isinstance(value, (np.integer,)):
        return int(value)
    if isinstance(value, np.ndarray):
        return value.tolist()
    if isinstance(value, (list, tuple)):
        return [to_jsonable(v) for v in value]
    if isinstance(value, dict):
        return {str(k): to_jsonable(v) for k, v in value.items()}
    if isinstance(value, FiniteGroup):
        return {
            "order": value.order,
            "mul": value.mul.tolist(),
            "inv": value.inv.tolist(),
            "names": list(value.names),
            "generators": list(value.generators) if value.generators else None,
        }
    if isinstance(value, Subgroup):
        return {"members": list(value.members), "order": value.order}
    if isinstance(value, CosetSpace):
        return {"coset_of": value.coset_of.tolist(),
                "representatives": value.representatives.tolist()}
    if isinstance(value, GroupMap):
        return {
            "image_array": value.image_of.tolist(),
            "flags": {
                "is_hom": True,
                "abelian_image": value.abelian_image,
                "idempotent": value.idempotent,
                "fixed_point_free": value.fixed_point_free,
            },
            "provenance": value.provenance,
        }
    if isinstance(value, OpTable):
        return {"label": value.label, "order": value.order,
                "table": value.op.tolist()}
    if isinstance(value, SkewBrace):
        return {"additive": to_jsonable(value.additive),
                "multiplicative": to_jsonable(value.multiplicative)}
    if isinstance(value, Bracoid):
        return {"acting": to_jsonable(value.acting),
                "target": to_jsonable(value.target),
                "action": value.action.tolist(),
                "provenance": to_jsonable(value.provenance)}
    if isinstance(value, YbeSolution):
        return {"order": value.set_order, "lambda": value.lam.tolist(),
                "rho": value.rho.tolist(),
                "provenance": to_jsonable(value.provenance)}
    if isinstance(value, (BraceReport, BracoidReport, IdealVerdict,
                          YbeReport, NondegeneracyReport)):
        return value.to_jsonable()
    raise PreconditionError(f"cannot serialize value of type {type(value).__name__}")


def export_json(value) -> str:
    return json.dumps(to_jsonable(value), sort_keys=True, separators=(",", ":"))


def export_pretty(value) -> str:
    return json.dumps(to_jsonable(value), sort_keys=True, indent=2)


def parse_group(obj: dict, *, order_cap: int = groups.DEFAULT_ORDER_CAP) -> FiniteGroup:
    """Accept either a GroupSpec or a previously exported group."""
    if "kind" in obj:
        return groups.build_group(obj, order_cap=order_cap)
    if "mul" in obj:  # an export is a table spec
        return groups.build_group({**obj, "kind": "table"}, order_cap=order_cap)
    raise PreconditionError("not a recognizable group spec")


def parse_map(obj: dict, group: FiniteGroup | None = None,
              codomain: FiniteGroup | None = None,
              *, order_cap: int = groups.DEFAULT_ORDER_CAP) -> GroupMap:
    """Map spec: {"group": spec?, "codomain": spec?, "images": {...}} or
    {"image_array": [...]}; domain and codomain may also be supplied by the
    caller (the codomain defaults to the domain)."""
    G = parse_group(obj["group"], order_cap=order_cap) if "group" in obj else group
    if G is None:
        raise PreconditionError("map spec needs a domain group")
    if "codomain" in obj:
        Gp = parse_group(obj["codomain"], order_cap=order_cap)
    else:
        Gp = codomain if codomain is not None else G
    if "image_array" in obj:
        return maps.make_map(G, Gp, obj["image_array"])
    if "images" in obj:
        return maps.make_map(G, Gp, obj["images"])
    raise PreconditionError("map spec needs 'images' or 'image_array'")
