"""Skew bracoids: a group acting transitively on another group such that

    g (+) (eta * mu) = (g (+) eta) * (g (+) e_N)^-1 * (g (+) mu).

Constructors take classified subgroups (the C1 / C2 routes), the phi-tower,
or quotient data; every constructed bracoid is verified exhaustively.  A coset
target or reduced acting group is a group as a quotient, with no table check.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from . import braces, groups, maps
from .braces import OpTable
from .errors import InternalConsistencyError, PreconditionError
from .groups import FiniteGroup, Subgroup
from .maps import GroupMap


@dataclass(frozen=True, eq=False)
class Bracoid:
    acting: OpTable
    target: OpTable
    action: np.ndarray  # [acting element, target element] -> target element
    provenance: dict

    def __post_init__(self):
        try:
            action = np.asarray(self.action)  # a nested list too
        except ValueError:  # NumPy's refusal of a ragged nested list
            raise PreconditionError("action is ragged") from None
        object.__setattr__(self, "action", groups.read_only(action, self.action))

    @property
    def acting_order(self) -> int:
        return self.acting.order

    @property
    def target_order(self) -> int:
        return self.target.order

    def __repr__(self):
        return (f"Bracoid(acting={self.acting_order}, target={self.target_order}, "
                f"via={self.provenance.get('construction')!r})")


@dataclass(frozen=True, eq=False)
class BracoidReport:
    action_valid: bool
    transitive: bool
    relation_holds: bool
    first_failure: tuple | None = None

    @property
    def ok(self) -> bool:
        return self.action_valid and self.transitive and self.relation_holds

    def to_jsonable(self) -> dict:
        return {"action_valid": self.action_valid, "transitive": self.transitive,
                "relation_holds": self.relation_holds,
                "first_failure": list(self.first_failure) if self.first_failure else None}


def verify_bracoid(b: Bracoid) -> BracoidReport:
    """Exact check of the action axioms, transitivity, and the bracoid relation
    on group tables; reports the lexicographically first failing witness."""
    act = b.action
    n, m = b.acting_order, b.target_order
    if act.shape != (n, m) or act.dtype.kind not in "iu" or not 0 <= act.min() <= act.max() < m:
        raise PreconditionError(f"action table must be {n} x {m}, of integers in 0..{m - 1}")
    # e acts as the identity and the action respects the acting product
    if not np.array_equal(act[0], np.arange(m)):
        return BracoidReport(False, False, False, (0,))
    failure = groups.action_failure(act, b.acting.group)
    if failure is not None:
        return BracoidReport(False, False, False, failure)
    transitive = len(set(act[:, 0].tolist())) == m
    T = b.target.group
    failure = groups.relation_failure(act, T, T.inv[act[:, 0]])
    return BracoidReport(True, transitive, failure is None, failure)


def _require_valid(b: Bracoid) -> Bracoid:
    report = verify_bracoid(b)
    if not report.ok:
        raise InternalConsistencyError(
            f"constructed bracoid failed verification: {report.to_jsonable()}")
    return b


def _coset_bracoid(acting: OpTable, target: OpTable, H: Subgroup, opposite: bool,
                   provenance: dict) -> Bracoid:
    """(G, *, G/H, o, (+)) with g (+) xH = (g * x)H, for the acting table * and
    the target table o (transposed when `opposite`) on H's parent G: o is pushed
    down to the left cosets of H, and * acts on them."""
    cs = groups.coset_space(H.parent, H)
    quotient = cs.quotient(target.op.T if opposite else target.op)
    action = cs.action(acting.op)
    if quotient is None or action is None:
        raise InternalConsistencyError("operation or action ill-defined on cosets")
    label = target.label + "'" if opposite else target.label
    return _require_valid(Bracoid(acting, OpTable(quotient, label), action, {
        **provenance, "subgroup": list(H.members), "opposite": opposite}))


def bracoid_from_C1(G: FiniteGroup, psi: GroupMap, H: Subgroup,
                    opposite: bool = False) -> Bracoid:
    """(G, ., G/H, o, (+)) with g (+) xH = (gx)H, for H satisfying C1."""
    if H.parent is not G:
        raise PreconditionError("subgroup does not belong to the given group")
    if not groups.commutator_condition(G, maps.phi_of(psi)[list(H.members)], H):
        raise PreconditionError("C1 fails: [G, phi(H)] is not contained in H")
    # o well-defined on the cosets gives y o H = (y o e)H = yH
    return _coset_bracoid(braces.table_of(G), braces.circle_table(G, psi), H, opposite,
                          {"construction": "from_C1", "C2": groups.is_normal(G, H)})


def bracoid_from_C2(G: FiniteGroup, psi: GroupMap, H: Subgroup,
                    opposite: bool = False) -> Bracoid:
    """(G, o, G/H, ., (+)) with g (+) xH = (g o x)H, for H normal in (G, .)."""
    if H.parent is not G:
        raise PreconditionError("subgroup does not belong to the given group")
    if not groups.is_normal(G, H):
        raise PreconditionError("C2 fails: H is not normal in (G, .)")
    provenance = {"construction": "from_C2",
                  "C1": groups.commutator_condition(G, maps.phi_of(psi)[list(H.members)], H)}
    if G.factors is not None and len(G.factors) == 2:
        for k in (0, 1):
            if list(H.members) == groups.factor_embedding(G, k):
                provenance["contained_candidates"] = [groups.factor_embedding(G, 1 - k)]
    return _coset_bracoid(braces.circle_table(G, psi), braces.table_of(G), H, opposite,
                          provenance)


def reduce_bracoid(b: Bracoid) -> Bracoid:
    """Quotient the acting group by the kernel of the action (the elements
    acting as the identity), yielding a faithful bracoid.  Idempotent."""
    kernel = np.flatnonzero((b.action == np.arange(b.target_order)).all(axis=1))
    if len(kernel) == 1:
        return b
    Gact = b.acting.group
    cs = groups.coset_space(Gact, Subgroup(Gact, kernel))
    quotient, action = cs.quotient(Gact.mul), cs.rows(b.action)
    if quotient is None or action is None:
        raise InternalConsistencyError("action kernel not normal or its cosets act differently")
    return _require_valid(Bracoid(OpTable(quotient, b.acting.label), b.target, action, {
        "construction": "reduced", "kernel": kernel.tolist(), "inner": b.provenance}))


def find_contained_brace(b: Bracoid) -> Subgroup | None:
    """A subgroup of the acting group whose restricted action on the target
    is regular, if one exists.

    Only subgroups of order exactly |target| can act regularly, so the
    search is restricted to those.  Candidates recorded by the constructor
    in provenance are tried first; the search then falls back to all
    subgroups in canonical (order, members) order.
    """
    m = b.target_order
    Gact = b.acting.group

    def regular(members) -> bool:
        return len(set(b.action[list(members), 0].tolist())) == m

    for cand in b.provenance.get("contained_candidates", []):
        try:
            S = Subgroup(Gact, tuple(cand))
        except PreconditionError:
            continue
        if S.order == m and regular(S.members):
            return S
    for S in groups.enumerate_subgroups(Gact):
        if S.order == m and regular(S.members):
            return S
    return None


def phi_tower_bracoid(G: FiniteGroup, psi: GroupMap, n: int) -> Bracoid:
    """(G, ., phi^n(G), ., (+)_n) with g (+)_n phi^n(x) = phi^n(gx)."""
    phin = maps.phi_power(psi, n)
    fs = groups.fibres(phin)
    members = phin[fs.representatives]  # target element i: the image of fibre i
    pos = np.full(G.order, -1, dtype=np.int64)  # -1 off the image: from_table refuses
    pos[members] = np.arange(len(members))
    target = OpTable(groups.from_table(groups.frozen(pos[G.mul[members[:, None], members]])), ".")
    action = fs.action(G.mul)  # None unless phi^n(gx) depends on x only via phi^n(x)
    if action is None:
        raise InternalConsistencyError("phi-tower action ill-defined")
    return _require_valid(Bracoid(braces.table_of(G), target, action, {
        "construction": "phi_tower", "n": n, "target_members": members.tolist(),
        "contained_candidates": [members.tolist()] if psi.idempotent else []}))
