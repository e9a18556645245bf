"""Classification of strong left ideals and ideals of the bi-skew braces
induced by an abelian map.

Two routes are always computed and cross-checked:

* the predicate route: C1 = "[g, phi(h)] in H for all g, h" and
  C2 = "H normal in (G, .)", mapped to brace labels;
* the definition route: for each labelled brace (A, M), check directly that
  H is a subgroup of (G, M), normal in (G, A), and gamma-stable, that is
  A-inverse(g) M(g, h) in H for all g and all h in H.  Only the tables of
  `.` and `o` are built: an opposite operation, x .' y = y . x, is read
  from its original's table with the arguments swapped.

Normality in (G, o) and gamma-stability are tests that H is a union of
orbits of a partition computed once per psi.  This is exact: each map
h -> f_g(h) tested is a permutation of G, made of translations in the
tables of `.` and `o`, so f_g(H) in H iff f_g(H) = H; that holds for
every g iff H is a union of orbits of the group the f_g generate.  Every
g is used: reducing to generators needs the brace relation, which the
definition route exists to cross-check.

A disagreement would contradict the classification theorem and raises
InternalConsistencyError.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from . import braces, groups, maps
from .errors import InternalConsistencyError, PreconditionError
from .groups import FiniteGroup, Subgroup
from .maps import GroupMap

# brace labels, written (additive, multiplicative)
SLI_LABELS = ("(o,.)", "(o',.)", "(.,o)", "(.',o)")
IDEAL_LABELS = ("(.,o)", "(.,o')", "(o',.)")
# conjugation in o, then the gamma maps of these braces
FAMILIES = ("o", "(o,.)", "(o',.)", "(.,o)", "(.',o)", "(.,o')")


@dataclass(eq=False)
class IdealVerdict:
    subgroup: Subgroup
    C1: bool
    C2: bool
    strong_left_ideal_of: tuple[str, ...]
    ideal_of: tuple[str, ...]

    def to_jsonable(self) -> dict:
        return {
            "subgroup": list(self.subgroup.members),
            "order": self.subgroup.order,
            "C1": self.C1,
            "C2": self.C2,
            "strong_left_ideal_of": list(self.strong_left_ideal_of),
            "ideal_of": list(self.ideal_of),
        }


def _brace_tables(G: FiniteGroup, psi: GroupMap) -> dict:
    """The table of `o` ("circ"), the image array of phi ("phi"), and per
    entry of FAMILIES the orbit roots of h -> f_g(h), g in G ("roots"),
    found as one partition of six disjoint copies of G."""
    dot, inv, n = G.mul, G.inv, G.order
    circle = braces.circle_table(G, psi).group
    circ, cinv = circle.mul, circle.inv
    perms = (lambda g: circ[circ[g], cinv[g][:, None]],
             lambda g: circ[cinv[g][:, None], dot[g]],
             lambda g: circ[dot[g], cinv[g][:, None]],
             lambda g: dot[inv[g][:, None], circ[g]],
             lambda g: dot[circ[g], inv[g][:, None]],
             lambda g: dot[inv[g][:, None], circ[:, g].T])
    roots = groups.orbit_roots(
        lambda g: np.hstack([f(g) + k * n for k, f in enumerate(perms)]), n, 6 * n)
    return {"circ": circ, "phi": maps.phi_of(psi).image_of,
            "roots": roots.reshape(6, n) - n * np.arange(6)[:, None]}


def classify_subgroup(G: FiniteGroup, psi: GroupMap, H: Subgroup,
                      tables: dict | None = None) -> IdealVerdict:
    """Verdict for a single subgroup, predicate vs definition cross-checked.

    `tables`, made once per psi by `find_strong_left_ideals`, holds the
    table of `o`, phi and the orbit roots."""
    if H.parent is not G:
        raise PreconditionError("subgroup does not belong to the given group")
    maps.require_abelian_endomorphism(psi)
    tables = tables or _brace_tables(G, psi)
    mask, members = H.member_mask(), np.asarray(H.members)
    C1 = groups.commutator_condition(G, tables["phi"][members], H)
    C2 = groups.is_normal(G, H)

    sli_pred = []
    if C1:
        sli_pred += ["(o,.)", "(o',.)"]
    if C2:
        sli_pred += ["(.,o)", "(.',o)"]
    ideal_pred = list(IDEAL_LABELS) if (C1 and C2) else []

    # H is a subgroup of (G, .) already, and C2 is its normality there.  An
    # opposite operation has the subgroups and normal subgroups of its
    # original, so only the gamma checks tell the opposites apart.
    union = dict(zip(FAMILIES, (mask[tables["roots"]] == mask).all(axis=1).tolist()))
    # a finite subset closed under o is a subgroup of (G, o)
    circ = tables["circ"]
    step = max(1, groups.SWEEP_BLOCK_BYTES // (8 * len(members)))
    sub_o = all(mask[circ[members[i:i + step, None], members]].all()
                for i in range(0, len(members), step))
    normal_o = union["o"]
    direct = {label: (normal_o if label in ("(o,.)", "(o',.)") else sub_o and C2)
              and union[label] for label in FAMILIES[1:]}
    # an ideal is also normal in (G, M)
    normal_m = {"(.,o)": normal_o, "(.,o')": normal_o, "(o',.)": C2}
    sli_direct = [label for label in SLI_LABELS if direct[label]]
    ideal_direct = [label for label in IDEAL_LABELS
                    if direct[label] and normal_m[label]]

    if sorted(sli_pred) != sorted(sli_direct) or sorted(ideal_pred) != sorted(ideal_direct):
        raise InternalConsistencyError(
            "predicate and definition classifications disagree for "
            f"H={H.members}: predicate slis={sorted(sli_pred)} "
            f"direct={sorted(sli_direct)}, predicate ideals={sorted(ideal_pred)} "
            f"direct={sorted(ideal_direct)}")
    order = {label: i for i, label in enumerate(SLI_LABELS + IDEAL_LABELS)}
    return IdealVerdict(H, C1, C2,
                        tuple(sorted(sli_pred, key=order.get)),
                        tuple(sorted(ideal_pred, key=order.get)))


@dataclass(eq=False)
class NamedSubgroups:
    """The classifiable subgroups the theory names for a given (G, psi)."""

    group: FiniteGroup
    psi: GroupMap
    ker: Subgroup
    fix: Subgroup
    h_hat: Subgroup

    def ker_times(self, H1: Subgroup) -> Subgroup:
        """The set product (ker psi) * H1, for H1 <= fix psi."""
        if not H1.member_set() <= self.fix.member_set():
            raise PreconditionError("H1 must be a subgroup of fix psi")
        G = self.group
        prod = {int(G.mul[k, h]) for k in self.ker.members for h in H1.members}
        try:
            return Subgroup(G, tuple(sorted(prod)))
        except PreconditionError as exc:
            raise InternalConsistencyError(
                "ker psi * H1 failed its subgroup check") from exc


def named_subgroups(G: FiniteGroup, psi: GroupMap) -> NamedSubgroups:
    analysis = maps.map_analysis(psi)
    if analysis.fix is None:
        raise PreconditionError("named subgroups need an endomorphism")
    phi = maps.phi_of(psi)
    hat = tuple(np.flatnonzero(groups.center(G).member_mask()[phi.image_of]).tolist())
    try:
        h_hat = Subgroup(G, hat)
    except PreconditionError as exc:
        raise InternalConsistencyError("h_hat failed its subgroup check") from exc
    if not analysis.fix.member_set() <= h_hat.member_set():
        raise InternalConsistencyError("fix psi is not contained in h_hat")
    return NamedSubgroups(G, psi, analysis.kernel, analysis.fix, h_hat)


def find_strong_left_ideals(G: FiniteGroup, psi: GroupMap) -> list[IdealVerdict]:
    """Verdicts for every subgroup of G, in canonical (order, members) order."""
    tables = _brace_tables(G, psi)
    return [classify_subgroup(G, psi, H, tables)
            for H in groups.enumerate_subgroups(G)]
