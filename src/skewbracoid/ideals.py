"""Classification of strong left ideals and ideals of the bi-skew braces
induced by an abelian map.

Two routes are computed, as columns over all subgroups, and cross-checked:

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
# the predicate route: the labels per (C1, C2), in the order a verdict lists them
PREDICATE_LABELS = {(False, False): ((), ()), (True, False): (("(o,.)", "(o',.)"), ()),
                    (False, True): (("(.',o)", "(.,o)"), ()),
                    (True, True): (("(o,.)", "(.',o)", "(.,o)", "(o',.)"), IDEAL_LABELS)}


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
    return {"circ": circ, "phi": maps.phi_of(psi),
            "roots": roots.reshape(6, n) - n * np.arange(6)[:, None]}


def _columns(G: FiniteGroup, tables: dict, rows: dict, subgroups) -> list[tuple]:
    """(C1, C2) of each subgroup of `rows` (a `groups.subgroup_lattice`
    record, whose rows `subgroups` names), once the labels that both routes
    give agree, each computed as one column over the rows."""
    M, C2 = rows["masks"], rows["normal"]
    # [g, phi(h)] in H for every h in H: K is read at e off H
    C1 = groups.commutator_condition(G, np.where(M, tables["phi"], 0), M,
                                     rows["commutes"])
    # H is a subgroup of (G, .) already, and C2 is its normality there.  An
    # opposite operation has the subgroups and normal subgroups of its
    # original, so only the gamma checks tell the opposites apart.
    # whether each row is a union of orbits of each partition of FAMILIES
    normal_o, *gamma = (M[:, tables["roots"]] == M[:, None]).all(axis=2).T
    # a finite subset closed under o is a subgroup of (G, o)
    sub = _closed(tables["circ"], M, rows["stacks"]) & C2
    direct = np.array([normal_o, normal_o, sub, sub, sub]) & gamma
    # SLI_LABELS then IDEAL_LABELS; an ideal is also normal in (G, M)
    found = np.vstack([direct[:4], direct[[2, 4]] & normal_o, direct[1] & C2])
    pred = np.array([C1, C1, C2, C2] + [C1 & C2] * 3)
    if (bad := (found != pred).any(axis=0)).any():
        i, kinds = int(np.argmax(bad)), ["strong left ideal"] * 4 + ["ideal"] * 3
        raise InternalConsistencyError(
            f"predicate and definition classifications disagree for H={subgroups[i].members}: "
            + ", ".join(f"{kind} of {label}: predicate {p}, direct {d}" for kind, label, p, d
                        in zip(kinds, SLI_LABELS + IDEAL_LABELS, pred[:, i].tolist(),
                               found[:, i].tolist()) if p != d))
    return list(zip(C1.tolist(), C2.tolist()))


def _closed(circ: np.ndarray, masks: np.ndarray, stacks) -> np.ndarray:
    """Whether each row of `masks` is closed under o: per member stack P
    (k x m), whether each P[r, i] o P[r, j] lies in row r, gathered for blocks
    of i whose int64 arrays take at most SWEEP_BLOCK_BYTES or the size of P."""
    closed, lo = [], 0
    for P in stacks:
        rows, step = np.arange(lo, lo + len(P))[:, None, None], \
            max(1, groups.SWEEP_BLOCK_BYTES // (8 * P.size))
        closed.append(np.logical_and.reduce([
            masks[rows, circ[P[:, i:i + step, None], P[:, None]]].all(axis=(1, 2))
            for i in range(0, P.shape[1], step)]))
        lo += len(P)
    return np.concatenate(closed)


def classify_subgroup(G: FiniteGroup, psi: GroupMap, H: Subgroup,
                      row: tuple | None = None) -> IdealVerdict:
    """Verdict for a single subgroup, predicate vs definition cross-checked.

    `row` is H's (C1, C2) from the columns `find_strong_left_ideals` checked
    over the whole lattice.  Without a row, the same column code runs on
    the one-row stack [H]."""
    if H.parent is not G:
        raise PreconditionError("subgroup does not belong to the given group")
    if row is None:
        row, = _columns(G, _brace_tables(G, psi), groups.subgroup_lattice(G, [H.members]), [H])
    return IdealVerdict(H, *row, *PREDICATE_LABELS[row])


@dataclass(eq=False)
class NamedSubgroups:
    """The classifiable subgroups the theory names for a given (G, psi)."""

    group: FiniteGroup
    psi: GroupMap
    ker: Subgroup
    fix: Subgroup
    h_hat: Subgroup


def named_subgroups(G: FiniteGroup, psi: GroupMap) -> NamedSubgroups:
    analysis = maps.map_analysis(psi)
    if analysis.fix is None:
        raise PreconditionError("named subgroups need an endomorphism")
    phi = maps.phi_of(psi)
    hat = tuple(np.flatnonzero(groups.center(G).member_mask()[phi]).tolist())
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
    subgroups = groups.enumerate_subgroups(G)
    rows = _columns(G, tables, groups.subgroup_lattice(G), subgroups)
    return [classify_subgroup(G, psi, H, row)
            for H, row in zip(subgroups, rows)]
