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
every g iff H is a union of orbits of the group the f_g generate.

`braces.circle_table` certifies that its table is exactly g o h =
phi(g) h psi(g), with g = phi(g) psi(g), phi and psi multiplicative from
(G, o) to (G, .), and psi a homomorphism of (G, .).  The o-inverse of g
is phi(g)^-1 psi(g)^-1, and the families f_g(h) read

    "o"       phi(g) phi(h) phi(g)^-1 psi(h)    "(.',o)"  phi(g) h phi(g)^-1
    "(o,.)"   psi(g) h psi(g)^-1                "(.,o)"   psi(g)^-1 h psi(g)
    "(o',.)"  g phi(h) g^-1 psi(h)              "(.,o')"  g^-1 phi(h) g psi(h)

Only the left column, FAMILIES, is computed.  Re-indexing: psi(g^-1) =
psi(g)^-1, so f^(.,o)_g = f^(o,.)_{g^-1} and f^(.,o')_g = f^(o',.)_{g^-1};
as g -> g^-1 is a bijection of G, each pair is one set of maps, with one
partition.  C2 decides the other two: f^(.,o) and f^(.',o) are
conjugations in (G, .), by psi(g)^-1 and phi(g), under which a normal
subgroup is stable.  Both are tested only beside C2 (see below), so strong
left ideals of (.,o) and (.',o) are C2 on both routes, and not compared.

Each {f_g : g in G} is a group, so the orbit of h is {f_g(h) : g in G}
and its least point is the least f_g(h) over g.  Proof: "(o,.)" is
conjugation by psi(g); "o" and "(o',.)" are f_g(h) = c_g(phi(h)) psi(h),
c_g conjugation by phi(g) and g; psi has abelian image, so psi(f_k(h)) =
psi(phi(h) psi(h)) = psi(h) and phi(f_k(h)) = c_k(phi(h)): f_g f_k is
f_{g o k} for "o" and f_{gk} for the others, an action of (G, o) or (G, .).

The labels "(.,o)", "(.',o)" and "(.,o')" need H to be a subgroup of
(G, o) or (G, o') and normal in (G, .), that is C2; C2 alone gives both,
so no closure under o is computed.  Proof: H is a subgroup of (G, .), as
`Subgroup` checks or the lattice built it.  For h, k in H, h = phi(h)
psi(h) gives h o k = phi(h) k psi(h) = (phi(h) k phi(h)^-1) h, so H is
closed under o iff phi(h) normalizes H for every h in H, as it does under
C2.  A finite subset closed under o is a subgroup of (G, o), and of
(G, o'), as x o' y = y o x.

The routes are compared as one boolean column per psi, true on the rows
where some label disagrees; the per-label arrays of both routes are built
only when it has a true row, to name the first disagreeing H and its
labels.  A disagreement would contradict the classification theorem and
raises InternalConsistencyError.
"""

from __future__ import annotations

import functools
from dataclasses import dataclass

import numpy as np

from . import braces, groups, maps
from .errors import InternalConsistencyError, PreconditionError
from .groups import FiniteGroup, Subgroup
from .maps import GroupMap

# brace labels, written (additive, multiplicative)
SLI_LABELS = ("(o,.)", "(o',.)", "(.,o)", "(.',o)")
IDEAL_LABELS = ("(.,o)", "(.,o')", "(o',.)")
# conjugation in o, then the gamma maps of (o,.) and (o',.) (see the docstring)
FAMILIES = ("o", "(o,.)", "(o',.)")
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
    """The image array of phi ("phi"), and per entry of FAMILIES the orbit
    roots of h -> f_g(h), g in G ("roots"): the least f_g(h) over g, taken
    for blocks of g whose int64 arrays take at most SWEEP_BLOCK_BYTES."""
    circle, n = braces.circle_table(G, psi).group, G.order
    roots = functools.reduce(np.minimum, (_families(G, circle, g).min(axis=1)
                                          for g in groups.blocks(n, 8 * len(FAMILIES) * n)))
    # g o h = phi(g) h psi(g), as certified, at h = psi(g)^-1
    return {"phi": circle.mul[np.arange(n), G.inv[psi.image_of]], "roots": roots}


def _families(G: FiniteGroup, circle: FiniteGroup, g: slice) -> np.ndarray:
    """f_g(h) of each entry of FAMILIES, read from the tables of `.` and `o`,
    as a (families x g x h) array for the rows g and every h."""
    dot, circ, cinv = G.mul, circle.mul, circle.inv[g, None]
    return np.array([circ[circ[g], cinv], circ[cinv, dot[g]], circ[dot[g], cinv]])


def _columns(G: FiniteGroup, tables: dict, rows: dict, subgroups) -> list[tuple]:
    """(C1, C2) of each subgroup of `rows` (a `groups.subgroup_lattice`
    record, whose rows `subgroups` names), once the labels that both routes
    give agree, each computed as one column over the rows."""
    M, C2 = rows["masks"], rows["normal"]
    # [g, phi(h)] in H for every h in H: K is read at e off H
    C1 = groups.commutator_condition(G, np.where(M, tables["phi"], 0), M,
                                     rows["commutes"])
    # rows are subgroups of (G, .) and (G, .'), normal in both iff C2; per
    # FAMILIES, whether each row is a union of orbits of the partition
    normal_o, gamma, gamma_prime = unions = (M[:, tables["roots"]] == M[:, None]).all(axis=2).T
    # SLI_LABELS then IDEAL_LABELS, but for the strong left ideals of (.,o)
    # and (.',o): both routes give C2 (see the module docstring).  The
    # routes agree iff the first three labels do: the last two read
    # C2 & normal_o & gamma_prime, which is C1 & C2 once the second agrees
    bad = ((unions[1:] & normal_o) != C1).any(axis=0) | (C2 & (normal_o != C1))
    if bad.any():
        ideal = C2 & normal_o
        found = np.array([normal_o & gamma, normal_o & gamma_prime, ideal] + [ideal & gamma_prime] * 2)
        pred = np.array([C1] * 2 + [C1 & C2] * 3)
        i, kinds = int(np.argmax(bad)), ["strong left ideal"] * 2 + ["ideal"] * 3
        raise InternalConsistencyError(
            f"predicate and definition classifications disagree for H={subgroups[i].members}: "
            + ", ".join(f"{kind} of {label}: predicate {p}, direct {d}" for kind, label, p, d
                        in zip(kinds, SLI_LABELS[:2] + IDEAL_LABELS, pred[:, i].tolist(),
                               found[:, i].tolist()) if p != d))
    return list(zip(C1.tolist(), C2.tolist()))


def classify_subgroup(G: FiniteGroup, psi: GroupMap, H: Subgroup,
                      row: tuple | None = None) -> IdealVerdict:
    """Verdict for a single subgroup, predicate vs definition cross-checked.

    `row` is H's (C1, C2) from the columns `find_strong_left_ideals` checked
    over its subgroups.  Without a row, the same column code runs on the
    one-row stack [H]."""
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


def find_strong_left_ideals(G: FiniteGroup, psi: GroupMap,
                            subgroups: list[Subgroup] | None = None) -> list[IdealVerdict]:
    """Verdicts for every subgroup of G, or for `subgroups`, subgroups of G,
    in canonical (order, members) order, from one set of brace tables."""
    if subgroups is None:
        subgroups, lattice = groups.enumerate_subgroups(G), groups.subgroup_lattice(G)
    elif any(H.parent is not G for H in subgroups):
        raise PreconditionError("subgroup does not belong to the given group")
    elif not subgroups:  # no rows to classify
        return []
    else:
        lattice = groups.subgroup_lattice(G, [H.members for H in subgroups])
    rows = _columns(G, _brace_tables(G, psi), lattice, subgroups)
    return [classify_subgroup(G, psi, H, row)
            for H, row in zip(subgroups, rows)]
