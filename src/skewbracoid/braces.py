"""Operation tables, the circle operation, and skew brace verification.

A skew (left) brace is one carrier with two group tables sharing identity 0
and satisfying  g o (h . k) = (g o h) . g^-1 . (g o k),  where the inverse
is taken in the additive table.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from . import groups, maps
from .errors import InternalConsistencyError, PreconditionError
from .groups import FiniteGroup
from .maps import GroupMap

BRACE_BLOCK_BOUND = 8


@dataclass(frozen=True, eq=False)
class OpTable:
    """A group operation on 0..order-1 under a label.  Every table here is
    a group table: built as one, proved one where it was made (`circle_table`,
    `CosetSpace.quotient`), or checked by `groups.from_table`."""

    group: FiniteGroup
    label: str

    @property
    def op(self) -> np.ndarray:
        return self.group.mul

    @property
    def order(self) -> int:
        return self.group.order

    def __repr__(self):
        return f"OpTable({self.label!r}, order={self.order})"


def table_of(G: FiniteGroup) -> OpTable:
    return OpTable(G, ".")


def circle_table(G: FiniteGroup, psi: GroupMap) -> OpTable:
    """Group table of g o h = phi(g) h psi(g), phi(g) = g psi(g^-1), for an
    abelian endomorphism psi of G, certified a group by `_certified`.  phi
    is computed here from psi, so g = phi(g) psi(g) holds by construction."""
    phi, im = maps.phi_of(psi), psi.image_of
    return OpTable(_certified(G.mul[G.mul[phi], im[:, None]], G, phi, im), "o")


def _certified(table: np.ndarray, G: FiniteGroup, phi: np.ndarray,
               psi: np.ndarray) -> FiniteGroup:
    """The group with product `table` once phi and psi (image arrays on G)
    are checked multiplicative from it to (G, .), cell by cell, in place of
    the group-table check; else InternalConsistencyError.  Proof: then
    iota(g) = (phi(g), psi(g)^-1) preserves products into G x G (psi has
    abelian image) and is injective (g = phi(g) psi(g)), so it maps
    `table` onto a finite subset of G x G closed under products, a
    subgroup, and `table` is a group with identity iota^-1(e, e) = 0.  As
    iota(g o h) = iota(g) iota(h), a cell other than g o h fails."""
    for name, f in (("phi", phi), ("psi", psi)):
        if not (f[table] == G.mul[f[:, None], f]).all():
            raise InternalConsistencyError(f"{name} is not multiplicative on (G, o)")
    return FiniteGroup(groups.frozen(table))


def opposite_table(t: OpTable) -> OpTable:
    """The opposite group's table, the transpose: a group table as t's is."""
    return OpTable(FiniteGroup(groups.frozen(t.op.T.copy())), t.label + "'")


@dataclass(frozen=True, eq=False)
class BraceReport:
    holds: bool
    failure: tuple[int, int, int] | None = None
    checked = "exhaustive"  # the relation is decided on every triple

    def to_jsonable(self) -> dict:
        return {"holds": self.holds, "checked": self.checked,
                "failure": list(self.failure) if self.failure else None}


def verify_brace(additive: OpTable, multiplicative: OpTable) -> BraceReport:
    """Check the brace relation, exactly."""
    if additive.order != multiplicative.order:
        raise PreconditionError("carrier mismatch between the two tables")
    failure = groups.relation_failure(
        multiplicative.op, additive.group, additive.group.inv)
    return BraceReport(failure is None, failure)


@dataclass(frozen=True, eq=False)
class SkewBrace:
    additive: OpTable
    multiplicative: OpTable

    @property
    def order(self) -> int:
        return self.additive.order


def make_brace(additive: OpTable, multiplicative: OpTable) -> SkewBrace:
    """Verify the brace relation, then bundle the two tables."""
    report = verify_brace(additive, multiplicative)
    if not report.holds:
        raise PreconditionError(
            f"brace relation fails at triple {report.failure}")
    return SkewBrace(additive, multiplicative)


def braces_from_map(G: FiniteGroup, psi: GroupMap) -> tuple[SkewBrace, SkewBrace]:
    """The bi-skew pair ((G,.,o), (G,o,.)) induced by psi in Ab(G)."""
    dot = table_of(G)
    circ = circle_table(G, psi)
    return make_brace(dot, circ), make_brace(circ, dot)


def gamma_family(brace: SkewBrace) -> np.ndarray:
    """gamma(g)[h] = g^-1 .A (g oM h), verified to be a homomorphism from
    the multiplicative group into automorphisms of the additive group."""
    A, M = brace.additive, brace.multiplicative
    # each gamma(g) is an additive endomorphism iff the brace relation
    # holds; it is then bijective, as both tables are groups
    if not verify_brace(A, M).holds:
        raise PreconditionError("gamma(g) is not an additive automorphism")
    gamma = A.op[A.group.inv[:, None], M.op]
    # g |-> gamma(g) must be multiplicative
    if groups.action_failure(gamma, M.group):
        raise PreconditionError("gamma is not a homomorphism")
    return gamma


def brace_block(psi: GroupMap, N: int) -> list[OpTable]:
    """Tables o_0 .. o_N from the iterated maps, o_0 = the original product.

    Every ordered pair (o_m, o_n) is verified to satisfy the brace relation.
    """
    if not 0 <= groups._index(N, "block depth") <= BRACE_BLOCK_BOUND:
        raise PreconditionError(f"block depth must lie in 0..{BRACE_BLOCK_BOUND}")
    G = psi.domain
    psis = [maps.psi_iterate(psi, k) for k in range(N + 1)]  # psi_0 is trivial: o_0 = .
    tables = [table_of(G)] + [OpTable(circle_table(G, psik).group, "o" if k == 1 else f"o_{k}")
                              for k, psik in enumerate(psis[1:], start=1)]
    for m, tm in enumerate(tables):
        for n_, tn in enumerate(tables):
            if m == n_:
                continue
            rep = verify_brace(tm, tn)
            if not rep.holds:
                raise InternalConsistencyError(
                    f"(G, o_{m}, o_{n_}) fails the brace relation at {rep.failure}")
    return tables


def quotient_brace(brace: SkewBrace, H) -> SkewBrace:
    """Both operations pushed down to the coset space of H.

    H is a member tuple or Subgroup that must be a subgroup of the additive
    group whose cosets both operations are well-defined on (an ideal of the
    brace), which makes both quotient groups; either failure is a
    precondition failure.
    """
    cs = groups.coset_space(brace.additive.group,
                            groups.as_subgroup(brace.additive.group, H))
    quotients = []
    for t in (brace.additive, brace.multiplicative):
        quotient = cs.quotient(t.op)
        if quotient is None:
            raise PreconditionError(
                f"operation {t.label!r} is not well-defined on the cosets of H")
        quotients.append(OpTable(quotient, t.label))
    return make_brace(*quotients)
