"""Set-theoretic Yang-Baxter solutions built from abelian-map bracoids.

A solution is stored as two dense tables: ``lam[x][y]`` is the first output
coordinate of R(x, y) and ``rho[y][x]`` the second.  The braid relation

    (R x id)(id x R)(R x id) = (id x R)(R x id)(id x R)

is proved, at any order, from a skew bracoid (G, N, (+)) and a subgroup K
of G acting regularly on N.  Every builder here builds such a bracoid,
finds K in it, and returns the tables of their contained-brace recipe
(`build_ybe_from_contained_brace`) with (bracoid, K) as the source; a
bracoid without a regular K is an internal inconsistency.  The recipe
always gives a solution (Martin-Lyons and Truman; the argument is in
`_certified`), so a valid bracoid whose recipe gives both tables exactly
is an exact certificate.  A solution without a source (`with_tables`
drops it), or whose certificate fails, has the relation swept over all
order^3 triples, at every order.
"""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np

from . import bracoids, groups, maps
from .bracoids import Bracoid
from .errors import InternalConsistencyError, PreconditionError
from .groups import FiniteGroup, Subgroup
from .maps import GroupMap


@dataclass(eq=False)
class YbeSolution:
    lam: np.ndarray  # lam[x, y]  = first coordinate of R(x, y)
    rho: np.ndarray  # rho[y, x]  = second coordinate of R(x, y)
    provenance: dict
    # (bracoid, K) whose contained-brace recipe gives these tables: set by
    # every builder, dropped by with_tables, and not exported
    source: tuple | None = field(default=None, repr=False)

    def __post_init__(self):
        self.lam = groups.int_array(self.lam, "lambda table")
        self.rho = groups.int_array(self.rho, "rho table")
        n = len(self.lam) if self.lam.ndim else -1
        if any(t.shape != (n, n) or n and not 0 <= t.min() <= t.max() < n
               for t in (self.lam, self.rho)):
            raise PreconditionError("lambda/rho tables must be n x n, of integers in 0..n-1")
        self.lam.setflags(write=False)
        self.rho.setflags(write=False)

    @property
    def set_order(self) -> int:
        return self.lam.shape[0]

    def apply(self, x: int, y: int) -> tuple[int, int]:
        return int(self.lam[x, y]), int(self.rho[y, x])

    def with_tables(self, lam=None, rho=None, note="modified") -> "YbeSolution":
        return YbeSolution(
            np.array(self.lam if lam is None else lam),
            np.array(self.rho if rho is None else rho),
            {"construction": note, "inner": self.provenance})


@dataclass(eq=False)
class NondegeneracyReport:
    left: bool
    right: bool
    witnesses: dict

    def to_jsonable(self) -> dict:
        return {"left": self.left, "right": self.right, "witnesses": self.witnesses}


@dataclass(eq=False)
class YbeReport:
    holds: bool
    nondegeneracy: NondegeneracyReport
    witness: tuple | None = None
    method: str = "sweep"  # "bracoid" or "sweep"; not exported
    checked = "exhaustive"  # either method decides every triple

    def to_jsonable(self) -> dict:
        return {"holds": self.holds, "checked": self.checked,
                "witness": list(self.witness) if self.witness else None,
                "nondegeneracy": self.nondegeneracy.to_jsonable()}


def verify_ybe(s: YbeSolution) -> YbeReport:
    """Non-degeneracy and the braid relation, both exact.

    The braid relation is first certified from `s.source`: if it holds a
    valid bracoid and a regular subgroup K whose recipe gives exactly the
    tables of s, the relation holds on every triple, at any order (method
    "bracoid").  Otherwise it is swept over all order^3 triples (method
    "sweep"), reporting the lexicographically first failing triple.

    A certified solution is left non-degenerate iff K is the whole acting
    group G; a disagreement raises InternalConsistencyError.  Proof: each
    lambda_x(y) = ident(gamma_x(pi(y))) lies in K, so no lambda_x is onto
    G when K is smaller; for K = G, pi(y) = y+e and ident are bijections,
    as K acts regularly, and gamma_x an automorphism of the target, so
    lambda_x = ident o gamma_x o pi is a bijection (see `_certified`)."""
    lam, rho = s.lam, s.rho
    idx = np.arange(s.set_order)
    # the rows that are not permutations, under the name of their witness
    bad_rows = {key: np.flatnonzero((np.sort(t, axis=1) != idx).any(axis=1))
                for key, t in (("left_x", lam), ("right_y", rho))}
    nd = NondegeneracyReport(not bad_rows["left_x"].size, not bad_rows["right_y"].size,
                             {key: int(r[0]) for key, r in bad_rows.items() if r.size})
    if _certified(s):
        b, K = s.source
        whole = groups.as_subgroup(b.acting.group, K).order == b.acting_order
        if nd.left != whole:
            raise InternalConsistencyError(
                f"left non-degeneracy is {nd.left} but |K| = |G| is {whole} on {b!r}")
        return YbeReport(True, nd, None, "bracoid")

    def bad(x, y, z):
        # left side: R12, R23, R12
        a1, b1 = lam[x, y], rho[y, x]
        b2, c2 = lam[b1, z], rho[z, b1]
        # right side: R23, R12, R23
        bp, cp = lam[y, z], rho[z, y]
        ap2, bp2 = lam[x, bp], rho[bp, x]
        return ((lam[a1, b2] != ap2) | (rho[b2, a1] != lam[bp2, cp])
                | (c2 != rho[cp, bp2]))

    witness = groups.sweep(bad, (idx,) * 3)
    return YbeReport(witness is None, nd, witness)


def _certified(s: YbeSolution) -> bool:
    """Whether `s.source` = (b, K) proves the braid relation for s: b is a
    valid bracoid, K a subgroup of its acting group G acting regularly on
    its target N, and the recipe on (b, K) gives exactly the tables of s.

    Why that suffices: write gamma_x(eta) = (x+e)^-1 (x+eta), pi(y) = y+e
    and iota for the inverse of k -> k+e on K.  The bracoid relation makes
    each gamma_x an automorphism of N and, with the action axiom, gamma a
    homomorphism; and pi(ab) = pi(a) gamma_a(pi(b)).  The recipe's
    lambda_x(y) is iota(gamma_x(pi(y))), so lambda_x lambda_y = lambda_xy,
    and rho makes R preserve the product.  Then in
    (R x id)(id x R)(R x id)(x, y, z) and its mirror the first coordinates
    are both lambda_xy(z) = A; the middle ones both lie in K with the same
    pi-image gamma_{A^-1}(pi(A)^-1 pi(B) pi(A)), where B = lambda_x(y), so
    they are equal; and the product xyz fixes the third.
    """
    if s.source is None:
        return False
    b, K = s.source
    try:
        if not bracoids.verify_bracoid(b).ok:
            return False
        r = build_ybe_from_contained_brace(b, K)
    except PreconditionError:  # e.g. K is not a subgroup acting regularly
        return False
    return np.array_equal(r.lam, s.lam) and np.array_equal(r.rho, s.rho)


# ---------------------------------------------------------------------------
# constructors: each builds a bracoid and runs the contained-brace recipe on it


def _from_bracoid(b: Bracoid, provenance: dict) -> YbeSolution:
    """The recipe's solution on b and the K that `find_contained_brace`
    finds in it, under the builder's own provenance."""
    K = bracoids.find_contained_brace(b)
    if K is None:
        raise InternalConsistencyError(
            f"no subgroup of the acting group acts regularly on the target of {b!r}")
    sol = build_ybe_from_contained_brace(b, K)
    sol.provenance = provenance  # in place: replace() would check the tables again
    return sol


def build_ybe_idempotent(G: FiniteGroup, psi: GroupMap) -> YbeSolution:
    """R(x,y) = (psi(x) phi(y) psi(x^-1),  psi(x) phi(y)^-1 phi(x^-1)^-1 y)
    for an idempotent abelian endomorphism psi: the recipe on the depth-1
    phi-tower (G, ., phi(G), ., (+)_1)."""
    maps.require_abelian_endomorphism(psi)
    if not psi.idempotent:
        raise PreconditionError("psi must be idempotent")
    return _from_bracoid(bracoids.phi_tower_bracoid(G, psi, 1),
                         {"construction": "idempotent", "order": G.order})


def build_ybe_product(G1: FiniteGroup, G2: FiniteGroup,
                      alpha: GroupMap, beta: GroupMap) -> YbeSolution:
    """The product solution on G1 x G2.

    lambda_x(y) = (e, alpha(x1^-1) y2 alpha(x1))
    rho_y(x)    = (beta(y2) x1 beta(x2^-1) y1 beta(x2 y2^-1),
                   alpha(x1)^-1 y2^-1 alpha(x1) x2 alpha(x1)^-1 y2 alpha(x1))

    It is the recipe on the C2 bracoid of the product-swap map on the G1
    factor, with the G2 factor acting regularly on G/G1.
    """
    if not (alpha.abelian_image and beta.abelian_image):
        raise PreconditionError("alpha and beta must be abelian maps")
    if alpha.domain.order != G1.order or alpha.codomain.order != G2.order or \
            beta.domain.order != G2.order or beta.codomain.order != G1.order:
        raise PreconditionError("alpha/beta do not map between G1 and G2 as required")
    psi = maps.product_swap_map(alpha, beta)
    G = psi.domain
    H = Subgroup(G, tuple(groups.factor_embedding(G, 0)))
    return _from_bracoid(bracoids.bracoid_from_C2(G, psi, H),
                         {"construction": "product", "n1": G1.order, "n2": G2.order})


def build_ybe_abelian_pair(G: FiniteGroup, psi: GroupMap) -> tuple[YbeSolution, YbeSolution]:
    """For abelian G and idempotent psi:
    R(x,y) = (phi(y), psi(y) x)  and  R'(x,y) = (psi(y), phi(y) x),
    the idempotent solutions of psi and of phi (itself idempotent here)."""
    if not G.is_abelian():
        raise PreconditionError("the abelian pair requires an abelian group")
    if not (psi.is_endomorphism() and psi.idempotent):
        raise PreconditionError("psi must be an idempotent endomorphism")
    R = build_ybe_idempotent(G, psi)
    Rp = build_ybe_idempotent(G, GroupMap(G, G, maps.phi_of(psi)))
    R.provenance = {"construction": "abelian_pair_R"}
    Rp.provenance = {"construction": "abelian_pair_Rprime"}
    return R, Rp


def build_ybe_from_contained_brace(b: Bracoid, K) -> YbeSolution:
    """The generic recipe: with K acting regularly on the target,

        lambda_x(y) = ident( (x+e)^-1 * (x+(y+e)) )
        rho_y(x)    = inverse(lambda_x(y)) x y      (in the acting group)

    where ident sends a target element to the unique k in K with k+e = it.
    """
    K = groups.as_subgroup(b.acting.group, K)
    act = b.action
    G = b.acting.op
    T = b.target.op
    n, m = b.acting_order, b.target_order
    if K.order != m:
        raise PreconditionError("K cannot act regularly: |K| differs from the target order")
    ident = np.full(m, -1, dtype=np.int64)
    ident[act[list(K.members), 0]] = K.members
    if (ident < 0).any():  # |K| = m: K acts freely iff each target element is a k+e
        raise PreconditionError("K does not act freely on the target")
    tinv = b.target.group.inv
    ginv = b.acting.group.inv
    e_col = act[:, 0]
    inner = act[np.arange(n)[:, None], e_col[None, :]]      # x + (y + e)
    lam = ident[T[tinv[e_col][:, None], inner]]
    r1 = G[ginv[lam], np.arange(n)[:, None]]                # lam^-1 x
    rho_xy = G[r1, np.arange(n)[None, :]]                   # ... y
    return YbeSolution(lam, rho_xy.T.copy(),
                       {"construction": "contained_brace", "K": list(K.members),
                        "inner": b.provenance}, (b, K))
