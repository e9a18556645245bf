"""Set-theoretic Yang-Baxter solutions built from abelian-map bracoids.

A solution is stored as two dense tables: ``lam[x][y]`` is the first output
coordinate of R(x, y) and ``rho[y][x]`` the second.  The braid relation

    (R x id)(id x R)(R x id) = (id x R)(R x id)(id x R)

is proved, at any order, from a skew bracoid (G, N, (+)) and a subgroup K
of G acting regularly on N: the contained-brace recipe (`_recipe`) on such
a pair always gives a solution (Martin-Lyons and Truman; the argument is in
`_proved`).  Every builder here builds such a bracoid, finds K in it, and
returns the recipe's tables through `_proved`, which records (bracoid, K)
as the solution's `source`; a bracoid without a regular K is an internal
inconsistency.  The source is the certificate, established once where the
solution is built: no caller can pass one, and a solution made any other
way (`YbeSolution(...)`, `with_tables`, `dataclasses.replace`) has none.
`build_ybe_from_contained_brace`, the one builder that takes a bracoid
from outside, records a source only if that bracoid verifies.  A solution
without a source has the relation swept over all order^3 triples, at
every order.
"""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np

from . import bracoids, groups, maps
from .bracoids import Bracoid
from .errors import InternalConsistencyError, PreconditionError
from .groups import FiniteGroup, Subgroup
from .maps import GroupMap


@dataclass(frozen=True, eq=False)
class YbeSolution:
    lam: np.ndarray  # lam[x, y]  = first coordinate of R(x, y)
    rho: np.ndarray  # rho[y, x]  = second coordinate of R(x, y)
    provenance: dict
    # (bracoid, K) whose contained-brace recipe gave these tables: set by
    # `_proved` alone, and not exported
    source: tuple | None = field(default=None, init=False, repr=False)

    def __post_init__(self):
        lam = groups.int_array(self.lam, "lambda table")
        rho = groups.int_array(self.rho, "rho table")
        n = len(lam) if lam.ndim else -1
        if any(t.shape != (n, n) or n and not 0 <= t.min() <= t.max() < n for t in (lam, rho)):
            raise PreconditionError("lambda/rho tables must be n x n, of integers in 0..n-1")
        for name, t in (("lam", lam), ("rho", rho)):
            object.__setattr__(self, name, groups.read_only(t, getattr(self, name)))

    @property
    def set_order(self) -> int:
        return self.lam.shape[0]

    def apply(self, x: int, y: int) -> tuple[int, int]:
        return int(self.lam[x, y]), int(self.rho[y, x])

    def with_tables(self, lam=None, rho=None, note="modified") -> "YbeSolution":
        return YbeSolution(self.lam if lam is None else lam, self.rho if rho is None else rho,
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

    A solution with a `source` has the braid relation proved by its builder
    (see `_proved`), on every triple and at any order (method "bracoid").
    Otherwise it is swept over all order^3 triples (method "sweep"),
    reporting the lexicographically first failing triple.

    In `_proved`'s notation, a solution with a source is left
    non-degenerate iff K = G, that is iff |N| = |G|, and always right
    non-degenerate; a measured report that disagrees raises
    InternalConsistencyError.

    Left: each lambda_x(y) = iota(gamma_x(pi(y))) lies in K, so no lambda_x
    is onto G when K is smaller; for K = G, pi and iota are bijections, as
    K acts regularly, and gamma_x an automorphism of N, so
    lambda_x = iota o gamma_x o pi is a bijection.

    Right: fix y and let rho_y(x) = rho_y(x').  With k = lambda_x(y) and
    k' = lambda_x'(y), k^-1 x = k'^-1 x', so x' = jx for j = k'k^-1 in K.
    Put eta = gamma_x(pi(y)), so pi(k) = eta.  As gamma is a homomorphism,
    k' = iota(gamma_j(eta)), so pi(k') = gamma_j(eta); and as k' = jk,
    pi(k') = pi(j) gamma_j(pi(k)) = pi(j) gamma_j(eta).  So pi(j) = e_N,
    and j = e because K acts freely: each rho_y is injective on a finite
    set, that is, a bijection."""
    lam, rho = s.lam, s.rho
    idx = np.arange(s.set_order)
    # the rows that are not permutations, under the name of their witness
    bad_rows = {key: np.flatnonzero((np.sort(t, axis=1) != idx).any(axis=1))
                for key, t in (("left_x", lam), ("right_y", rho))}
    nd = NondegeneracyReport(not bad_rows["left_x"].size, not bad_rows["right_y"].size,
                             {key: int(r[0]) for key, r in bad_rows.items() if r.size})
    if s.source is not None:
        b = s.source[0]
        whole = b.target_order == b.acting_order
        if (nd.left, nd.right) != (whole, True):
            raise InternalConsistencyError(
                f"non-degeneracy is (left {nd.left}, right {nd.right}) where the bracoid "
                f"proves (left {whole}, right True) on {b!r}")
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


# ---------------------------------------------------------------------------
# constructors: each builds a bracoid and runs the contained-brace recipe on it


def _proved(b: Bracoid, K: Subgroup, provenance: dict, valid: bool) -> YbeSolution:
    """The recipe's solution on b and K, a subgroup of b's acting group G,
    with (b, K) as its source if the caller has verified b (`valid`).
    PreconditionError if K does not act regularly on the target N.

    Why a valid bracoid and a regular K prove the braid relation: write
    gamma_x(eta) = (x+e)^-1 (x+eta), pi(y) = y+e and iota for the inverse
    of k -> k+e on K.  The bracoid relation makes each gamma_x an
    automorphism of N and, with the action axiom, gamma a homomorphism; and
    pi(ab) = pi(a) gamma_a(pi(b)).  The recipe's lambda_x(y) is
    iota(gamma_x(pi(y))), so lambda_x lambda_y = lambda_xy, and rho makes R
    preserve the product.  Then in (R x id)(id x R)(R x id)(x, y, z) and its
    mirror the first coordinates are both lambda_xy(z) = A; the middle ones
    both lie in K with the same pi-image gamma_{A^-1}(pi(A)^-1 pi(B) pi(A)),
    where B = lambda_x(y), so they are equal; and the product xyz fixes the
    third.
    """
    sol = YbeSolution(*_recipe(b, K), provenance)
    if valid:
        object.__setattr__(sol, "source", (b, K))
    return sol


def _from_bracoid(b: Bracoid, provenance: dict) -> YbeSolution:
    """The recipe's solution on b, which its builder has verified, and the K
    that `find_contained_brace` finds in it, under the builder's own
    provenance."""
    K = bracoids.find_contained_brace(b)
    if K is None:
        raise InternalConsistencyError(
            f"no subgroup of the acting group acts regularly on the target of {b!r}")
    return _proved(b, K, provenance, True)


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
    phi = GroupMap(G, G, maps.phi_of(psi))
    return tuple(_from_bracoid(bracoids.phi_tower_bracoid(G, f, 1), {"construction": name})
                 for f, name in ((psi, "abelian_pair_R"), (phi, "abelian_pair_Rprime")))


def build_ybe_from_contained_brace(b: Bracoid, K) -> YbeSolution:
    """The generic recipe: with K acting regularly on the target,

        lambda_x(y) = ident( (x+e)^-1 * (x+(y+e)) )
        rho_y(x)    = inverse(lambda_x(y)) x y      (in the acting group)

    where ident sends a target element to the unique k in K with k+e = it.
    b is verified here, once: the solution has b and K as its source only
    if b is a valid bracoid, and is swept by `verify_ybe` otherwise.
    """
    K = groups.as_subgroup(b.acting.group, K)
    return _proved(b, K, {"construction": "contained_brace", "K": list(K.members),
                          "inner": b.provenance}, bracoids.verify_bracoid(b).ok)


def _recipe(b: Bracoid, K: Subgroup) -> tuple[np.ndarray, np.ndarray]:
    """The lambda and rho tables of the recipe on b and K, a subgroup of its
    acting group; PreconditionError if K does not act regularly."""
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
    rho = rho_xy.T.copy()
    return groups.frozen(lam), groups.frozen(rho)  # the solution keeps them uncopied
