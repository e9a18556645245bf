"""Set-theoretic Yang-Baxter solutions built from abelian-map bracoids.

A solution is stored as two dense tables: ``lam[x][y]`` is the first output
coordinate of R(x, y) and ``rho[y][x]`` the second.  The braid relation

    (R x id)(id x R)(R x id) = (id x R)(R x id)(id x R)

is verified exhaustively on all order^3 triples up to a cap (sampled with a
fixed seed above it).
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from . import groups, maps
from .bracoids import Bracoid
from .errors import InternalConsistencyError, PreconditionError
from .groups import FiniteGroup, Subgroup
from .maps import GroupMap


@dataclass(eq=False)
class YbeSolution:
    lam: np.ndarray  # lam[x, y]  = first coordinate of R(x, y)
    rho: np.ndarray  # rho[y, x]  = second coordinate of R(x, y)
    provenance: dict

    def __post_init__(self):
        n = self.lam.shape[0]
        if self.lam.shape != (n, n) or self.rho.shape != (n, n):
            raise PreconditionError("lambda/rho tables must be square and equal-sized")
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
    checked: str
    witness: tuple | None = None

    def to_jsonable(self) -> dict:
        return {"holds": self.holds, "checked": self.checked,
                "witness": list(self.witness) if self.witness else None,
                "nondegeneracy": self.nondegeneracy.to_jsonable()}


def verify_ybe(s: YbeSolution, *, exhaustive_cap: int = groups.TRIPLE_EXHAUSTIVE_CAP,
               seed: int = 0) -> YbeReport:
    """Non-degeneracy and the braid relation, which has no known generator
    reduction: swept over all order^3 triples up to `exhaustive_cap`, and
    on TRIPLE_SAMPLE_COUNT triples sampled with `seed` above it."""
    n = s.set_order
    lam, rho = s.lam, s.rho
    full = list(range(n))
    left_bad = [x for x in range(n) if sorted(lam[x].tolist()) != full]
    right_bad = [y for y in range(n) if sorted(rho[y].tolist()) != full]
    witnesses = {}
    if left_bad:
        witnesses["left_x"] = left_bad[0]
    if right_bad:
        witnesses["right_y"] = right_bad[0]
    nd = NondegeneracyReport(not left_bad, not right_bad, witnesses)

    def bad(x, y, z):
        # left side: R12, R23, R12
        a1, b1 = lam[x, y], rho[y, x]
        b2, c2 = lam[b1, z], rho[z, b1]
        # right side: R23, R12, R23
        bp, cp = lam[y, z], rho[z, y]
        ap2, bp2 = lam[x, bp], rho[bp, x]
        return ((lam[a1, b2] != ap2) | (rho[b2, a1] != lam[bp2, cp])
                | (c2 != rho[cp, bp2]))

    sampled = n > exhaustive_cap
    witness = groups.sweep(bad, (np.arange(n),) * 3, seed=seed,
                           samples=groups.TRIPLE_SAMPLE_COUNT if sampled else 0)
    return YbeReport(witness is None, nd, "sampled" if sampled else "exhaustive",
                     witness)


# ---------------------------------------------------------------------------
# constructors


def build_ybe_idempotent(G: FiniteGroup, psi: GroupMap) -> YbeSolution:
    """R(x,y) = (psi(x) phi(y) psi(x^-1),  psi(x) phi(y)^-1 phi(x^-1)^-1 y)
    for an idempotent abelian endomorphism psi."""
    if not (psi.is_endomorphism() and psi.abelian_image):
        raise PreconditionError("psi must be an abelian endomorphism")
    if not psi.idempotent:
        raise PreconditionError("psi must be idempotent")
    n = G.order
    m, inv, im = G.mul, G.inv, psi.image_of
    phi = maps.phi_of(psi).image_of
    idx = np.arange(n)
    X, Y = idx[:, None], idx[None, :]
    lam = m[m[im[:, None], phi[None, :]], im[inv][:, None]]
    rho_xy = m[m[m[im[:, None], inv[phi][None, :]], inv[phi[inv]][:, None]], Y]
    # the alternative published form psi(x) phi(y)^-1 psi(x^-1) x y must agree
    alt = m[m[m[m[im[:, None], inv[phi][None, :]], im[inv][:, None]], X], Y]
    if not np.array_equal(rho_xy, alt):
        raise InternalConsistencyError(
            "the two closed forms of the second coordinate disagree")
    return YbeSolution(lam, rho_xy.T.copy(),
                       {"construction": "idempotent", "order": n})


def build_ybe_product(G1: FiniteGroup, G2: FiniteGroup,
                      alpha: GroupMap, beta: GroupMap) -> YbeSolution:
    """The product solution on G1 x G2.

    lambda_x(y) = (e, alpha(x1^-1) y2 alpha(x1))
    rho_y(x)    = (beta(y2) x1 beta(x2^-1) y1 beta(x2 y2^-1),
                   alpha(x1)^-1 y2^-1 alpha(x1) x2 alpha(x1)^-1 y2 alpha(x1))
    """
    if not (alpha.abelian_image and beta.abelian_image):
        raise PreconditionError("alpha and beta must be abelian maps")
    if alpha.domain.order != G1.order or alpha.codomain.order != G2.order or \
            beta.domain.order != G2.order or beta.codomain.order != G1.order:
        raise PreconditionError("alpha/beta do not map between G1 and G2 as required")
    n1, n2 = G1.order, G2.order
    n = n1 * n2
    idx = np.arange(n)
    x1, x2 = idx % n1, idx // n1
    m1, m2 = G1.mul, G2.mul
    i1, i2 = G1.inv, G2.inv
    a, b = alpha.image_of, beta.image_of

    ax = a[x1]          # alpha(x1)
    axinv = i2[ax]      # alpha(x1)^-1 = alpha(x1^-1)
    lam2 = m2[m2[axinv[:, None], x2[None, :]], ax[:, None]]
    lam = n1 * lam2

    x2y2inv = m2[x2[:, None], i2[x2][None, :]]  # [x, y] -> x2 y2^-1
    r1 = m1[m1[m1[m1[b[x2][None, :], x1[:, None]],
                b[i2[x2]][:, None]], x1[None, :]], b[x2y2inv]]

    u = m2[axinv[:, None], i2[x2][None, :]]
    u = m2[u, ax[:, None]]
    u = m2[u, x2[:, None]]
    u = m2[u, axinv[:, None]]
    u = m2[u, x2[None, :]]
    u = m2[u, ax[:, None]]

    rho_xy = r1 + n1 * u
    return YbeSolution(lam, rho_xy.T.copy(),
                       {"construction": "product", "n1": n1, "n2": n2})


def build_ybe_abelian_pair(G: FiniteGroup, psi: GroupMap) -> tuple[YbeSolution, YbeSolution]:
    """For abelian G and idempotent psi:
    R(x,y) = (phi(y), psi(y) x)  and  R'(x,y) = (psi(y), phi(y) x)."""
    if not G.is_abelian():
        raise PreconditionError("the abelian pair requires an abelian group")
    if not (psi.is_endomorphism() and psi.idempotent):
        raise PreconditionError("psi must be an idempotent endomorphism")
    n = G.order
    phi = maps.phi_of(psi).image_of
    im = psi.image_of
    lam_r = np.broadcast_to(phi[None, :], (n, n)).copy()
    rho_r = G.mul[im[:, None], np.arange(n)[None, :]]  # rho[y, x] = psi(y) x
    R = YbeSolution(lam_r, rho_r, {"construction": "abelian_pair_R"})
    general = build_ybe_idempotent(G, psi)
    if not (np.array_equal(R.lam, general.lam) and np.array_equal(R.rho, general.rho)):
        raise InternalConsistencyError(
            "abelian specialization disagrees with the idempotent constructor")
    lam_rp = np.broadcast_to(im[None, :], (n, n)).copy()
    rho_rp = G.mul[phi[:, None], np.arange(n)[None, :]]
    Rp = YbeSolution(lam_rp, rho_rp, {"construction": "abelian_pair_Rprime"})
    return R, Rp


def build_ybe_from_contained_brace(b: Bracoid, K) -> YbeSolution:
    """The generic recipe: with K acting regularly on the target,

        lambda_x(y) = ident( (x+e)^-1 * (x+(y+e)) )
        rho_y(x)    = inverse(lambda_x(y)) x y      (in the acting group)

    where ident sends a target element to the unique k in K with k+e = it.
    """
    members = tuple(K.members) if isinstance(K, Subgroup) else tuple(sorted(set(K)))
    act = b.action
    G = b.acting.op
    T = b.target.op
    n, m = b.acting_order, b.target_order
    mset = set(members)
    if 0 not in mset or any(int(G[a_, b_]) not in mset
                            for a_ in members for b_ in members):
        raise PreconditionError("K is not a subgroup of the acting group")
    if len(members) != m:
        raise PreconditionError("K cannot act regularly: |K| differs from the target order")
    ident = np.full(m, -1, dtype=np.int64)
    for k in members:
        t = int(act[k, 0])
        if ident[t] >= 0:
            raise PreconditionError("K does not act freely on the target")
        ident[t] = k
    tinv = groups.inverses(T)
    ginv = groups.inverses(G)
    e_col = act[:, 0]
    inner = act[np.arange(n)[:, None], e_col[None, :]]      # x + (y + e)
    lam = ident[T[tinv[e_col][:, None], inner]]
    r1 = G[ginv[lam], np.arange(n)[:, None]]                # lam^-1 x
    rho_xy = G[r1, np.arange(n)[None, :]]                   # ... y
    return YbeSolution(lam, rho_xy.T.copy(),
                       {"construction": "contained_brace", "K": list(members),
                        "inner": b.provenance})
