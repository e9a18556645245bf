"""Homomorphisms between finite groups, stored element-wise.

The central notion is an *abelian map*: a homomorphism whose image is an
abelian subgroup of the codomain.  An abelian endomorphism psi induces the
derived map phi(g) = g * psi(g^-1), the circle operation, and the iterated
maps psi_n; those live here, the operation tables they induce live in
`braces`.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from . import groups
from .errors import InternalConsistencyError, PreconditionError, WorkLimitError
from .groups import FiniteGroup, Subgroup

ABELIAN_MAP_CANDIDATE_CAP = 10**8
PSI_ITERATE_BOUND = 32
LEFT_REGULAR_CAP = 6


@dataclass(eq=False)
class GroupMap:
    """A verified total map between finite groups.

    `image_of[g]` is the codomain index of the image of g.  The map is
    checked to be a homomorphism at construction, exactly, over a generating
    set of the domain; `abelian_image`, `idempotent` and `fixed_point_free`
    are computed flags (the latter two only for endomorphisms, else None).
    """

    domain: FiniteGroup
    codomain: FiniteGroup
    image_of: np.ndarray
    abelian_image: bool = False
    idempotent: bool | None = None
    fixed_point_free: bool | None = None
    provenance: str = "explicit"

    def __post_init__(self):
        im = np.asarray(self.image_of, dtype=np.int64)
        if im.shape != (self.domain.order,):
            raise PreconditionError("image array length must equal the domain order")
        if im.min() < 0 or im.max() >= self.codomain.order:
            raise PreconditionError("image index out of codomain range")
        # f(xa) = f(x) f(a) for every x and every a in {e} and a generating
        # set is exact: the a for which it holds are closed under products
        gens = np.array((0, *self.domain.generating_set()), dtype=np.int64)
        lhs = im[self.domain.mul[:, gens]]
        rhs = self.codomain.mul[im[:, None], im[gens][None, :]]
        if not np.array_equal(lhs, rhs):
            raise PreconditionError("map is not a homomorphism")
        im.setflags(write=False)
        self.image_of = im
        seen = np.zeros(self.codomain.order, dtype=bool)
        seen[im] = True
        img = np.flatnonzero(seen)
        sub = self.codomain.mul[img[:, None], img[None, :]]
        self.abelian_image = bool(np.array_equal(sub, sub.T))
        if self.is_endomorphism():
            self.idempotent = bool(np.array_equal(im[im], im))
            fix = np.flatnonzero(im == np.arange(self.domain.order))
            self.fixed_point_free = bool(fix.tolist() == [0])

    def is_endomorphism(self) -> bool:
        return self.domain is self.codomain or np.array_equal(
            self.domain.mul, self.codomain.mul)

    def __call__(self, g: int) -> int:
        return int(self.image_of[g])

    def image_members(self) -> tuple[int, ...]:
        return tuple(sorted(set(self.image_of.tolist())))

    def __repr__(self):
        return (f"GroupMap(|G|={self.domain.order} -> |G'|={self.codomain.order}, "
                f"abelian_image={self.abelian_image})")


def require_abelian_endomorphism(psi: GroupMap) -> None:
    """Raise PreconditionError unless psi is an endomorphism with abelian image."""
    if not (psi.is_endomorphism() and psi.abelian_image):
        raise PreconditionError("psi must be an abelian endomorphism")


def _abelian_map(G: FiniteGroup, Gp: FiniteGroup, img, provenance: str) -> GroupMap:
    """The GroupMap G -> Gp of `img`, which the theory says is an abelian
    map; InternalConsistencyError if it is not."""
    try:
        f = GroupMap(G, Gp, img, provenance=provenance)
    except PreconditionError as exc:
        raise InternalConsistencyError(f"{provenance} map is not a homomorphism") from exc
    if not f.abelian_image:
        raise InternalConsistencyError(f"{provenance} map does not have abelian image")
    return f


def trivial_map(G: FiniteGroup, Gp: FiniteGroup | None = None) -> GroupMap:
    Gp = Gp or G
    return GroupMap(G, Gp, np.zeros(G.order, dtype=np.int64), provenance="trivial")


def identity_map(G: FiniteGroup) -> GroupMap:
    return GroupMap(G, G, np.arange(G.order, dtype=np.int64), provenance="identity")


def _extend_generator_images(mul: np.ndarray, mul_p: np.ndarray,
                             gen_idx: list[int], gen_img: list[int]):
    """Propagate generator images over the whole group with table `mul`,
    multiplying images in the table `mul_p`.

    Returns the full image array, or None if the assignment is inconsistent
    (cheap relation pruning; callers still run the full table check).
    """
    img = np.full(mul.shape[0], -1, dtype=np.int64)
    img[0] = 0
    for t, v in zip(gen_idx, gen_img):
        if img[t] >= 0 and img[t] != v:
            return None
        img[t] = v
    frontier = [0] + [t for t in gen_idx if t != 0]
    while frontier:
        nxt = []
        for g in frontier:
            for t, v in zip(gen_idx, gen_img):
                h = int(mul[g, t])
                w = int(mul_p[img[g], v])
                if img[h] < 0:
                    img[h] = w
                    nxt.append(h)
                elif img[h] != w:
                    return None
        frontier = nxt
    if (img < 0).any():
        return None  # generators do not generate G
    return img


def make_map(G: FiniteGroup, Gp: FiniteGroup, images) -> GroupMap:
    """Build a verified GroupMap.

    `images` is either a full image array, or a dict from generator (index
    or element name) to image (index or name), which must extend to a
    homomorphism defined on all of G.
    """
    if isinstance(images, dict):
        gen_idx = [G.index_of(k) for k in images]
        gen_img = [Gp.index_of(v) for v in images.values()]
        img = _extend_generator_images(G.mul, Gp.mul, gen_idx, gen_img)
        if img is None:
            raise PreconditionError(
                "generator images do not extend to a homomorphism "
                "(or the given elements do not generate the domain)")
        return GroupMap(G, Gp, img)
    return GroupMap(G, Gp, groups.int_array(images, "image array"))


def enumerate_abelian_maps(G: FiniteGroup, Gp: FiniteGroup | None = None, *,
                           candidate_cap: int = ABELIAN_MAP_CANDIDATE_CAP) -> list[GroupMap]:
    """All homomorphisms G -> G' with abelian image, in lexicographic order
    of their generator images.

    An abelian map kills [G, G], so it factors through G/[G, G]: generator
    x can only map to some y with y^d = e, where d is the order of x[G, G],
    and the generator images commute pairwise.  These candidates are
    backtracked over in ascending index order, and every full assignment
    is extended over the quotient table, lifted to G and checked as a
    GroupMap.  WorkLimitError is raised before the search when the product
    of the candidate counts exceeds `candidate_cap`.
    """
    Gp = Gp or G
    gens = G.generating_set()
    groups.require_generating(G.mul, gens)
    derived = groups.derived_subgroup(G)
    if len(derived) == 1:
        coset_of, quotient = np.arange(G.order), G
    else:
        cs = groups.coset_space(G, groups.Subgroup(G, derived))
        coset_of, quotient = cs.coset_of, cs.quotient(G.mul)
        if quotient is None:
            raise InternalConsistencyError("derived subgroup is not normal")
    qgens = [int(coset_of[x]) for x in gens]
    orders = groups.element_orders(quotient.mul)[qgens].tolist()
    # y^d = e iff the order of y divides d
    target_orders = groups.element_orders(Gp.mul)
    candidates = [np.flatnonzero(d % target_orders == 0) for d in orders]
    space = math.prod(len(c) for c in candidates)
    if space > candidate_cap:
        raise WorkLimitError(f"abelian map search space exceeds candidate cap: "
                             f"{space} candidate assignments > cap {candidate_cap}")

    out = []
    for chosen in _commuting_choices(Gp.mul, candidates,
                                     np.ones(Gp.order, dtype=bool)):
        img = _extend_generator_images(quotient.mul, Gp.mul, qgens, chosen)
        if img is None:
            continue
        out.append(_abelian_map(G, Gp, img[coset_of], "enumerated"))
    return out


def _commuting_choices(mul: np.ndarray, candidates: list[np.ndarray],
                       allowed: np.ndarray, chosen: tuple[int, ...] = ()):
    """Every pairwise commuting choice of one element from each candidate
    array, extending `chosen`, in lexicographic order; `allowed` marks the
    elements that commute with all of `chosen`."""
    if len(chosen) == len(candidates):
        yield chosen
        return
    level = candidates[len(chosen)]
    for y in level[allowed[level]].tolist():
        yield from _commuting_choices(mul, candidates,
                                      allowed & (mul[y] == mul[:, y]),
                                      chosen + (y,))


@dataclass(eq=False)
class MapAnalysis:
    kernel: Subgroup
    image: Subgroup
    fix: Subgroup | None
    idempotent: bool | None
    fixed_point_free: bool | None


def map_analysis(f: GroupMap) -> MapAnalysis:
    """Kernel, image, and (for endomorphisms) fix psi = {g : psi(g) = g}."""
    ker = tuple(np.flatnonzero(f.image_of == 0).tolist())
    kernel = Subgroup(f.domain, ker)
    image = Subgroup(f.codomain, f.image_members())
    fix = None
    if f.is_endomorphism():
        fixed = tuple(np.flatnonzero(
            f.image_of == np.arange(f.domain.order)).tolist())
        try:
            fix = Subgroup(f.domain, fixed)
        except PreconditionError as exc:
            raise InternalConsistencyError(
                "fix psi failed its subgroup closure check") from exc
    return MapAnalysis(kernel, image, fix, f.idempotent, f.fixed_point_free)


def circle_product(G: FiniteGroup, psi: GroupMap, g: int, h: int) -> int:
    """g o h = g psi(g^-1) h psi(g), evaluated pointwise."""
    im = psi.image_of
    m = G.mul
    return int(m[m[m[g, im[G.inv[g]]], h], im[g]])


@dataclass(eq=False)
class PhiMap:
    """The derived map phi(g) = g psi(g^-1) of an abelian endomorphism.

    phi is a homomorphism from (G, o) to (G, .), with ker phi = fix psi;
    both facts are verified at construction.
    """

    psi: GroupMap
    image_of: np.ndarray

    def __call__(self, g: int) -> int:
        return int(self.image_of[g])

    def image_subgroup(self) -> Subgroup:
        return Subgroup(self.psi.domain, tuple(self.image_of.tolist()))


def phi_of(psi: GroupMap) -> PhiMap:
    require_abelian_endomorphism(psi)
    G = psi.domain
    n = G.order
    im = psi.image_of
    phi = G.mul[np.arange(n), im[G.inv]]
    # phi(g o h) = phi(g) . phi(h), with o evaluated from its defining formula
    circ = G.mul[G.mul[phi[:, None], np.arange(n)[None, :]], im[:, None]]
    if not np.array_equal(phi[circ], G.mul[phi[:, None], phi[None, :]]):
        raise InternalConsistencyError("phi is not multiplicative on (G, o)")
    fix = set(np.flatnonzero(im == np.arange(n)).tolist())
    ker = set(np.flatnonzero(phi == 0).tolist())
    if fix != ker:
        raise InternalConsistencyError("ker phi differs from fix psi")
    phi.setflags(write=False)
    return PhiMap(psi, phi)


def phi_power(psi: GroupMap, n: int) -> np.ndarray:
    """Image array of phi composed with itself n times (n = 0 is identity),
    by repeated squaring: about 2 log2(n) compositions."""
    power = phi_of(psi).image_of  # phi^(2^k) at bit k of n
    out = np.arange(psi.domain.order)
    while n > 0:
        if n & 1:
            out = power[out]
        power, n = power[power], n >> 1
    return out


def psi_iterate(psi: GroupMap, n: int) -> GroupMap:
    """The n-th iterated map: psi_0 trivial, psi_n(g) = psi(g) psi_{n-1}(phi(g))."""
    require_abelian_endomorphism(psi)
    if n < 0 or n > PSI_ITERATE_BOUND:
        raise PreconditionError(f"iteration index must lie in 0..{PSI_ITERATE_BOUND}")
    G = psi.domain
    phi = phi_of(psi).image_of
    current = np.zeros(G.order, dtype=np.int64)
    for _ in range(n):
        current = G.mul[psi.image_of, current[phi]]
    return _abelian_map(G, G, current, f"psi_{n}")


def product_swap_map(alpha: GroupMap, beta: GroupMap) -> GroupMap:
    """psi(g1, g2) = (beta(g2), alpha(g1)) on the direct product G1 x G2:
    the cyclic chain of alpha and beta."""
    psi = cyclic_chain_map([alpha, beta])
    psi.provenance = "product_swap"
    return psi


def cyclic_chain_map(maps: list[GroupMap]) -> GroupMap:
    """psi on prod G_i sending coordinate i-1 through alpha_{i-1} into slot i."""
    n = len(maps)
    if n < 2:
        raise PreconditionError("need at least two maps in the chain")
    for i, m in enumerate(maps):
        if not np.array_equal(m.codomain.mul, maps[(i + 1) % n].domain.mul):
            raise PreconditionError("codomain/domain chain does not close cyclically")
        if not m.abelian_image:
            raise PreconditionError("chain entries must be abelian maps")
    G = groups.direct_product(*(m.domain for m in maps))
    orders = [m.domain.order for m in maps]
    weights = np.cumprod([1] + orders[:-1])
    rem, img = np.arange(G.order), np.zeros(G.order, dtype=np.int64)
    for i, m in enumerate(maps):
        # coordinate i goes through alpha_i into slot i + 1
        img += weights[(i + 1) % n] * m.image_of[rem % orders[i]]
        rem //= orders[i]
    return _abelian_map(G, G, img, "cyclic_chain")


def left_regular_map(A: FiniteGroup) -> GroupMap:
    """a |-> left translation by a, as an abelian map A -> Sym(A)."""
    if not A.is_abelian():
        raise PreconditionError("left_regular_map requires an abelian group")
    if A.order > LEFT_REGULAR_CAP:
        raise PreconditionError(f"left regular embedding capped at order {LEFT_REGULAR_CAP}")
    S = groups.symmetric(A.order)
    index = {p: i for i, p in enumerate(groups.symmetric_perms(A.order))}
    img = np.array([index[tuple(int(x) for x in A.mul[a])] for a in range(A.order)],
                   dtype=np.int64)
    if len(set(img.tolist())) != A.order:
        raise InternalConsistencyError("left regular representation not injective")
    return _abelian_map(A, S, img, "left_regular")
