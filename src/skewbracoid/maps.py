"""Homomorphisms between finite groups, stored element-wise.

The central notion is an *abelian map*: a homomorphism whose image is an
abelian subgroup of the codomain.  They are enumerated in blocks, as rows of
int64 arrays extended along one spanning tree of G/[G, G].  An abelian
endomorphism psi induces phi(g) = g psi(g^-1), the circle operation and the
iterated maps psi_n; the operation tables they induce live in `braces`.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field

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

    `image_of[g]` indexes the image of g in the codomain, checked to be a
    homomorphism exactly, over a generating set of the domain (a block at a
    time for the maps built here); from it come the flags `abelian_image`,
    `idempotent` and `fixed_point_free`, the last two None unless an endomorphism.
    """

    domain: FiniteGroup
    codomain: FiniteGroup
    image_of: np.ndarray
    provenance: str = "explicit"
    abelian_image: bool = field(init=False)
    idempotent: bool | None = field(init=False, default=None)
    fixed_point_free: bool | None = field(init=False, default=None)

    def __post_init__(self):
        im = groups.int_array(self.image_of, "image array")
        if im.shape != (self.domain.order,):
            raise PreconditionError("image array length must equal the domain order")
        if im.min() < 0 or im.max() >= self.codomain.order:
            raise PreconditionError("image index out of codomain range")
        gens = np.array((0, *self.domain.generating_set()), dtype=np.int64)
        if not _homomorphism_rows(im[None], self.domain.mul, gens,
                                  self.codomain.mul, im[None, gens])[0]:
            raise PreconditionError("map is not a homomorphism")
        im.setflags(write=False)
        self.image_of = im
        # the image is abelian iff the generator images commute
        products = self.codomain.mul[im[gens, None], im[gens]]
        self.abelian_image = bool(np.array_equal(products, products.T))
        if self.is_endomorphism():
            (self.idempotent, self.fixed_point_free), = _endomorphism_flags(im[None])

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


def trivial_map(G: FiniteGroup, Gp: FiniteGroup | None = None) -> GroupMap:
    Gp = Gp or G
    return GroupMap(G, Gp, np.zeros(G.order, dtype=np.int64), provenance="trivial")


def identity_map(G: FiniteGroup) -> GroupMap:
    return GroupMap(G, G, np.arange(G.order, dtype=np.int64), provenance="identity")


def _homomorphism_rows(img, mul, gens, mul_p, Y) -> np.ndarray:
    """Mask of the rows of `img` with img[c gens[j]] = img[c] Y[j] for all c, j.
    If `gens` generate and img[e] = e, these are exactly the homomorphisms with
    gens[j] -> Y[j] (c = e): the a with img[ca] = img[c] img[a] are closed under products."""
    return (img[:, mul[:, gens]] == mul_p[img[:, :, None], Y[:, None, :]]).all(axis=(1, 2))


def _endomorphism_flags(img):
    """(idempotent, fixed_point_free) of each endomorphism row of `img`."""
    idempotent = (np.take_along_axis(img, img, axis=1) == img).all(axis=1)
    fixed_point_free = ~(img[:, 1:] == np.arange(1, img.shape[1])).any(axis=1)
    return zip(idempotent.tolist(), fixed_point_free.tolist())


def _abelian_maps(G: FiniteGroup, Gp: FiniteGroup, img, provenance: str) -> list[GroupMap]:
    """The rows of `img`, abelian maps G -> Gp in theory, checked at once (else
    InternalConsistencyError) and built unchecked, each on a read-only copy."""
    gens = np.array((0, *G.generating_set()), dtype=np.int64)
    y = img[:, gens]
    if not _homomorphism_rows(img, G.mul, gens, Gp.mul, y).all():
        raise InternalConsistencyError(f"{provenance} map is not a homomorphism")
    products = Gp.mul[y[:, :, None], y[:, None, :]]  # abelian iff generator images commute
    if not np.array_equal(products, products.transpose(0, 2, 1)):
        raise InternalConsistencyError(f"{provenance} map does not have abelian image")
    out = []
    for row in img:
        f = object.__new__(GroupMap)
        f.domain, f.codomain, f.image_of, f.abelian_image = G, Gp, row.copy(), True
        f.idempotent, f.fixed_point_free, f.provenance = None, None, provenance
        f.image_of.setflags(write=False)
        out.append(f)
    if out and out[0].is_endomorphism():
        for f, flags in zip(out, _endomorphism_flags(img)):
            f.idempotent, f.fixed_point_free = flags
    return out


def _spanning_tree(mul: np.ndarray, gens: np.ndarray) -> list[tuple]:
    """The layers from e of a breadth-first tree of right products by `gens`
    in `mul`: elements c, parents p(c), generator indices j(c); unreached c are left out."""
    seen, frontier, layers = np.arange(len(mul)) == 0, np.zeros(1, dtype=np.int64), []
    while frontier.size and gens.size:
        step = mul[np.ix_(frontier, gens)].ravel()
        fresh = np.flatnonzero(~seen[step])
        c, first = np.unique(step[fresh], return_index=True)
        parent, j = np.divmod(fresh[first], gens.size)
        layers.append((c, frontier[parent], j))
        seen[c], frontier = True, c
    return layers


def _extend(layers, mul, gens, mul_p, Y):
    """Per row of Y, the map with e -> e and c -> img[p(c)] Y[j(c)] down the
    tree; and the mask of the rows that are homomorphisms."""
    img = np.zeros((len(Y), len(mul)), dtype=np.int64)
    for c, parent, j in layers:
        img[:, c] = mul_p[img[:, parent], Y[:, j]]
    return img, _homomorphism_rows(img, mul, gens, mul_p, Y)


def make_map(G: FiniteGroup, Gp: FiniteGroup, images) -> GroupMap:
    """Build a verified GroupMap.

    `images` is either a full image array, or a dict from generator (index
    or element name) to image (index or name), which must extend to a
    homomorphism defined on all of G.
    """
    if isinstance(images, dict):
        gens = np.array([G.index_of(k) for k in images], dtype=np.int64)
        Y = np.array([[Gp.index_of(v) for v in images.values()]], dtype=np.int64)
        layers = _spanning_tree(G.mul, gens)
        img, ok = _extend(layers, G.mul, gens, Gp.mul, Y)
        if not ok[0] or 1 + sum(len(c) for c, _, _ in layers) < G.order:
            raise PreconditionError(
                "generator images do not extend to a homomorphism "
                "(or the given elements do not generate the domain)")
        return GroupMap(G, Gp, img[0])
    return GroupMap(G, Gp, images)


def enumerate_abelian_maps(G: FiniteGroup, Gp: FiniteGroup | None = None) -> list[GroupMap]:
    """All homomorphisms G -> G' with abelian image, in lexicographic order
    of their generator images.

    An abelian map kills [G, G], so it factors through the group Q = G/[G, G]:
    generator x can only map to some y with y^d = e, where d is the order
    of x[G, G], and the generator images commute pairwise.  Those choices
    come in blocks, one to a row; a block is extended along one spanning
    tree of Q, cut to its homomorphisms by one array comparison, lifted to
    G and checked there.  WorkLimitError is raised before the search when
    the product of the candidate counts exceeds ABELIAN_MAP_CANDIDATE_CAP.
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
    qgens = coset_of[np.array(gens, dtype=np.int64)]
    orders = groups.element_orders(quotient.mul)[qgens].tolist()
    # y^d = e iff the order of y divides d
    target_orders = groups.element_orders(Gp.mul)
    candidates = [np.flatnonzero(d % target_orders == 0) for d in orders]
    space = math.prod(len(c) for c in candidates)
    if space > ABELIAN_MAP_CANDIDATE_CAP:
        raise WorkLimitError(f"abelian map search space exceeds candidate cap: {space} "
                             f"candidate assignments > cap {ABELIAN_MAP_CANDIDATE_CAP}")

    layers = _spanning_tree(quotient.mul, qgens)
    # the two checks each hold two int64 arrays of `width` entries a row
    width = max(quotient.order * len(qgens), G.order * (1 + len(gens)))
    out = []
    for choices in _commuting_blocks(Gp.mul, candidates, np.zeros((1, 0), dtype=np.int64)):
        for s in groups.blocks(len(choices), 16 * width):
            img, ok = _extend(layers, quotient.mul, qgens, Gp.mul, choices[s])
            out += _abelian_maps(G, Gp, img[ok][:, coset_of], "enumerated")
    return out


def _commuting_blocks(mul: np.ndarray, candidates: list[np.ndarray], chosen: np.ndarray):
    """Each row of `chosen` extended by one element of every further candidate
    array, all commuting pairwise, in lexicographic order, in int64 blocks of at
    most SWEEP_BLOCK_BYTES; only products with candidates, no whole-group table."""
    i = chosen.shape[1]
    if i == len(candidates):
        yield chosen
        return
    cand = candidates[i]
    for s in groups.blocks(len(chosen), 8 * len(cand) * (i + 1)):
        block = chosen[s]
        allowed = np.ones((len(block), len(cand)), dtype=bool)
        for y in block.T:
            allowed &= mul[y[:, None], cand] == mul[cand, y[:, None]]
        rows, new = np.nonzero(allowed)
        yield from _commuting_blocks(mul, candidates, np.column_stack((block[rows], cand[new])))


@dataclass(eq=False)
class MapAnalysis:
    kernel: Subgroup
    fix: Subgroup | None


def map_analysis(f: GroupMap) -> MapAnalysis:
    """Kernel and (for endomorphisms) fix psi = {g : psi(g) = g}."""
    kernel = Subgroup(f.domain, np.flatnonzero(f.image_of == 0).tolist())
    fix = None
    if f.is_endomorphism():
        fixed = tuple(np.flatnonzero(
            f.image_of == np.arange(f.domain.order)).tolist())
        try:
            fix = Subgroup(f.domain, fixed)
        except PreconditionError as exc:
            raise InternalConsistencyError(
                "fix psi failed its subgroup closure check") from exc
    return MapAnalysis(kernel, fix)


def phi_of(psi: GroupMap) -> np.ndarray:
    """Read-only image array of phi(g) = g psi(g^-1), for an abelian
    endomorphism psi.

    phi is a homomorphism from (G, o) to (G, .), which `braces.circle_table`
    verifies, with ker phi = fix psi, which is verified here.
    """
    require_abelian_endomorphism(psi)
    G, im = psi.domain, psi.image_of
    phi = G.mul[np.arange(G.order), im[G.inv]]
    if ((phi == 0) != (im == np.arange(G.order))).any():
        raise InternalConsistencyError("ker phi differs from fix psi")
    phi.setflags(write=False)
    return phi


def phi_power(psi: GroupMap, n: int) -> np.ndarray:
    """Image array of phi composed with itself n times (n = 0 is identity),
    by repeated squaring: about 2 log2(n) compositions."""
    if groups._index(n, "tower index") < 0:
        raise PreconditionError("tower index must be non-negative")
    power = phi_of(psi)  # phi^(2^k) at bit k of n
    out = np.arange(psi.domain.order)
    while n > 0:
        if n & 1:
            out = power[out]
        power, n = power[power], n >> 1
    return out


def psi_iterate(psi: GroupMap, n: int) -> GroupMap:
    """The n-th iterated map: psi_0 trivial, psi_n(g) = psi(g) psi_{n-1}(phi(g))."""
    require_abelian_endomorphism(psi)
    if not 0 <= groups._index(n, "iteration index") <= PSI_ITERATE_BOUND:
        raise PreconditionError(f"iteration index must lie in 0..{PSI_ITERATE_BOUND}")
    G = psi.domain
    phi = phi_of(psi)
    current = np.zeros(G.order, dtype=np.int64)
    for _ in range(n):
        current = G.mul[psi.image_of, current[phi]]
    return _abelian_maps(G, G, current[None], f"psi_{n}")[0]


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
    return _abelian_maps(G, G, img[None], "cyclic_chain")[0]


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
    return _abelian_maps(A, S, img[None], "left_regular")[0]
