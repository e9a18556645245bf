import itertools

import numpy as np
import pytest

from skewbracoid import groups, maps
from skewbracoid.errors import PreconditionError, WorkLimitError
from skewbracoid.groups import (FiniteGroup, _dihedral_name, action_failure,
                                relation_failure)

_Q8_NAMES = ("e", "-e", "i", "-i", "j", "-j", "k", "-k")
_Q8_AXIS = {("e", "e"): ("+", "e"), ("e", "i"): ("+", "i"),
            ("e", "j"): ("+", "j"), ("e", "k"): ("+", "k"),
            ("i", "e"): ("+", "i"), ("i", "i"): ("-", "e"),
            ("i", "j"): ("+", "k"), ("i", "k"): ("-", "j"),
            ("j", "e"): ("+", "j"), ("j", "i"): ("-", "k"),
            ("j", "j"): ("-", "e"), ("j", "k"): ("+", "i"),
            ("k", "e"): ("+", "k"), ("k", "i"): ("+", "j"),
            ("k", "j"): ("-", "i"), ("k", "k"): ("-", "e")}


def quaternion_group() -> groups.FiniteGroup:
    """The quaternion group of order 8, from its sign/axis multiplication."""
    def mul(a: int, b: int) -> int:
        na, nb = _Q8_NAMES[a], _Q8_NAMES[b]
        sa, xa = ("-" if na.startswith("-") else "+"), na.lstrip("-")
        sb, xb = ("-" if nb.startswith("-") else "+"), nb.lstrip("-")
        s, x = _Q8_AXIS[(xa, xb)]
        neg = (sa == "-") ^ (sb == "-") ^ (s == "-")
        return _Q8_NAMES.index(("-" + x) if neg else x)

    table = [[mul(a, b) for b in range(8)] for a in range(8)]
    return groups.from_table(table, _Q8_NAMES, generators=[2, 4])


@pytest.fixture
def q8():
    return quaternion_group()


# the acceptance criterion-02 catalogue: C2..C16, D3..D8, Q8, S3
CATALOGUE = ([(f"C{n}", lambda n=n: groups.cyclic(n)) for n in range(2, 17)]
             + [(f"D{n}", lambda n=n: groups.dihedral(n)) for n in range(3, 9)]
             + [("Q8", quaternion_group), ("S3", lambda: groups.symmetric(3))])


def cyclic_oracle(n: int) -> FiniteGroup:
    """Cyclic group of order n, g^i at index i, by a Python double loop."""
    mul = np.array([[(i + j) % n for j in range(n)] for i in range(n)], dtype=np.int64)
    names = ["e"] + [f"g^{i}" if i > 1 else "g" for i in range(1, n)]
    return FiniteGroup(mul, tuple(names), (1,) if n > 1 else (0,))


def direct_product_oracle(*factors: FiniteGroup) -> FiniteGroup:
    """Direct product by a Python double loop over digit tuples, the first
    factor fastest; names and generators as the builder gives them."""
    orders = [f.order for f in factors]
    weights = [int(np.prod(orders[:k])) for k in range(len(orders))]
    total = int(np.prod(orders))
    digits = [[x // w % o for w, o in zip(weights, orders)] for x in range(total)]
    mul = np.empty((total, total), dtype=np.int64)
    for x in range(total):
        for y in range(total):
            mul[x, y] = sum(w * int(f.mul[i, j]) for w, f, i, j
                            in zip(weights, factors, digits[x], digits[y]))
    names = tuple("(" + ",".join(f.names[i] for f, i in zip(factors, d)) + ")"
                  for d in digits)
    gens = tuple(w * g for w, f in zip(weights, factors)
                 for g in f.generating_set() if g != 0)
    return FiniteGroup(mul, names, gens or (0,), factors)


def dihedral_oracle(n: int) -> FiniteGroup:
    """Dihedral group of order 2n with presentation r^n = s^2 = (rs)^2 = e,
    by a Python double loop: the builder this library used before its
    tables were computed as whole arrays."""
    if n < 1:
        raise PreconditionError("dihedral parameter must be positive")
    order = 2 * n
    mul = np.empty((order, order), dtype=np.int64)
    for a in range(order):
        i, p = a % n, a // n
        for b in range(order):
            j, q = b % n, b // n
            # r^i s^p * r^j s^q = r^(i + (-1)^p j) s^(p+q)
            k = (i + (j if p == 0 else -j)) % n
            mul[a, b] = k + n * ((p + q) % 2)
    names = tuple(_dihedral_name(a % n, a >= n, n) for a in range(order))
    return FiniteGroup(mul, names, (1, n))


def symmetric_rows_oracle(n: int, rows) -> np.ndarray:
    """The rows `rows` of the table of the symmetric group on 0..n-1, with
    (s*t)(x) = s(t(x)), by a Python double loop over the lexicographic
    permutations."""
    perms = list(itertools.permutations(range(n)))
    index = {p: i for i, p in enumerate(perms)}
    mul = np.empty((len(rows), len(perms)), dtype=np.int64)
    for r, i in enumerate(rows):
        p = perms[i]
        for j, q in enumerate(perms):
            mul[r, j] = index[tuple(p[q[k]] for k in range(n))]
    return mul


def symmetric_oracle(n: int) -> FiniteGroup:
    """Symmetric group on 0..n-1; composition (s*t)(x) = s(t(x)), by a
    Python double loop over the lexicographic permutations."""
    if n < 1 or n > 8:
        raise PreconditionError("symmetric group builder supports 1 <= n <= 8")
    perms = list(itertools.permutations(range(n)))
    index = {p: i for i, p in enumerate(perms)}
    mul = symmetric_rows_oracle(n, range(len(perms)))
    names = tuple("".join(map(str, p)) for p in perms)
    if n == 1:
        gens: tuple[int, ...] = (0,)
    else:
        transposition = tuple([1, 0] + list(range(2, n)))
        ncycle = tuple(list(range(1, n)) + [0])
        gens = (index[transposition], index[ncycle])
    return FiniteGroup(mul, names, gens)


def semidirect_oracle(base: FiniteGroup, acting: FiniteGroup, action) -> FiniteGroup:
    """Semidirect product base x| acting, by a Python double loop.

    `action` lists, for each acting element, the image array of an
    automorphism of `base`; the list must itself be a homomorphism from
    the acting group into Aut(base).  Both conditions are verified.
    """
    action = [np.asarray(a, dtype=np.int64) for a in action]
    if len(action) != acting.order:
        raise PreconditionError("need one automorphism per acting element")
    nb = base.order
    for a in action:
        if sorted(a.tolist()) != list(range(nb)):
            raise PreconditionError("action entry is not a permutation of the base")
    action = np.array(action)
    if relation_failure(action, base, np.zeros(acting.order, dtype=np.int64)):
        raise PreconditionError("action entry is not an automorphism of the base")
    if not np.array_equal(action[0], np.arange(nb)):
        raise PreconditionError("acting identity must act trivially")
    if action_failure(action, acting):
        raise PreconditionError("action is not a homomorphism from the acting group")
    total = nb * acting.order
    mul = np.empty((total, total), dtype=np.int64)
    for g in range(total):
        b1, a1 = g % nb, g // nb
        for h in range(total):
            b2, a2 = h % nb, h // nb
            mul[g, h] = base.mul[b1, int(action[a1, b2])] + nb * acting.mul[a1, a2]
    names = [f"({base.names[g % nb]},{acting.names[g // nb]})"
             for g in range(total)]
    gens = list(base.generating_set()) + [nb * a for a in acting.generating_set()]
    return FiniteGroup(mul, tuple(names), tuple(gens))


def _extend_by_bfs(G, Gp, gen_idx, gen_img):
    """Generator images propagated over G by breadth-first search, or None
    if they are inconsistent or do not reach all of G."""
    img = np.full(G.order, -1, dtype=np.int64)
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
                h = int(G.mul[g, t])
                w = int(Gp.mul[img[g], v])
                if img[h] < 0:
                    img[h] = w
                    nxt.append(h)
                elif img[h] != w:
                    return None
        frontier = nxt
    if (img < 0).any():
        return None
    return img


def brute_force_abelian_maps(G, Gp=None):
    """Every assignment of codomain elements to the generators, in
    itertools.product order, kept when it extends to a homomorphism with
    abelian image: the abelian-map enumeration this library used before
    the search went through G/[G, G]."""
    Gp = Gp or G
    gens = G.generators
    out = []
    for assignment in itertools.product(range(Gp.order), repeat=len(gens)):
        img = _extend_by_bfs(G, Gp, list(gens), list(assignment))
        if img is None:
            continue
        try:
            f = maps.GroupMap(G, Gp, img, provenance="enumerated")
        except PreconditionError:
            continue
        if f.abelian_image:
            out.append(f)
    return out


def brute_force_subgroups(G: groups.FiniteGroup) -> list[tuple[int, ...]]:
    """All subgroups by testing every subset; usable only for tiny groups."""
    out = []
    rest = [g for g in range(G.order) if g != 0]
    for r in range(len(rest) + 1):
        for extra in itertools.combinations(rest, r):
            members = (0,) + extra
            mset = set(members)
            closed = all(int(G.mul[a, b]) in mset for a in members for b in members)
            if closed and all(int(G.inv[a]) in mset for a in members):
                out.append(tuple(sorted(members)))
    return out


def extension_bfs_subgroups(G: groups.FiniteGroup, *,
                            work_limit: int = groups.SUBGROUP_WORK_LIMIT):
    """All subgroups by breadth-first closure over single-element extensions,
    sorted by (order, member tuple): the subgroup enumeration this library
    used before cyclic extension."""
    trivial = (0,)
    seen = {trivial}
    queue = [trivial]
    work = 0
    while queue:
        current = queue.pop()
        cset = set(current)
        for x in range(G.order):
            if x in cset:
                continue
            ext = groups.closure(G, list(current) + [x])
            work += len(ext)
            if work > work_limit:
                raise WorkLimitError("subgroup enumeration work limit exceeded")
            if ext not in seen:
                seen.add(ext)
                queue.append(ext)
    subs = [groups.Subgroup(G, members) for members in seen]
    subs.sort(key=lambda s: (s.order, s.members))
    return subs


def commutator(G: FiniteGroup, g: int, h: int) -> int:
    """g h g^-1 h^-1"""
    return int(G.mul[G.mul[g, h], G.mul[G.inv[g], G.inv[h]]])


def commutator_closure_oracle(G, members):
    """Closure of every commutator [a, b] with a, b in `members`, by scalar
    loops: the derived subgroup of the subgroup `members`."""
    return groups.closure(G, {commutator(G, a, b) for a in members for b in members})


def derived_series_oracle(G):
    """G', G'', ... as member tuples, ending at the first term that is 1 or
    equals the one before."""
    series, term = [], tuple(range(G.order))
    while True:
        series.append(commutator_closure_oracle(G, term))
        if len(series[-1]) in (1, len(term)):
            return series
        term = series[-1]


def c61_c10():
    """C61 x| C10, the generator of C10 acting on C61 as x -> 3x (3 has
    order 10 modulo 61)."""
    action = [[pow(3, k, 61) * i % 61 for i in range(61)] for k in range(10)]
    return groups.semidirect(groups.cyclic(61), groups.cyclic(10), action)


def element_orders_oracle(mul):
    """Order of every element, by powering all elements one step at a time
    until each reaches e: as many gathers as the group's exponent."""
    idx = np.arange(mul.shape[0])
    orders = np.zeros(mul.shape[0], dtype=np.int64)
    power, k = idx, 1
    while True:
        orders[(power == 0) & (orders == 0)] = k
        if orders.all():
            return orders
        power, k = mul[power, idx], k + 1


def project_to_factor(G: FiniteGroup, k: int, idx: int) -> int:
    """Coordinate of element `idx` in the k-th factor of a direct product."""
    return idx // int(np.prod([f.order for f in G.factors[:k]])) % G.factors[k].order


def circle_product(G: FiniteGroup, psi, g: int, h: int) -> int:
    """g o h = g psi(g^-1) h psi(g), evaluated pointwise."""
    im, m = psi.image_of, G.mul
    return int(m[m[m[g, im[G.inv[g]]], h], im[g]])


def circle_inverse(G: FiniteGroup, psi, g: int) -> int:
    """Inverse of g under o, by the closed form psi(g) g^-1 psi(g^-1)."""
    im = psi.image_of
    return int(G.mul[G.mul[im[g], G.inv[g]], im[G.inv[g]]])


def normal_oracle(mul, inv, members):
    """Scalar loop: g h g^-1 in H for every g and every h in H."""
    mset = set(members)
    return all(mul[mul[g, h], inv[g]] in mset
               for g in range(len(mul)) for h in members)


def commutator_oracle(G, S, members):
    """Scalar loop: g s g^-1 s^-1 in H for every g in G and s in S."""
    mset = set(members)
    return all(commutator(G, g, s) in mset for g in range(G.order) for s in S)


def sli_oracle(A, M, members):
    """Scalar re-implementation of the strong left ideal definition."""
    n = A.shape[0]
    mset = set(members)
    ainv = [int(np.argmax(A[g] == 0)) for g in range(n)]
    minv = [int(np.argmax(M[g] == 0)) for g in range(n)]
    sub = all(M[a, b] in mset for a in members for b in members) and \
        all(minv[a] in mset for a in members)
    normal = normal_oracle(A, ainv, members)
    stable = all(A[ainv[g], M[g, h]] in mset for g in range(n) for h in members)
    return sub and normal and stable


def fixpoint_roots(G: FiniteGroup, circle: FiniteGroup) -> np.ndarray:
    """Per family of the `ideals` docstring, ideals.FAMILIES then "(.,o)",
    "(.',o)" and "(.,o')", the orbit roots of h -> f_g(h) for every g, as
    one `groups.orbit_roots` fixpoint over six disjoint copies of G: the
    route that assumes nothing about how the f_g compose."""
    dot, inv, circ, cinv, n = G.mul, G.inv, circle.mul, circle.inv, G.order
    perms = (lambda g: circ[circ[g], cinv[g][:, None]],
             lambda g: circ[cinv[g][:, None], dot[g]],
             lambda g: circ[dot[g], cinv[g][:, None]],
             lambda g: dot[inv[g][:, None], circ[g]],
             lambda g: dot[circ[g], inv[g][:, None]],
             lambda g: dot[inv[g][:, None], circ[:, g].T])
    roots = groups.orbit_roots(
        lambda g: np.hstack([f(g) + k * n for k, f in enumerate(perms)]), n, 6 * n)
    return roots.reshape(6, n) - n * np.arange(6)[:, None]


def family_closed_forms(G: FiniteGroup, psi) -> np.ndarray:
    """f_g(h) of each family of the `ideals` docstring, ideals.FAMILIES then
    "(.,o)", "(.',o)" and "(.,o')", by its closed form in phi and psi, as a
    (families x g x h) array."""
    m, inv = G.mul, G.inv
    phi, im = maps.phi_of(psi), psi.image_of
    g, h = np.arange(G.order)[:, None], np.arange(G.order)[None, :]
    return np.array([
        m[m[m[phi[g], phi[h]], inv[phi[g]]], im[h]],  # "o"
        m[m[im[g], h], inv[im[g]]],  # "(o,.)"
        m[m[m[g, phi[h]], inv[g]], im[h]],  # "(o',.)"
        m[m[inv[im[g]], h], im[g]],  # "(.,o)"
        m[m[phi[g], h], inv[phi[g]]],  # "(.',o)"
        m[m[m[inv[g], phi[h]], g], im[h]]])  # "(.,o')"


def closed_per_stack(circ, masks, members):
    """Whether each row of `masks`, whose member tuples `members` are in
    (order, members) order, is closed under the table `circ`: per stack P
    (k x m) of the tuples of one order, whether each P[r, i] o P[r, j] lies
    in row r, gathered for blocks of i whose int64 arrays take at most
    SWEEP_BLOCK_BYTES or the size of P."""
    closed, lo = [], 0
    for _, same in itertools.groupby(members, len):
        P = np.array(list(same))
        rows, step = np.arange(lo, lo + len(P))[:, None, None], \
            max(1, groups.SWEEP_BLOCK_BYTES // (8 * P.size))
        closed.append(np.logical_and.reduce([
            masks[rows, circ[P[:, i:i + step, None], P[:, None]]].all(axis=(1, 2))
            for i in range(0, P.shape[1], step)]))
        lo += len(P)
    return np.concatenate(closed)


def brace_oracle(A, M):
    """Naive triple loop for g o (h . k) = (g o h) . g^-1 . (g o k)."""
    n = A.shape[0]
    ainv = [int(np.argmax(A[g] == 0)) for g in range(n)]
    for g in range(n):
        for h in range(n):
            for k in range(n):
                lhs = M[g, A[h, k]]
                rhs = A[A[M[g, h], ainv[g]], M[g, k]]
                if lhs != rhs:
                    return (g, h, k)
    return None


def braid_oracle(s):
    """Naive check of (R x id)(id x R)(R x id) = (id x R)(R x id)(id x R)."""
    n = s.set_order
    for x in range(n):
        for y in range(n):
            for z in range(n):
                a, b = s.apply(x, y)
                bb, c = s.apply(b, z)
                a2, b2 = s.apply(a, bb)
                left = (a2, b2, c)
                b3, c3 = s.apply(y, z)
                a4, b4 = s.apply(x, b3)
                c5, d5 = s.apply(b4, c3)
                right = (a4, c5, d5)
                if left != right:
                    return (x, y, z)
    return None


def bracoid_oracle(b):
    """Scalar loop over g (+) (eta * mu) = (g (+) eta) * (g (+) e)^-1 * (g (+) mu)."""
    act, T = b.action, b.target.op
    n, m = act.shape
    tinv = [int(np.argmax(T[t] == 0)) for t in range(m)]
    for g in range(n):
        for eta in range(m):
            for mu in range(m):
                lhs = act[g, T[eta, mu]]
                rhs = T[T[act[g, eta], tinv[act[g, 0]]], act[g, mu]]
                if lhs != rhs:
                    return (g, eta, mu)
    return None


def action_oracle(b):
    """Scalar loop over (g h) (+) eta = g (+) (h (+) eta)."""
    act, G = b.action, b.acting.op
    n, m = act.shape
    for g in range(n):
        for h in range(n):
            for eta in range(m):
                if act[G[g, h], eta] != act[g, act[h, eta]]:
                    return (g, h, eta)
    return None


def coset_space_oracle(G, members):
    """(coset_of, representatives) of the left cosets gH as lists, numbered
    in index order of their least members, by a loop over G."""
    coset_of, reps = [-1] * G.order, []
    for g in range(G.order):
        if coset_of[g] < 0:
            for h in members:
                coset_of[int(G.mul[g, h])] = len(reps)
            reps.append(g)
    return coset_of, reps


def push_down_oracles(coset_of, reps, op):
    """The push-downs of the table `op` to the classes `coset_of` with
    representatives `reps`, by scalar loops: the action [g, c] -> class of
    op(g, reps[c]), the representatives' rows, and the induced table
    [c, d] -> class of op(reps[c], reps[d]); each None unless it is
    well-defined (the class of op(g, x) depends on x only through its
    class; every row equals its representative's row; the class of op(x, y)
    depends on x and y only through their classes)."""
    n, k = len(coset_of), len(reps)
    action = [[coset_of[op[g][reps[c]]] for c in range(k)] for g in range(n)]
    if any(coset_of[op[g][x]] != action[g][coset_of[x]] for g in range(n) for x in range(n)):
        action = None
    rows = [list(op[r]) for r in reps]
    if any(list(op[g]) != rows[coset_of[g]] for g in range(n)):
        rows = None
    induced = [[coset_of[op[x][y]] for y in reps] for x in reps]
    if any(coset_of[op[x][y]] != induced[coset_of[x]][coset_of[y]]
           for x in range(n) for y in range(n)):
        induced = None
    return action, rows, induced


def phi_tower_oracle(G, phin):
    """The phi-tower's target table and action on phi^n(G), given the image
    array `phin` of phi^n, by scalar loops: the target elements are the
    image members in index order, g (+) phi^n(x) = phi^n(gx) with x the
    least element of its fibre, and a product of image members outside the
    image is -1."""
    members = sorted(set(phin.tolist()))
    pos = {m: i for i, m in enumerate(members)}
    target = [[pos.get(int(G.mul[a, b]), -1) for b in members] for a in members]
    least = [min(x for x in range(G.order) if phin[x] == m) for m in members]
    action = [[pos[int(phin[G.mul[g, x]])] for x in least] for g in range(G.order)]
    return target, action


def ker_times(named, H1):
    """The set product (ker psi) * H1 as a subgroup, for H1 <= fix psi."""
    if not H1.member_set() <= named.fix.member_set():
        raise PreconditionError("H1 must be a subgroup of fix psi")
    G = named.group
    prod = np.zeros(G.order, dtype=bool)
    prod[G.mul[np.asarray(named.ker.members)[:, None], list(H1.members)]] = True
    return groups.Subgroup(G, tuple(np.flatnonzero(prod).tolist()))


# The paper's closed forms of the three YBE builders.  Each returns the
# tables (lam, rho) with lam[x, y] the first and rho[y, x] the second
# coordinate of R(x, y); the builders compute them by the contained-brace
# recipe instead.

def idempotent_oracle(G, psi):
    """R(x,y) = (psi(x) phi(y) psi(x^-1),  psi(x) phi(y)^-1 phi(x^-1)^-1 y),
    checked against the alternative published second coordinate
    psi(x) phi(y)^-1 psi(x^-1) x y."""
    m, inv, im = G.mul, G.inv, psi.image_of
    phi = maps.phi_of(psi)
    idx = np.arange(G.order)
    X, Y = idx[:, None], idx[None, :]
    lam = m[m[im[:, None], phi[None, :]], im[inv][:, None]]
    rho_xy = m[m[m[im[:, None], inv[phi][None, :]], inv[phi[inv]][:, None]], Y]
    alt = m[m[m[m[im[:, None], inv[phi][None, :]], im[inv][:, None]], X], Y]
    assert np.array_equal(rho_xy, alt), "the two forms of the second coordinate disagree"
    return lam, rho_xy.T


def abelian_pair_oracle(G, psi):
    """For abelian G and idempotent psi, the tables of
    R(x,y) = (phi(y), psi(y) x)  and  R'(x,y) = (psi(y), phi(y) x);
    R is checked against the idempotent closed form of psi."""
    n = G.order
    phi, im = maps.phi_of(psi), psi.image_of
    R = (np.broadcast_to(phi[None, :], (n, n)), G.mul[im[:, None], np.arange(n)[None, :]])
    Rp = (np.broadcast_to(im[None, :], (n, n)), G.mul[phi[:, None], np.arange(n)[None, :]])
    general = idempotent_oracle(G, psi)
    assert all(np.array_equal(a, b) for a, b in zip(R, general)), \
        "the abelian specialization disagrees with the idempotent closed form"
    return R, Rp


def product_oracle(G1, G2, alpha, beta):
    """The product solution on G1 x G2, x = x1 + |G1| x2:

    lambda_x(y) = (e, alpha(x1^-1) y2 alpha(x1))
    rho_y(x)    = (beta(y2) x1 beta(x2^-1) y1 beta(x2 y2^-1),
                   alpha(x1)^-1 y2^-1 alpha(x1) x2 alpha(x1)^-1 y2 alpha(x1))
    """
    n1 = G1.order
    idx = np.arange(n1 * G2.order)
    x1, x2 = idx % n1, idx // n1
    m1, m2, i2 = G1.mul, G2.mul, G2.inv
    a, b = alpha.image_of, beta.image_of
    ax = a[x1]
    axinv = i2[ax]
    lam = n1 * m2[m2[axinv[:, None], x2[None, :]], ax[:, None]]
    x2y2inv = m2[x2[:, None], i2[x2][None, :]]  # [x, y] -> x2 y2^-1
    r1 = m1[m1[m1[m1[b[x2][None, :], x1[:, None]],
                b[i2[x2]][:, None]], x1[None, :]], b[x2y2inv]]
    u = m2[axinv[:, None], i2[x2][None, :]]
    for step in (ax[:, None], x2[:, None], axinv[:, None], x2[None, :], ax[:, None]):
        u = m2[u, step]
    return lam, (r1 + n1 * u).T
