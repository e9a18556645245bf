"""Finite groups as dense Cayley tables over integer element indices.

Every group lives on the index set ``0..order-1`` with the identity fixed at
index 0.  Multiplication is a dense ``order x order`` table, so every
relation check is a failure predicate over index arrays, evaluated by the
one ``sweep`` kernel; generator reductions keep most checks exact.

Element ordering is construction-defined and stable:

* cyclic n:      ``g^i`` at index i
* dihedral n:    ``r^i`` at index i, ``r^i s`` at index n+i
* symmetric n:   permutations of ``0..n-1`` in lexicographic one-line order
* products:      pair ``(i1, i2)`` at index ``i1 + order1 * i2``
* semidirect:    pair ``(b, a)`` at index ``b + |base| * a``
"""

from __future__ import annotations

import itertools
import math
from dataclasses import dataclass

import numpy as np

from .errors import InternalConsistencyError, PreconditionError, WorkLimitError

DEFAULT_ORDER_CAP = 10_000
SUBGROUP_WORK_LIMIT = 10**6
# relations with no generator reduction are sampled above this order
TRIPLE_EXHAUSTIVE_CAP = 256
TRIPLE_SAMPLE_COUNT = 10**6
# 4-16 MiB blocks ran fastest on the order-192 braid sweep (4 MiB: 26 MiB peak)
SWEEP_BLOCK_BYTES = 4 * 2**20


def sweep(bad, axes, *, samples: int = 0, seed: int = 0):
    """Lexicographically first index tuple at which `bad` holds, or None.

    `bad` maps one index array per axis, broadcast against each other, to a
    boolean array of their broadcast shape; `axes` lists each axis's
    ascending index values.  The first axis is walked in blocks whose int64
    arrays take at most SWEEP_BLOCK_BYTES.  With `samples`, `bad` is
    instead evaluated on that many tuples drawn with `seed`, in draw order.
    """
    axes = [np.asarray(a, dtype=np.int64) for a in axes]
    if samples:
        rng = np.random.default_rng(seed)
        draws = [a[p] for a, p in zip(axes, rng.integers(
            0, [[len(a)] for a in axes], size=(len(axes), samples)))]
        hit = sweep(lambda i: bad(*(d[i] for d in draws)), [np.arange(samples)])
        return None if hit is None else tuple(int(d[hit[0]]) for d in draws)
    step = max(1, SWEEP_BLOCK_BYTES // (8 * max(1, math.prod(map(len, axes[1:])))))
    # the open mesh np.ix_ builds: axis k runs along dimension k
    first, *rest = (a.reshape([-1 if j == k else 1 for j in range(len(axes))])
                    for k, a in enumerate(axes))
    for start in range(0, len(first), step):
        block = (first[start:start + step], *rest)
        hit = bad(*block)
        if hit.any():
            pos = np.unravel_index(np.argmax(hit), hit.shape)
            return tuple(int(a.flat[p]) for a, p in zip(block, pos))
    return None


def _right_closure(mul: np.ndarray, gens, members=(0,)) -> set[int]:
    """`members` and all that repeated right multiplication by `gens` reaches."""
    members = set(members)
    frontier = list(members)
    while frontier:
        nxt = []
        for x in frontier:
            for g in gens:
                y = int(mul[x, g])
                if y not in members:
                    members.add(y)
                    nxt.append(y)
        frontier = nxt
    return members


def require_generating(mul: np.ndarray, gens) -> None:
    """Raise PreconditionError unless `gens` generate the group `mul`."""
    if len(_right_closure(mul, gens)) != mul.shape[0]:
        raise PreconditionError("generators do not generate the group")


def verify_group_table(mul: np.ndarray) -> tuple[int, ...]:
    """Check the group axioms on a candidate Cayley table, exactly.

    Identity must sit at index 0.  Associativity is Light's test, (xa)y =
    x(ay) for every a in a greedy generating set, which a group never needs
    more than log2(order) elements for.  Raises PreconditionError on any
    failure; returns the generating set.
    """
    n = mul.shape[0]
    if mul.shape != (n, n):
        raise PreconditionError("multiplication table must be square")
    if mul.min() < 0 or mul.max() >= n:
        raise PreconditionError("multiplication table is not closed")
    idx = np.arange(n)
    if not (np.array_equal(mul[0], idx) and np.array_equal(mul[:, 0], idx)):
        raise PreconditionError("index 0 is not a two-sided identity")
    # every row must contain the identity somewhere (existence of inverses)
    if not np.all((mul == 0).any(axis=1)):
        raise PreconditionError("some element has no right inverse")
    gens: list[int] = []
    reached = {0}
    for g in range(n):
        if g not in reached:
            if len(gens) == n.bit_length() - 1:
                raise PreconditionError("associativity fails")
            gens.append(g)
            reached = _right_closure(mul, gens, reached)
    if sweep(lambda x, a, y: mul[mul[x, a], y] != mul[x, mul[a, y]],
             (idx, gens, idx)) is not None:
        raise PreconditionError("associativity fails")
    return tuple(gens)


def relation_failure(act: np.ndarray, T: np.ndarray, off: np.ndarray) -> tuple | None:
    """First (g, eta, mu) failing  g+(eta mu) = (g+eta) off[g] (g+mu)  for
    the action `act` on the group table `T`: the brace relation when off is
    the additive inverse, the bracoid relation when off[g] = (g+e)^-1.  It
    holds iff each eta -> off[g] (g+eta) is an endomorphism, so mu runs over
    generators of T to find the first failing g, whose full slice gives the
    witness."""
    def bad(g, eta, mu):
        return act[g, T[eta, mu]] != T[T[act[g, eta], off[g]], act[g, mu]]

    g_all, t_all = np.arange(act.shape[0]), np.arange(T.shape[0])
    hit = sweep(bad, (g_all, t_all, verify_group_table(T)))
    return None if hit is None else sweep(bad, ((hit[0],), t_all, t_all))


def action_failure(act: np.ndarray, G: np.ndarray) -> tuple | None:
    """First (g, h, eta) failing  (g h)+eta = g+(h+eta)  for the action
    `act` of the group table `G`.  Checked with h over generators of G
    first; that reduction holds for all g together, not per g, so a
    failure is located by the full sweep."""
    def bad(g, h, eta):
        return act[G[g, h], eta] != act[g, act[h, eta]]

    g_all, t_all = np.arange(act.shape[0]), np.arange(act.shape[1])
    if sweep(bad, (g_all, verify_group_table(G), t_all)) is None:
        return None
    return sweep(bad, (g_all, g_all, t_all))


def inverses(mul: np.ndarray) -> np.ndarray:
    """Right inverse of every element of a table with identity 0."""
    return np.argmax(mul == 0, axis=1).astype(np.int64)


@dataclass(frozen=True, eq=False)
class FiniteGroup:
    """An immutable finite group: Cayley table, inverses, display names."""

    mul: np.ndarray
    inv: np.ndarray
    names: tuple[str, ...]
    generators: tuple[int, ...] | None = None
    factors: tuple["FiniteGroup", ...] | None = None  # direct-product metadata

    def __post_init__(self):
        self.mul.setflags(write=False)
        self.inv.setflags(write=False)
        if len(set(self.names)) != len(self.names):
            raise PreconditionError("element names must be pairwise distinct")

    @property
    def order(self) -> int:
        return self.mul.shape[0]

    identity = 0

    def op(self, a: int, b: int) -> int:
        return int(self.mul[a, b])

    def inverse(self, a: int) -> int:
        return int(self.inv[a])

    def generating_set(self) -> tuple[int, ...]:
        """`generators`, or for a group built without them the generating
        set that the group-table check finds, computed once per group."""
        if self.generators is not None:
            return self.generators
        cached = getattr(self, "_generating_set", None)
        if cached is None:
            cached = verify_group_table(self.mul)
            object.__setattr__(self, "_generating_set", cached)
        return cached

    def commutator(self, g: int, h: int) -> int:
        """g h g^-1 h^-1"""
        return int(self.mul[self.mul[g, h], self.mul[self.inv[g], self.inv[h]]])

    def index_of(self, name: str) -> int:
        try:
            return self.names.index(name)
        except ValueError:
            raise PreconditionError(f"no element named {name!r}") from None

    def is_abelian(self) -> bool:
        return bool(np.array_equal(self.mul, self.mul.T))

    def __repr__(self):
        return f"FiniteGroup(order={self.order})"


# ---------------------------------------------------------------------------
# builders


def from_table(mul, names=None, generators=None) -> FiniteGroup:
    """Build a group from an explicit Cayley table, verifying the axioms."""
    table = np.asarray(mul, dtype=np.int64)
    verify_group_table(table)
    n = table.shape[0]
    if names is None:
        names = tuple(f"a{i}" for i in range(n))
    else:
        names = tuple(names)
        if len(names) != n:
            raise PreconditionError("names length does not match order")
    gens = tuple(int(g) for g in generators) if generators is not None else None
    if gens is not None:
        if any(g < 0 or g >= n for g in gens):
            raise PreconditionError("generator index out of range")
        require_generating(table, gens)
    return FiniteGroup(table, inverses(table), names, gens)


def _check_order(order: int, order_cap: int) -> None:
    """Refuse a group of `order` above `order_cap` before its order x order
    table is allocated."""
    if order > order_cap:
        raise PreconditionError(f"requested order {order} exceeds cap {order_cap}")


def cyclic(n: int, *, order_cap: int = DEFAULT_ORDER_CAP) -> FiniteGroup:
    if n < 1:
        raise PreconditionError("cyclic order must be positive")
    _check_order(n, order_cap)
    idx = np.arange(n)
    mul = (idx[:, None] + idx[None, :]) % n
    names = ["e"] + [f"g^{i}" if i > 1 else "g" for i in range(1, n)]
    return FiniteGroup(mul, inverses(mul), tuple(names),
                       (1,) if n > 1 else (0,))


def _dihedral_name(i: int, refl: bool, n: int) -> str:
    if not refl:
        return "e" if i == 0 else ("r" if i == 1 else f"r^{i}")
    return "s" if i == 0 else ("rs" if i == 1 else f"r^{i}s")


def dihedral(n: int, *, order_cap: int = DEFAULT_ORDER_CAP) -> FiniteGroup:
    """Dihedral group of order 2n with presentation r^n = s^2 = (rs)^2 = e.
    All cells at once: r^i s^p * r^j s^q = r^(i + (-1)^p j) s^(p+q)."""
    if n < 1:
        raise PreconditionError("dihedral parameter must be positive")
    _check_order(2 * n, order_cap)
    a = np.arange(2 * n)
    i, p = a % n, a // n
    mul = np.outer(1 - 2 * p, i)  # (-1)^p j
    mul += i[:, None]
    mul %= n
    mul[:n, n:] += n
    mul[n:, :n] += n
    names = tuple(_dihedral_name(x % n, x >= n, n) for x in range(2 * n))
    return FiniteGroup(mul, inverses(mul), names, (1, n))


def symmetric(n: int, *, order_cap: int = DEFAULT_ORDER_CAP) -> FiniteGroup:
    """Symmetric group on 0..n-1; composition (s*t)(x) = s(t(x)).

    A one-line permutation read as a base-n number is its key, so
    lexicographic order is key order and the index of s*t is the rank of
    the key of s[t] among the sorted keys.  Rows are composed in blocks
    whose rows x order x n arrays take at most SWEEP_BLOCK_BYTES."""
    if n < 1 or n > 8:
        raise PreconditionError("symmetric group builder supports 1 <= n <= 8")
    order = math.factorial(n)
    _check_order(order, order_cap)
    perms = symmetric_perms(n)
    P = np.array(perms, dtype=np.int64)
    weights = n ** np.arange(n - 1, -1, -1, dtype=np.int64)
    keys = P @ weights
    mul = np.empty((order, order), dtype=np.int64)
    step = max(1, SWEEP_BLOCK_BYTES // (8 * order * n))
    for start in range(0, order, step):
        mul[start:start + step] = np.searchsorted(
            keys, P[start:start + step][:, P] @ weights)
    names = tuple("".join(map(str, p)) for p in perms)
    if n == 1:
        gens: tuple[int, ...] = (0,)
    else:
        transposition = [1, 0] + list(range(2, n))
        ncycle = list(range(1, n)) + [0]
        gens = tuple(np.searchsorted(keys, np.array([transposition, ncycle])
                                     @ weights).tolist())
    return FiniteGroup(mul, inverses(mul), names, gens)


def symmetric_perms(n: int) -> list[tuple[int, ...]]:
    """One-line permutations in the same order the symmetric builder uses."""
    return list(itertools.permutations(range(n)))


def direct_product(*groups: FiniteGroup,
                   order_cap: int = DEFAULT_ORDER_CAP) -> FiniteGroup:
    """Direct product; index encodes (i1, .., ik) with the first factor fastest."""
    if len(groups) < 2:
        raise PreconditionError("direct product needs at least two factors")
    orders = [g.order for g in groups]
    total = math.prod(orders)
    _check_order(total, order_cap)
    weights = np.cumprod([1] + orders[:-1])
    coords = np.arange(total)[:, None] // weights % orders
    mul = np.zeros((total, total), dtype=np.int64)
    for k, g in enumerate(groups):
        mul += weights[k] * g.mul[coords[:, k][:, None], coords[:, k][None, :]]
    names = tuple(
        "(" + ",".join(groups[k].names[coords[i, k]] for k in range(len(groups))) + ")"
        for i in range(total)
    )
    gens = []
    for k, g in enumerate(groups):
        for gen in g.generating_set():
            gens.append(int(weights[k] * gen))
    return FiniteGroup(mul, inverses(mul), names, tuple(gens), tuple(groups))


def factor_embedding(G: FiniteGroup, k: int) -> list[int]:
    """Indices of the embedded k-th factor of a direct product."""
    if G.factors is None:
        raise PreconditionError("group is not a direct product")
    weight = math.prod(f.order for f in G.factors[:k])
    return [weight * i for i in range(G.factors[k].order)]


def project_to_factor(G: FiniteGroup, k: int, idx: int) -> int:
    """Coordinate of element `idx` in the k-th factor of a direct product."""
    if G.factors is None:
        raise PreconditionError("group is not a direct product")
    if not 0 <= k < len(G.factors):
        raise PreconditionError("factor index out of range")
    return idx // math.prod(f.order for f in G.factors[:k]) % G.factors[k].order


def semidirect(base: FiniteGroup, acting: FiniteGroup, action, *,
               order_cap: int = DEFAULT_ORDER_CAP) -> FiniteGroup:
    """Semidirect product base x| acting.

    `action` lists, for each acting element, the image array of an
    automorphism of `base`; the list must itself be a homomorphism from
    the acting group into Aut(base).  Both conditions are verified.
    """
    nb = base.order
    _check_order(nb * acting.order, order_cap)
    action = [np.asarray(a, dtype=np.int64) for a in action]
    if len(action) != acting.order:
        raise PreconditionError("need one automorphism per acting element")
    for a in action:
        if sorted(a.tolist()) != list(range(nb)):
            raise PreconditionError("action entry is not a permutation of the base")
    action = np.array(action)
    if relation_failure(action, base.mul, np.zeros(acting.order, dtype=np.int64)):
        raise PreconditionError("action entry is not an automorphism of the base")
    if not np.array_equal(action[0], np.arange(nb)):
        raise PreconditionError("acting identity must act trivially")
    if action_failure(action, acting.mul):
        raise PreconditionError("action is not a homomorphism from the acting group")
    g = np.arange(nb * acting.order)
    b, a = g % nb, g // nb
    # (b1, a1)(b2, a2) = (b1 a1(b2), a1 a2), gathered for all cells at once
    mul = base.mul[:, action][b[:, None], a[:, None], b]
    mul += (nb * acting.mul)[a[:, None], a]
    names = [f"({base.names[x % nb]},{acting.names[x // nb]})" for x in g.tolist()]
    gens = list(base.generating_set()) + [nb * a for a in acting.generating_set()]
    return FiniteGroup(mul, inverses(mul), tuple(names), tuple(gens))


def _spec_order(spec: dict) -> int:
    kind = spec.get("kind")
    if kind == "cyclic":
        return int(spec["n"])
    if kind == "dihedral":
        return 2 * int(spec["n"])
    if kind == "symmetric":
        return math.factorial(int(spec["n"]))
    if kind == "product":
        return math.prod(map(_spec_order, spec["factors"]))
    if kind == "semidirect":
        return _spec_order(spec["base"]) * _spec_order(spec["acting"])
    if kind == "table":
        return len(spec["mul"])
    raise PreconditionError(f"unknown group spec kind {kind!r}")


def build_group(spec: dict, *, order_cap: int = DEFAULT_ORDER_CAP) -> FiniteGroup:
    """Build a group from a GroupSpec dict (see the JSON interface docs).
    The order of the whole spec is checked against `order_cap` before any
    part of it is built."""
    _check_order(_spec_order(spec), order_cap)
    kind = spec["kind"]
    if kind == "cyclic":
        return cyclic(int(spec["n"]), order_cap=order_cap)
    if kind == "dihedral":
        return dihedral(int(spec["n"]), order_cap=order_cap)
    if kind == "symmetric":
        return symmetric(int(spec["n"]), order_cap=order_cap)
    if kind == "product":
        return direct_product(*(build_group(f, order_cap=order_cap)
                                for f in spec["factors"]), order_cap=order_cap)
    if kind == "semidirect":
        base = build_group(spec["base"], order_cap=order_cap)
        acting = build_group(spec["acting"], order_cap=order_cap)
        return semidirect(base, acting, spec["action"], order_cap=order_cap)
    if kind == "table":
        return from_table(spec["mul"], spec.get("names"), spec.get("generators"))
    raise PreconditionError(f"unknown group spec kind {kind!r}")


# ---------------------------------------------------------------------------
# subgroups and cosets


@dataclass(frozen=True, eq=False)
class Subgroup:
    parent: FiniteGroup
    members: tuple[int, ...]

    def __post_init__(self):
        mem = tuple(sorted(set(int(m) for m in self.members)))
        object.__setattr__(self, "members", mem)
        G = self.parent
        if any(m < 0 or m >= G.order for m in mem):
            raise PreconditionError("subgroup member index out of range")
        if 0 not in mem:
            raise PreconditionError("subgroup must contain the identity")
        # the first member (in index order) whose inverse or a product with
        # some member falls outside decides the message
        mask = self.member_mask()
        bad_inv = sweep(lambda a: ~mask[G.inv[a]], (mem,))
        bad_mul = sweep(lambda a, b: ~mask[G.mul[a, b]], (mem, mem))
        if bad_inv is not None and (bad_mul is None or bad_inv[0] <= bad_mul[0]):
            raise PreconditionError("subgroup not closed under inversion")
        if bad_mul is not None:
            raise PreconditionError("subgroup not closed under multiplication")
        if G.order % len(mem) != 0:
            raise InternalConsistencyError("Lagrange violated by a closed subset")

    @property
    def order(self) -> int:
        return len(self.members)

    def member_set(self) -> frozenset[int]:
        return frozenset(self.members)

    def member_mask(self) -> np.ndarray:
        """Boolean array over the parent's elements, True on the members."""
        mask = np.zeros(self.parent.order, dtype=bool)
        mask[list(self.members)] = True
        return mask

    def __contains__(self, g: int) -> bool:
        return int(g) in self.member_set()

    def __repr__(self):
        names = ",".join(self.parent.names[m] for m in self.members[:6])
        more = ",..." if self.order > 6 else ""
        return f"Subgroup({{{names}{more}}}, order={self.order})"


def closure(G: FiniteGroup, gens) -> tuple[int, ...]:
    """Member tuple of the smallest subgroup containing `gens`."""
    gens = [int(g) for g in gens]
    for g in gens:
        if g < 0 or g >= G.order:
            raise PreconditionError("generator index out of range")
    # positive words in the generators; in a finite group this already
    # contains all inverses
    return tuple(sorted(_right_closure(G.mul, gens)))


def subgroup_generated(G: FiniteGroup, gens) -> Subgroup:
    return Subgroup(G, closure(G, gens))


def _known_subgroup(G: FiniteGroup, members: tuple[int, ...]) -> Subgroup:
    """The Subgroup of `members`, sorted and checked once already, built
    without checking them again."""
    H = object.__new__(Subgroup)
    object.__setattr__(H, "parent", G)
    object.__setattr__(H, "members", members)
    return H


def _element_orders(G: FiniteGroup) -> np.ndarray:
    """Order of every element, by powering all elements at once."""
    idx = np.arange(G.order)
    orders = np.zeros(G.order, dtype=np.int64)
    power, k = idx, 1
    while True:
        orders[(power == 0) & (orders == 0)] = k
        if orders.all():
            return orders
        power, k = G.mul[power, idx], k + 1


def _prime_of_power(n: int) -> int | None:
    """The prime p if n > 1 is a power of p, else None."""
    p = next(d for d in range(2, n + 1) if n % d == 0)
    while n % p == 0:
        n //= p
    return p if n == 1 else None


def _join(mul: np.ndarray, members: np.ndarray, x: int) -> np.ndarray:
    """Mask of <H, x> for the subgroup H with member array `members`.

    Grown from H as a union of left cosets of H: each new element w adds
    its coset wH, until right multiplication by x reaches nothing new.
    """
    mask = np.zeros(mul.shape[0], dtype=bool)
    mask[members] = True
    frontier = members
    while True:
        step = mul[frontier, x]
        step = step[~mask[step]]
        if not step.size:
            return mask
        fresh = np.zeros_like(mask)
        fresh[mul[step[:, None], members[None, :]]] = True
        fresh &= ~mask
        mask |= fresh
        frontier = np.flatnonzero(fresh)


def enumerate_subgroups(G: FiniteGroup, *, work_limit: int = SUBGROUP_WORK_LIMIT) -> list[Subgroup]:
    """All subgroups of G, each once, sorted by (order, member tuple).

    Cyclic extension (Neubueser): every subgroup is the join of its cyclic
    subgroups of prime-power order, the zuppos, because each element is a
    product of powers of itself of prime-power order.  Adding a subgroup's
    zuppos in order of increasing size joins each <z>, of order p^k, to a
    subgroup that already holds z^p.  So extending every subgroup found by
    every zuppo <z> it lacks whose z^p it holds reaches every subgroup.

    Work counts the members of every closure and join computed; past
    `work_limit` WorkLimitError is raised.  The lattice is computed once
    per group; later calls do no work, whatever their `work_limit`, and
    each returns a new list of new Subgroup objects.
    """
    cached = getattr(G, "_subgroups", None)
    if cached is not None:
        return [_known_subgroup(G, members) for members in cached]
    work = 0

    def count(size: int) -> None:
        nonlocal work
        work += size
        if work > work_limit:
            raise WorkLimitError("subgroup enumeration work limit exceeded")

    orders = _element_orders(G)
    prime_of = {o: _prime_of_power(o) for o in set(orders.tolist()) if o > 1}
    # a generator z of each zuppo, and a generator of its subgroup <z^p>
    # (any element of <z> of order |z|/p)
    zuppos, roots = [], []
    covered = np.zeros(G.order, dtype=bool)
    for x in range(1, G.order):
        o = int(orders[x])
        if covered[x] or prime_of[o] is None:
            continue
        cyc = np.asarray(closure(G, [x]))
        count(len(cyc))
        covered[cyc[orders[cyc] == o]] = True
        zuppos.append(x)
        roots.append(cyc[np.argmax(orders[cyc] == o // prime_of[o])])
    zuppos, roots = np.array(zuppos, dtype=np.int64), np.array(roots, dtype=np.int64)

    trivial = np.zeros(G.order, dtype=bool)
    trivial[0] = True
    found = {trivial.tobytes(): trivial}
    queue = [trivial]
    while queue:
        mask = queue.pop()
        members = np.flatnonzero(mask)
        for z in zuppos[~mask[zuppos] & mask[roots]].tolist():
            ext = _join(G.mul, members, z)
            count(int(np.count_nonzero(ext)))
            key = ext.tobytes()
            if key not in found:
                found[key] = ext
                queue.append(ext)
    subs = [Subgroup(G, tuple(np.flatnonzero(m).tolist())) for m in found.values()]
    subs.sort(key=lambda s: (s.order, s.members))
    # member tuples only: cached Subgroups would refer back to G, and G in
    # a reference cycle outlives its last use until the cycle collector runs
    object.__setattr__(G, "_subgroups", tuple(s.members for s in subs))
    return subs


def derived_subgroup(G: FiniteGroup) -> np.ndarray:
    """Ascending member array of [G, G], the normal closure of the
    commutators of G's generators: modulo it the generators commute, so
    the quotient is abelian.  Normality is tested by conjugating with the
    generators only, so no order x order table is built."""
    gens = np.asarray(G.generating_set(), dtype=np.int64)
    ginv = G.inv[gens]
    pending = G.mul[G.mul[gens[:, None], gens[None, :]],
                    G.mul[ginv[:, None], ginv[None, :]]].ravel()
    members = np.zeros(1, dtype=np.int64)
    mask = np.zeros(G.order, dtype=bool)
    mask[0] = True
    while True:
        pending = pending[~mask[pending]]
        if not pending.size:
            return members
        mask = _join(G.mul, members, int(pending[0]))
        members = np.flatnonzero(mask)
        pending = np.concatenate(
            [pending, G.mul[G.mul[gens[:, None], members[None, :]], ginv[:, None]].ravel()])


def is_normal(G: FiniteGroup, H: Subgroup) -> bool:
    mask = H.member_mask()
    return sweep(lambda g, h: ~mask[G.mul[G.mul[g, h], G.inv[g]]],
                 (range(G.order), H.members)) is None


def center(G: FiniteGroup) -> Subgroup:
    z = [g for g in range(G.order) if np.array_equal(G.mul[g], G.mul[:, g])]
    return Subgroup(G, tuple(z))


def commutator_condition(G: FiniteGroup, S, H: Subgroup) -> bool:
    """True iff the commutator [g, s] lies in H for every g in G, s in S."""
    mask = H.member_mask()
    return sweep(lambda g, s: ~mask[G.mul[G.mul[g, s], G.mul[G.inv[g], G.inv[s]]]],
                 (range(G.order), S)) is None


@dataclass(frozen=True, eq=False)
class CosetSpace:
    parent: FiniteGroup
    subgroup: Subgroup
    coset_of: np.ndarray
    representatives: tuple[int, ...]

    @property
    def size(self) -> int:
        return len(self.representatives)


def left_cosets(mul: np.ndarray, members):
    """(coset number of every element, minimal representatives) of the left
    cosets g*members, in index order; None unless they partition the carrier."""
    members = np.asarray(members, dtype=np.int64)
    coset_of = np.full(mul.shape[0], -1, dtype=np.int64)
    reps: list[int] = []
    for g in range(mul.shape[0]):
        if coset_of[g] < 0:
            coset_of[mul[g, members]] = len(reps)
            reps.append(g)
    if len(reps) * len(members) != mul.shape[0]:
        return None
    coset_of.setflags(write=False)
    return coset_of, tuple(reps)


def induced_table(op: np.ndarray, coset_of: np.ndarray, reps) -> np.ndarray | None:
    """The table `op` induces on the cosets, or None if it is ill-defined."""
    reps = np.asarray(reps, dtype=np.int64)
    induced = coset_of[op[reps[:, None], reps[None, :]]]
    if not np.array_equal(coset_of[op], induced[coset_of[:, None], coset_of[None, :]]):
        return None
    return induced


def coset_space(G: FiniteGroup, H: Subgroup) -> CosetSpace:
    """Left cosets gH with minimal-index representatives, in index order."""
    cosets = left_cosets(G.mul, H.members)
    if cosets is None:
        raise InternalConsistencyError("cosets do not partition the group")
    return CosetSpace(G, H, *cosets)
