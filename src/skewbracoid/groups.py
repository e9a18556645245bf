"""Finite groups as dense Cayley tables over integer element indices.

Every group lives on the index set ``0..order-1`` with the identity fixed at
index 0.  Multiplication is a dense ``order x order`` table, so every
relation check is a failure predicate over index arrays, decided exactly by
the one ``sweep`` kernel.  A ``CosetSpace`` holds the classes of a labelling
(the left cosets gH, the fibres of a map); every push-down to them is one of
its methods, checked well-defined there: ``quotient`` of an operation,
``action`` of the elements on the classes, or ``rows`` of a table.

Element ordering is construction-defined and stable:

* cyclic n:      ``g^i`` at index i
* dihedral n:    ``r^i`` at index i, ``r^i s`` at index n+i
* symmetric n:   permutations of ``0..n-1`` in lexicographic one-line order
* products:      pair ``(i1, i2)`` at index ``i1 + order1 * i2``
* semidirect:    pair ``(b, a)`` at index ``b + |base| * a``
"""

from __future__ import annotations

import functools
import itertools
import math
from dataclasses import dataclass, field

import numpy as np

from .errors import InternalConsistencyError, PreconditionError, WorkLimitError

DEFAULT_ORDER_CAP = 10_000
SUBGROUP_WORK_LIMIT = 10**6
# 4-16 MiB blocks ran fastest on the order-192 braid sweep (4 MiB: 26 MiB peak)
SWEEP_BLOCK_BYTES = 4 * 2**20


def sweep(bad, axes):
    """Lexicographically first index tuple at which `bad` holds, or None.

    `bad` maps one index array per axis, broadcast against each other, to a
    boolean array of their broadcast shape; `axes` lists each axis's
    ascending index values.  The first axis is walked in blocks whose int64
    arrays start at SWEEP_BLOCK_BYTES / 64 (at least one index) and double
    up to SWEEP_BLOCK_BYTES, so a failing check costs about the block that
    holds its witness, and a passing one at most six calls more than with
    the cap from the start.  The blocks run in ascending order and argmax
    gives the first hit within one, so the result does not depend on the
    schedule.
    """
    axes = [np.asarray(a, dtype=np.int64) for a in axes]
    row = 8 * max(1, math.prod(map(len, axes[1:])))
    cap = max(1, SWEEP_BLOCK_BYTES // row)
    step = max(1, SWEEP_BLOCK_BYTES // 64 // row)
    # the open mesh np.ix_ builds: axis k runs along dimension k
    first, *rest = (a.reshape([-1 if j == k else 1 for j in range(len(axes))])
                    for k, a in enumerate(axes))
    start = 0
    while start < len(first):
        block = (first[start:start + step], *rest)
        hit = bad(*block)
        if hit.any():
            pos = np.unravel_index(np.argmax(hit), hit.shape)
            return tuple(int(a.flat[p]) for a, p in zip(block, pos))
        start, step = start + step, min(2 * step, cap)
    return None


def blocks(count: int, row_bytes: int) -> list[slice]:
    """Consecutive slices of 0..count-1 whose rows, at `row_bytes` each, take
    at most SWEEP_BLOCK_BYTES, with at least one row per slice: the block
    size of every memory-bounded loop except `sweep`, which stops early."""
    step = max(1, SWEEP_BLOCK_BYTES // max(1, row_bytes))
    return [slice(lo, min(lo + step, count)) for lo in range(0, count, step)]


def orbit_roots(perms, count: int, n: int) -> np.ndarray:
    """Least point of each orbit of 0..n-1 under the group generated by
    the `count` permutations that `perms(rows)` gives, one to a row, for
    blocks of row numbers whose int64 arrays take at most SWEEP_BLOCK_BYTES.

    A pass lowers the label of each root lab[x] to the least label of the
    images of x, then jumps pointers (lab = lab[lab]); labels stay points
    of their orbit, at most their own.  A pass that changes nothing leaves
    lab[p(x)] >= lab[x] for all p, x: so lab is constant on the cycles of
    each p, hence on orbits, where it is the least point.  Inverses among
    the permutations cut the passes."""
    rows = [np.arange(s.start, s.stop) for s in blocks(count, 8 * n)]
    made = [perms(rows[0])] if len(rows) == 1 else None  # one block is kept
    lab = np.arange(n)
    while True:
        new = lab.copy()
        for P in made or map(perms, rows):
            np.minimum.at(new, lab, lab[P].min(axis=0))
        if np.array_equal(new, lab):
            return lab
        while not np.array_equal(lab, new):
            lab, new = new, new[new]


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
    if mul.ndim != 2 or mul.shape[0] != mul.shape[1]:
        raise PreconditionError("multiplication table must be square")
    n = mul.shape[0]
    if mul.min() < 0 or mul.max() >= n:
        raise PreconditionError("multiplication table is not closed")
    idx = np.arange(n)
    if not (np.array_equal(mul[0], idx) and np.array_equal(mul[:, 0], idx)):
        raise PreconditionError("index 0 is not a two-sided identity")
    # every row must contain the identity somewhere (existence of inverses);
    # `inverses` gives column 0 to a row without it, and row x has x there
    if not (mul[idx, inverses(mul)] == 0).all():
        raise PreconditionError("some element has no right inverse")
    gens = tuple(itertools.islice(_greedy_generators(mul, range(n)), n.bit_length()))
    if len(gens) == n.bit_length():
        raise PreconditionError("associativity fails")
    if sweep(lambda x, a, y: mul[mul[x, a], y] != mul[x, mul[a, y]],
             (idx, gens, idx)) is not None:
        raise PreconditionError("associativity fails")
    return gens


def _greedy_generators(mul: np.ndarray, candidates):
    """Yield each of `candidates` that the right closure of those before it
    misses: at most log2(order) of them in a group, as each doubles what is
    reached."""
    gens, reached = [], {0}
    for g in candidates:
        if g not in reached:
            gens.append(g)
            yield g
            reached = _right_closure(mul, gens, reached)


def relation_failure(act: np.ndarray, group: FiniteGroup, off: np.ndarray) -> tuple | None:
    """First (g, eta, mu) failing  g+(eta mu) = (g+eta) off[g] (g+mu)  for
    the action `act` on `group`: the brace relation when off is the
    additive inverse, the bracoid relation when off[g] = (g+e)^-1.  It
    holds iff each eta -> off[g] (g+eta) is an endomorphism, so mu runs over
    the group's generating set to find the first failing g, whose full
    slice gives the witness."""
    T = group.mul

    def bad(g, eta, mu):
        return act[g, T[eta, mu]] != T[T[act[g, eta], off[g]], act[g, mu]]

    g_all, t_all = np.arange(act.shape[0]), np.arange(group.order)
    hit = sweep(bad, (g_all, t_all, group.generating_set()))
    return None if hit is None else sweep(bad, ((hit[0],), t_all, t_all))


def action_failure(act: np.ndarray, group: FiniteGroup) -> tuple | None:
    """First (g, h, eta) failing  (g h)+eta = g+(h+eta)  for the action
    `act` of `group`.  Checked with h over the group's generating set
    first; that reduction holds for all g together, not per g, so a
    failure is located by the full sweep."""
    G = group.mul

    def bad(g, h, eta):
        return act[G[g, h], eta] != act[g, act[h, eta]]

    g_all, t_all = np.arange(act.shape[0]), np.arange(act.shape[1])
    if sweep(bad, (g_all, group.generating_set(), t_all)) is None:
        return None
    return sweep(bad, (g_all, g_all, t_all))


@functools.lru_cache(maxsize=32)
def _default_names(n: int) -> tuple[str, ...]:
    """a0 .. a(n-1), made once per order: every circle table takes them."""
    return tuple(f"a{i}" for i in range(n))


def inverses(mul: np.ndarray) -> np.ndarray:
    """Right inverse of every element of a table with identity 0 (0 for a
    row without one), in blocks of rows whose masks take at most
    SWEEP_BLOCK_BYTES."""
    n = len(mul)
    inv = np.empty(n, dtype=np.int64)
    for s in blocks(n, n):  # the method: np.argmax's dispatch costs more
        (mul[s] == 0).argmax(axis=1, out=inv[s])
    return inv


@dataclass(frozen=True, eq=False)
class FiniteGroup:
    """An immutable finite group: Cayley table, display names (a0, a1, ...
    by default), inverses.  `mul` is trusted: built or proved a group where
    it was made (a circle table, a coset quotient), or checked by `from_table`."""

    mul: np.ndarray
    inv: np.ndarray = field(init=False)
    names: tuple[str, ...] | None = None
    generators: tuple[int, ...] | None = None
    factors: tuple["FiniteGroup", ...] | None = None  # direct-product metadata

    def __post_init__(self):
        if self.names is None:
            object.__setattr__(self, "names", _default_names(len(self.mul)))
        elif not (isinstance(self.names, (list, tuple)) and len(self.names) == len(self.mul)
                  and all(isinstance(x, str) for x in self.names)):
            raise PreconditionError("names must be a list of strings, one per element")
        elif len(set(self.names)) != len(self.names):
            raise PreconditionError("element names must be pairwise distinct")
        object.__setattr__(self, "names", tuple(self.names))
        object.__setattr__(self, "mul", read_only(self.mul, self.mul))
        object.__setattr__(self, "inv", frozen(inverses(self.mul)))

    @property
    def order(self) -> int:
        return self.mul.shape[0]

    identity = 0

    def generating_set(self) -> tuple[int, ...]:
        """`generators`, or else the greedy generating set: the one that
        `from_table`'s check found, or computed once with no check for a
        table known to be a group (a circle or opposite table)."""
        if self.generators is not None:
            return self.generators
        cached = getattr(self, "_generating_set", None)
        if cached is None:
            cached = tuple(_greedy_generators(self.mul, range(self.order)))
            object.__setattr__(self, "_generating_set", cached)
        return cached

    def index_of(self, name) -> int:
        """The index of the element that `name` names, or `name` if it is an
        index (a table that `serialize.load_json` read is neither)."""
        if isinstance(name, np.ndarray):
            name = name.tolist()
        if isinstance(name, (int, np.integer)) and not isinstance(name, bool) \
                and 0 <= name < self.order:
            return int(name)
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


def int_array(values, what: str) -> np.ndarray:
    """`values` (nested lists, or an integer array as `serialize.load_json`
    reads a table) as an int64 array; PreconditionError if they are ragged or
    hold anything but integers (a float such as 0.7 or 1.0, a string, a bool)."""
    try:
        arr = np.asarray(values)
    except ValueError:
        raise PreconditionError(f"{what} is ragged") from None
    if (arr.size and arr.dtype.kind not in "iu") or (
            isinstance(values, (list, tuple)) and _holds_bool(values, arr)):
        raise PreconditionError(f"{what} has an entry that is not an integer")
    return arr.astype(np.int64, copy=False)


def frozen(arr: np.ndarray) -> np.ndarray:
    """`arr`, which the library made and no caller holds, as a read-only view
    over a read-only base: NumPy refuses to make such a view writable again,
    so a table cannot be edited after it was checked.  Every library
    producer hands its tables over in this form, and `read_only` keeps it."""
    if arr.base is None:
        arr.setflags(write=False)
        return arr.view()
    arr.base.setflags(write=False)
    arr.setflags(write=False)
    return arr


def read_only(arr: np.ndarray, given) -> np.ndarray:
    """`arr`, read from the caller's `given`, `frozen` without freezing the
    caller's memory: an array that is a read-only view over a read-only base
    already is kept, and any other that may share the caller's memory
    (`given` itself, or a view) is copied first."""
    if not arr.flags.writeable and isinstance(arr.base, np.ndarray) \
            and not arr.base.flags.writeable:
        return arr
    return frozen(arr.copy() if arr is given or arr.base is not None else arr)


def _holds_bool(values, arr: np.ndarray) -> bool:
    """Whether the nested sequence `values`, read as the integer array `arr`,
    has a boolean among its cells: NumPy casts True and False mixed with
    integers to 1 and 0, so only those cells are looked up (an array is not)."""
    for cell in zip(*(ix.tolist() for ix in np.nonzero(arr <= 1))):
        v = values
        for i in cell:
            v = v[i]
        if isinstance(v, (bool, np.bool_)):
            return True
    return False


def from_table(mul, names=None, generators=None) -> FiniteGroup:
    """Build a group from a Cayley table that may not be one (a `table` spec,
    a re-imported export, a phi^n image), verifying the axioms exactly."""
    table = int_array(mul, "multiplication table")
    found = verify_group_table(table)
    if generators is not None:
        gens = int_array(generators, "generators")
        if gens.ndim != 1 or ((gens < 0) | (gens >= len(table))).any():
            raise PreconditionError("generator index out of range")
        generators = tuple(gens.tolist())
        require_generating(table, generators)
    G = FiniteGroup(read_only(table, mul), names, generators)
    object.__setattr__(G, "_generating_set", found)
    return G


def _check_order(order: int, order_cap: int) -> None:
    """Refuse a group of `order` above `order_cap` before its order x order
    table is allocated."""
    if order > order_cap:
        raise PreconditionError(f"requested order {order} exceeds cap {order_cap}")


def cyclic(n: int, *, order_cap: int = DEFAULT_ORDER_CAP) -> FiniteGroup:
    """Cyclic group of order n, g^i at index i: the table is one copy of
    the rotations view, so the build peaks at the table and 2n entries."""
    if _index(n, "cyclic order") < 1:
        raise PreconditionError("cyclic order must be positive")
    _check_order(n, order_cap)
    mul = _rotations(n, 1).copy()
    names = ["e"] + [f"g^{i}" if i > 1 else "g" for i in range(1, n)]
    return FiniteGroup(frozen(mul), names, (1,) if n > 1 else (0,))


def _dihedral_name(i: int, refl: bool, n: int) -> str:
    if not refl:
        return "e" if i == 0 else ("r" if i == 1 else f"r^{i}")
    return "s" if i == 0 else ("rs" if i == 1 else f"r^{i}s")


def dihedral(n: int, *, order_cap: int = DEFAULT_ORDER_CAP) -> FiniteGroup:
    """Dihedral group of order 2n with presentation r^n = s^2 = (rs)^2 = e.
    r^i s^p * r^j s^q = r^(i + (-1)^p j) s^(p+q): each quadrant is written
    once, in place, from a view of rotations, i + j or i - j mod n, plus n
    where p + q = 1, so the build peaks at the table and 4n entries."""
    if _index(n, "dihedral parameter") < 1:
        raise PreconditionError("dihedral parameter must be positive")
    _check_order(2 * n, order_cap)
    mul = np.empty((2 * n, 2 * n), dtype=np.int64)
    plus, minus = _rotations(n, 1), _rotations(n, -1)
    mul[:n, :n] = plus
    np.add(plus, n, out=mul[:n, n:])
    np.add(minus, n, out=mul[n:, :n])
    mul[n:, n:] = minus
    names = tuple(_dihedral_name(x % n, x >= n, n) for x in range(2 * n))
    return FiniteGroup(frozen(mul), names, (1, n))


def _rotations(n: int, sign: int) -> np.ndarray:
    """The n x n view whose cell (i, j) is i + sign * j mod n, for sign 1
    or -1: row i is a window of 0..n-1 written twice (reversed for -1),
    starting i along it, so the view holds 2n entries.  The ndarray
    constructor makes the strided view in well under a microsecond, where
    `sliding_window_view` takes about ten."""
    seq = np.arange(2 * n, dtype=np.int64) % n
    if sign > 0:
        return np.ndarray((n, n), np.int64, seq, 0, (8, 8))
    # reversed, cell (i, j) is seq[n - 1 - i + j]
    return np.ndarray((n, n), np.int64, seq[::-1].copy(), 8 * (n - 1), (-8, 8))


def symmetric(n: int, *, order_cap: int = DEFAULT_ORDER_CAP) -> FiniteGroup:
    """Symmetric group on 0..n-1; composition (s*t)(x) = s(t(x)).

    A one-line permutation is fixed by its first n-1 entries, and those read
    as a base-n number are its key, so lexicographic order is key order.
    `rank`, a dense array over all n^(n-1) keys (allocated once the order
    is under the cap), maps the key of each permutation to its index, and
    the index of s*t is rank at the key of s[t], the sum over k < n-1 of
    s(t(k)) n^(n-2-k): one gather of the scaled rows of s per k.  Rows are
    composed in blocks of SWEEP_BLOCK_BYTES / (8 x order x n) rows, whose
    int64 key arrays take less than SWEEP_BLOCK_BYTES."""
    if not 1 <= _index(n, "symmetric degree") <= 8:
        raise PreconditionError("symmetric group builder supports 1 <= n <= 8")
    order = math.factorial(n)
    _check_order(order, order_cap)
    perms = symmetric_perms(n)
    P = np.array(perms, dtype=np.int64)
    weights = n ** np.arange(n - 2, -1, -1, dtype=np.int64)
    rank = np.empty(n ** (n - 1), dtype=np.int64)
    rank[P[:, :-1] @ weights] = np.arange(order)
    mul = np.empty((order, order), dtype=np.int64)
    for s in blocks(order, 8 * order * n):
        S = P[s]
        key = np.zeros((len(S), order), dtype=np.int64)
        for k, w in enumerate(weights.tolist()):
            key += (S * w)[:, P[:, k]]
        mul[s] = rank[key]
    names = tuple("".join(map(str, p)) for p in perms)
    if n == 1:
        gens: tuple[int, ...] = (0,)
    else:
        transposition = [1, 0] + list(range(2, n))
        ncycle = list(range(1, n)) + [0]
        gens = tuple(rank[np.array([transposition, ncycle])[:, :-1] @ weights].tolist())
    return FiniteGroup(frozen(mul), names, gens)


def symmetric_perms(n: int) -> list[tuple[int, ...]]:
    """One-line permutations in the same order the symmetric builder uses."""
    return list(itertools.permutations(range(n)))


def direct_product(*groups: FiniteGroup,
                   order_cap: int = DEFAULT_ORDER_CAP) -> FiniteGroup:
    """Direct product; index encodes (i1, .., ik) with the first factor fastest.

    The table is filled in place, one broadcast sum per factor of order > 1
    into its view as an array of 2k digit axes, so the build peaks at the
    table and the factors' scaled tables."""
    if len(groups) < 2:
        raise PreconditionError("direct product needs at least two factors")
    orders = [g.order for g in groups]
    total = math.prod(orders)
    _check_order(total, order_cap)
    weights = np.cumprod([1] + orders[:-1])
    mul = np.zeros((total, total), dtype=np.int64)
    # in mixed radix, last factor first, cell (x, y) is the sum over factors
    # k of weights[k] times the product of digits k in factor k; C1 adds 0
    parts = [(w, g) for w, g in zip(weights.tolist(), groups) if g.order > 1]
    cells = mul.reshape([g.order for _, g in parts[::-1]] * 2)
    for k, (w, g) in enumerate(parts):
        shape = [1] * cells.ndim
        shape[len(parts) - 1 - k] = shape[-1 - k] = g.order
        cells += (w * g.mul).reshape(shape)
    names = tuple("(" + ",".join(t[::-1]) + ")"
                  for t in itertools.product(*(g.names for g in groups[::-1])))
    # a trivial factor's generator is e; C1 x .. x C1 keeps (0,), as C1 does
    gens = tuple(int(weights[k] * gen) for k, g in enumerate(groups)
                 for gen in g.generating_set() if gen != 0)
    return FiniteGroup(frozen(mul), names, gens or (0,), tuple(groups))


def factor_embedding(G: FiniteGroup, k: int) -> list[int]:
    """Indices of the embedded k-th factor of a direct product."""
    if G.factors is None or not 0 <= _index(k, "factor position") < len(G.factors):
        raise PreconditionError(f"group has no direct-product factor at position {k}")
    weight = math.prod(f.order for f in G.factors[:k])
    return [weight * i for i in range(G.factors[k].order)]


def semidirect(base: FiniteGroup, acting: FiniteGroup, action, *,
               order_cap: int = DEFAULT_ORDER_CAP) -> FiniteGroup:
    """Semidirect product base x| acting.

    `action` lists, for each acting element, the image array of an
    automorphism of `base`; the list must itself be a homomorphism from
    the acting group into Aut(base).  Both conditions are verified.  The
    table is written in place, in blocks of rows whose gathers take at
    most SWEEP_BLOCK_BYTES, however small the acting group.
    """
    nb = base.order
    _check_order(nb * acting.order, order_cap)
    action = int_array(action, "action")
    if action.shape[:1] != (acting.order,):
        raise PreconditionError("need one automorphism per acting element")
    if action.shape != (acting.order, nb) or \
            not (np.sort(action, axis=1) == np.arange(nb)).all():
        raise PreconditionError("action entry is not a permutation of the base")
    if relation_failure(action, base, np.zeros(acting.order, dtype=np.int64)):
        raise PreconditionError("action entry is not an automorphism of the base")
    if not np.array_equal(action[0], np.arange(nb)):
        raise PreconditionError("acting identity must act trivially")
    if action_failure(action, acting):
        raise PreconditionError("action is not a homomorphism from the acting group")
    na = acting.order
    mul = np.empty((nb * na, nb * na), dtype=np.int64)
    # (b1, a1)(b2, a2) = (b1 a1(b2), a1 a2): row (b1, a1) holds, at (b2, a2),
    # b1 a1(b2) + nb (a1 a2); a row's gathers take 3 nb + na int64s
    cells = mul.reshape(-1, na, nb)
    scaled = nb * acting.mul
    for s in blocks(nb * na, 8 * (3 * nb + na)):
        a1, b1 = np.divmod(np.arange(s.start, s.stop), nb)
        np.add(base.mul[b1[:, None], action[a1]][:, None, :], scaled[a1][:, :, None],
               out=cells[s])
    names = [f"({b},{a})" for a, b in itertools.product(acting.names, base.names)]
    gens = list(base.generating_set()) + [nb * a for a in acting.generating_set()]
    return FiniteGroup(frozen(mul), names, tuple(gens))


def _spec_field(spec, key: str):
    """spec[key]; PreconditionError unless `spec` holds it (an integer "n").
    A table that `serialize.load_json` read as an int64 array is kept as one
    for "mul" and "action", and read back as its lists anywhere else."""
    if not isinstance(spec, dict) or key not in spec:
        raise PreconditionError(f"group spec needs {key!r}")
    value = spec[key]
    if isinstance(value, np.ndarray) and key not in ("mul", "action"):
        value = value.tolist()
    if key == "n" and type(value) is not int:  # not a bool, float or str
        raise PreconditionError(f"group spec 'n' must be an integer, not {value!r}")
    if key in ("factors", "mul") and not isinstance(value, (list, np.ndarray)):
        raise PreconditionError(f"group spec {key!r} must be a list, not {value!r}")
    return value


def _read_spec(spec) -> tuple:
    """The order of GroupSpec `spec` and a function of `order_cap` that builds
    it, from one read of the whole spec that allocates no table.  A part of
    order < 1 (it fails to build) counts as 1: no part outgrows the whole."""
    kind = _spec_field(spec, "kind")
    if kind in ("cyclic", "dihedral", "symmetric"):
        n = _spec_field(spec, "n")
        if kind == "symmetric" and not 1 <= n <= 8:  # before n! of a large n is computed
            raise PreconditionError("symmetric group builder supports 1 <= n <= 8")
        order = n if kind == "cyclic" else 2 * n if kind == "dihedral" else math.factorial(n)
        build = {"cyclic": cyclic, "dihedral": dihedral, "symmetric": symmetric}[kind]
        return order, lambda cap: build(n, order_cap=cap)
    if kind == "product":
        parts = [_read_spec(f) for f in _spec_field(spec, "factors")]
        return math.prod(max(1, order) for order, _ in parts), lambda cap: direct_product(
            *(build(cap) for _, build in parts), order_cap=cap)
    if kind == "semidirect":
        (nb, base), (na, acting) = (_read_spec(_spec_field(spec, k)) for k in ("base", "acting"))
        action = _spec_field(spec, "action")
        return max(1, nb) * max(1, na), lambda cap: semidirect(
            base(cap), acting(cap), action, order_cap=cap)
    if kind == "table":
        mul = _spec_field(spec, "mul")
        return len(mul), lambda cap: from_table(mul, spec.get("names"), spec.get("generators"))
    raise PreconditionError(f"unknown group spec kind {kind!r}")


def build_group(spec: dict, *, order_cap: int = DEFAULT_ORDER_CAP) -> FiniteGroup:
    """Build a group from a GroupSpec dict (see the JSON interface docs).
    The whole spec is read, and its order checked against `order_cap`, once
    before any part is built; each builder checks its own order too."""
    order, build = _read_spec(spec)
    _check_order(order, order_cap)
    return build(order_cap)


# ---------------------------------------------------------------------------
# subgroups and cosets


@dataclass(frozen=True, eq=False)
class Subgroup:
    parent: FiniteGroup
    members: tuple[int, ...]

    def __post_init__(self):
        try:
            members = iter(self.members)
        except TypeError:
            raise PreconditionError(f"subgroup members {self.members!r} are not a collection") \
                from None
        mem = tuple(sorted(set(_index(m, "subgroup member") for m in members)))
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

    def __repr__(self):
        names = ",".join(self.parent.names[m] for m in self.members[:6])
        more = ",..." if self.order > 6 else ""
        return f"Subgroup({{{names}{more}}}, order={self.order})"


def closure(G: FiniteGroup, gens) -> tuple[int, ...]:
    """Member tuple of the smallest subgroup containing `gens`."""
    gens = [_index(g, "generator") for g in gens]
    for g in gens:
        if g < 0 or g >= G.order:
            raise PreconditionError("generator index out of range")
    # positive words in the generators; in a finite group this already
    # contains all inverses
    return tuple(sorted(_right_closure(G.mul, gens)))


def _index(x, what: str) -> int:
    """`x` as an element index; PreconditionError if it is not an integer
    (int() would truncate a float such as 2.9, and take True as 1)."""
    if isinstance(x, bool) or not isinstance(x, (int, np.integer)):
        raise PreconditionError(f"{what} {x!r} is not an integer")
    return int(x)


def subgroup_generated(G: FiniteGroup, gens) -> Subgroup:
    return Subgroup(G, closure(G, gens))


def as_subgroup(G: FiniteGroup, H) -> Subgroup:
    """H, a Subgroup of G or a collection of element indices, as a checked
    Subgroup of G."""
    if isinstance(H, Subgroup) and H.parent is G:
        return H
    return Subgroup(G, H.members if isinstance(H, Subgroup) else H)


def _known_subgroup(G: FiniteGroup, members: tuple[int, ...]) -> Subgroup:
    """The Subgroup of `members`, sorted and checked once already, built
    without checking them again."""
    H = object.__new__(Subgroup)
    object.__setattr__(H, "parent", G)
    object.__setattr__(H, "members", members)
    return H


def element_orders(mul: np.ndarray) -> np.ndarray:
    """Order of every element of the group table `mul`, the product of its
    q-parts for the primes q dividing the group's order n = q^a r: the q-part
    of the order of g is the order of g^r, the least q^j with g^(r q^j) = e."""
    n = mul.shape[0]
    orders, rest, q = np.ones(n, dtype=np.int64), n, 2
    while rest > 1:
        if q * q > rest:
            q = rest  # the last prime factor
        a = 0
        while rest % q == 0:
            rest, a = rest // q, a + 1
        if a:
            power = _power(mul, np.arange(n), n // q**a)
            for _ in range(a):
                orders[power != 0] *= q
                power = _power(mul, power, q)
        q += 1
    return orders


def _power(mul: np.ndarray, x: np.ndarray, k: int) -> np.ndarray:
    """x^k for k >= 1, elementwise, by repeated squaring."""
    if k == 1:
        return x
    half = _power(mul, mul[x, x], k // 2)
    return mul[half, x] if k % 2 else half


def _prime_of_power(n: int) -> int | None:
    """The prime p if n > 1 is a power of p, else None."""
    p = next(d for d in range(2, n + 1) if n % d == 0)
    while n % p == 0:
        n //= p
    return p if n == 1 else None


def _join(mul: np.ndarray, members: np.ndarray, x: int, mask: np.ndarray) -> None:
    """Set the all-False `mask` to the mask of <H, x>, for the subgroup H
    with member array `members`.

    Grown from H as a union of left cosets of H: each new element w adds
    its coset wH, until right multiplication by x reaches nothing new.
    """
    mask[members] = True
    frontier = members
    while True:
        step = mul[frontier, x]
        step = step[~mask[step]]
        if not step.size:
            return
        fresh = np.zeros_like(mask)
        fresh[mul[step[:, None], members[None, :]]] = True
        fresh &= ~mask
        mask |= fresh
        frontier = fresh.nonzero()[0]


def enumerate_subgroups(G: FiniteGroup) -> list[Subgroup]:
    """All subgroups of G, each once, sorted by (order, member tuple).

    Cyclic extension (Neubueser) over the zuppos, the cyclic subgroups <z>
    of prime-power order p^k: a subgroup H found is extended by each zuppo
    that it lacks and whose z^p it holds.  If z normalizes H, <H, z> = H<z>
    is the union of the cosets H z^i, i < p.  If G is solvable, no other z
    is needed: a subgroup V != 1 is solvable, so it has a normal subgroup U
    of prime index p; for v in V \\ U, the p-part z of v (a power of v)
    lies outside U, normalizes U, has z^p in U and gives U<z> = V.  So V is
    reached from U, by induction on |V|.  A perfect subgroup has no such U,
    so if G is not solvable the other z are joined by `_join`.

    The subgroups are extended in layers by ascending order m, all those of
    order m at once.  Every extension <H, z> is larger than H: p|H| if z
    normalizes H, and a multiple of |H| above it for a join, as z is not in
    H.  So a subgroup of order m that the extensions reach is reached from
    a smaller one, whose layer ran before: by induction on m, it is found
    before its own layer runs, and the layers reach what the extensions
    reach.  A layer waits as the `np.packbits` keys of its subgroups, and
    runs in row blocks, whose (subgroup, zuppo) pairs run in row-major
    order in pair blocks; each block is at most SWEEP_BLOCK_BYTES.  Per
    pair block, one gather tests which z normalize which H, by conjugating
    the members of each H, and one scatter builds the cosets H z^i, i below
    the block's largest p (for z of prime p, those with i >= p repeat the
    others, as z^p is in H); the extensions new by their keys join the
    layer of their order in pair order.  A pair costs n bytes of extension
    mask and 8q bytes per member of H for the cosets, q the largest prime;
    as q >= 2, that covers the two int64 gathers of the conjugates too.

    Work counts the members of every closure computed and of every
    extension, pair by pair; past SUBGROUP_WORK_LIMIT WorkLimitError is
    raised.  Total work does not depend on the order of the pairs, so
    whether a group is refused does not either.  The lattice is computed
    once per group; later calls do no work, whatever the limit, and each
    returns a new list of new Subgroup objects.
    """
    cached = getattr(G, "_subgroups", None)
    if cached is not None:
        return [_known_subgroup(G, members) for members in cached]
    n, work, found = G.order, 0, set()

    def over_limit() -> WorkLimitError:
        return WorkLimitError(
            f"subgroup enumeration work limit exceeded: work {work} > limit "
            f"{SUBGROUP_WORK_LIMIT}, {len(found)} subgroups found so far")

    orders = element_orders(G.mul)
    prime_of = {o: _prime_of_power(o) for o in set(orders.tolist()) if o > 1}
    # a generator z of each zuppo, a generator of its subgroup <z^p> (any
    # element of <z> of order |z|/p), and p
    zuppos, roots, primes, covered = [], [], [], set()
    for x, o in enumerate(orders.tolist()):
        if x in covered or prime_of.get(o) is None:  # e, of order 1, too
            continue
        cyc = np.asarray(closure(G, [x]))
        work += len(cyc)
        if work > SUBGROUP_WORK_LIMIT:
            raise over_limit()
        covered.update(cyc[orders[cyc] == o].tolist())
        zuppos.append(x)
        roots.append(cyc[(orders[cyc] == o // prime_of[o]).argmax()])
        primes.append(prime_of[o])
    zuppos, roots, primes = (np.array(a, dtype=np.int64) for a in (zuppos, roots, primes))
    # z^0, .., z^(q-1) for each zuppo z, q the largest of the primes: for z
    # of prime p, the cosets H z^i with i >= p are among those with i < p,
    # as z^p is in H, so one gather serves the zuppos of every prime
    powers = np.zeros((len(zuppos), primes.max(initial=1)), dtype=np.int64)
    for i in range(1, powers.shape[1]):
        powers[:, i] = G.mul[powers[:, i - 1], zuppos]
    solvable = len(list(derived_series(G))[-1]) == 1

    widest = 8 * powers.shape[1]  # bytes of the gather, per member
    zinv = G.inv[zuppos]
    # each order's subgroups not extended yet, as their keys: the masks
    # packed by `np.packbits`, the objects that `found` holds
    nbytes = (n + 7) // 8
    as_key = np.dtype((np.void, nbytes))  # a row of packed bits as one value
    trivial = np.packbits(np.arange(n) == 0).tobytes()
    layers = {1: [trivial]}
    found.add(trivial)
    subs = []
    while layers:
        m = min(layers)
        keys, level = layers.pop(m), []
        # the layer's masks in row blocks, and each block's pairs in pair
        # blocks, so neither the masks nor the pair index pass the block size
        for top in blocks(len(keys), n + 16 * (m + len(zuppos))):
            bits = np.frombuffer(b"".join(keys[top]), dtype=np.uint8)
            masks = np.unpackbits(bits.reshape(-1, nbytes), axis=1, count=n).view(bool)
            members = masks.nonzero()[1].reshape(len(masks), m)
            level += map(tuple, members.tolist())
            row, cand = (masks.take(roots, 1) > masks.take(zuppos, 1)).nonzero()
            for pair in blocks(len(cand), n + widest * m):
                r, c = row[pair], cand[pair]
                # z normalizes H iff it conjugates the members of H into H
                conj = G.mul[G.mul[zuppos[c, None], members.take(r, 0)], zinv[c, None]]
                nz = masks[r[:, None], conj].all(1)
                if solvable:
                    r, c, nz = r[nz], c[nz], nz[nz]
                cut = 1 + (SUBGROUP_WORK_LIMIT - work) // (2 * m)  # |<H, z>| >= 2|H|
                r, c, nz = r[:cut], c[:cut], nz[:cut]  # the rest pass the limit
                pc = primes[c]
                # |H<z>| = p|H| (H and <z> meet in <z^p>), all of <H, z> if z normalizes H
                size, ext = m * pc, np.zeros((len(c), n), dtype=bool)
                at = nz.nonzero()[0]
                steps = powers[c[at], None, :pc.max(initial=1)]  # z^i for i below the largest p
                ext[at[:, None, None], G.mul[members.take(r[at], 0)[:, :, None], steps]] = True
                for i in (~nz).nonzero()[0]:
                    _join(G.mul, members[r[i]], zuppos[c[i]], ext[i])
                    size[i] = np.count_nonzero(ext[i])
                exts = np.packbits(ext, axis=1).view(as_key)[:, 0].tolist()  # one per row
                for size_i, key in zip(size.tolist(), exts):
                    work += size_i
                    if work > SUBGROUP_WORK_LIMIT:
                        raise over_limit()
                    if key not in found:
                        found.add(key)
                        layers.setdefault(size_i, []).append(key)
        subs += sorted(level)
    # member tuples only: cached Subgroups would refer back to G, and G in
    # a reference cycle outlives its last use until the cycle collector runs
    object.__setattr__(G, "_subgroups", tuple(subs))
    return [_known_subgroup(G, members) for members in subs]


def _classes(G: FiniteGroup) -> tuple[np.ndarray, np.ndarray]:
    """For each element the least member of its conjugacy class and the
    size of the class, computed once per group.  Conjugation is an action,
    so the classes are the orbits of conjugation by the generators (and
    their inverses, for fewer passes)."""
    if getattr(G, "_class_data", None) is None:
        gens = np.asarray(G.generating_set(), dtype=np.int64)
        gens = np.concatenate([gens, G.inv[gens]])
        root = orbit_roots(lambda r: G.mul[G.mul[gens[r]], G.inv[gens[r]][:, None]],
                           len(gens), G.order)
        size = np.bincount(root, minlength=G.order)[root]
        object.__setattr__(G, "_class_data", (root, size))
    return G._class_data


def derived_series(G: FiniteGroup):
    """Yield the ascending member arrays of G', G'', ..., ending at the first
    term that is 1 or equals the one before: G is solvable iff the last is 1.

    The derived subgroup of a term K is the closure of the commutators
    [x, g], x over K and g over a set S that generates K.  That set is
    normal, as y[x, g]y^-1 = [yx, g][y, g]^-1, and modulo it S is central,
    so the quotient is abelian.  S is G's generating set for G; the closure
    takes, in ascending order, each commutator it has not reached yet, and
    those commutators are S for the next term."""
    term, gens = np.arange(G.order), list(G.generating_set())
    while True:
        hit = np.zeros(G.order, dtype=bool)
        hit[G.mul[G.mul[term[:, None], gens], G.mul[G.inv[term][:, None], G.inv[gens]]]] = True
        gens = list(_greedy_generators(G.mul, np.flatnonzero(hit).tolist()))
        last, term = term, np.array(sorted(_right_closure(G.mul, gens)), dtype=np.int64)
        yield term
        if len(term) in (1, len(last)):
            return


def derived_subgroup(G: FiniteGroup) -> np.ndarray:
    """Ascending member array of [G, G], the first term of the derived series."""
    return next(derived_series(G))


def is_normal(G: FiniteGroup, H):
    """H is normal iff it is a union of conjugacy classes, that is iff each
    element is in H just when the root of its class is.  H is a Subgroup, or
    a (k x n) stack of member masks: a column of k verdicts."""
    masks = H.member_mask()[None] if isinstance(H, Subgroup) else H
    normal = (masks == masks[:, _classes(G)[0]]).all(axis=1)
    return bool(normal[0]) if isinstance(H, Subgroup) else normal


def center(G: FiniteGroup) -> Subgroup:
    """The union of the conjugacy classes of size 1."""
    return _known_subgroup(G, tuple(np.flatnonzero(_classes(G)[1] == 1).tolist()))


def _commutes(G: FiniteGroup, masks: np.ndarray) -> np.ndarray:
    """K[r, x]: whether row r of `masks` holds [g, x] for every g.  As g runs
    over G, g x g^-1 runs over cl(x), so these are the c x^-1, c in cl(x),
    read from the elements sorted by class root for blocks of x whose
    gathers take at most SWEEP_BLOCK_BYTES."""
    root, size = _classes(G)
    by_class, slot = np.argsort(root, kind="stable"), np.arange(size.max())
    first = np.searchsorted(root[by_class], root)
    # each cl(x) is repeated to the size of the largest class, for x in s
    return np.hstack([masks[:, G.mul[by_class[first[s, None] + slot % size[s, None]],
                                     G.inv[s, None]]].all(axis=2)
                      for s in blocks(G.order, len(slot) * max(8, len(masks)))])


def commutator_condition(G: FiniteGroup, S, H, commutes=None):
    """True iff the commutator [g, s] lies in H for every g in G, s in S.

    H is a Subgroup and S a collection of elements, or H is a (k x n) stack
    of member masks and S a (k x m) element array, row r of S against row r
    of H, which gives a column of k verdicts.  The test reads K of
    `_commutes` at S; `commutes` is K if the caller holds it."""
    masks = H.member_mask()[None] if isinstance(H, Subgroup) else H
    K = _commutes(G, masks) if commutes is None else commutes
    S = np.asarray(S, dtype=np.int64).reshape(len(masks), -1)
    ok = K[np.arange(len(S))[:, None], S].all(axis=1)
    return bool(ok[0]) if isinstance(H, Subgroup) else ok


def subgroup_lattice(G: FiniteGroup, members=None) -> dict:
    """Subgroups of G as rows, from their member tuples `members` in (order,
    members) order: the member masks ("masks"), `is_normal` ("normal") and K
    of `_commutes` ("commutes"); by default every subgroup of G, computed
    once per group."""
    if members is None:
        if getattr(G, "_lattice", None) is None:
            members = getattr(G, "_subgroups", None) or \
                [s.members for s in enumerate_subgroups(G)]
            object.__setattr__(G, "_lattice", subgroup_lattice(G, members))
        return G._lattice
    masks = np.zeros((len(members), G.order), dtype=bool)
    masks[np.repeat(np.arange(len(members)), list(map(len, members))),
          np.concatenate(members)] = True
    return {"masks": masks, "normal": is_normal(G, masks), "commutes": _commutes(G, masks)}


@dataclass(frozen=True, eq=False)
class CosetSpace:
    """The classes of a labelling of a group's elements: each element's class
    number (`coset_of`) and the least member of each class (`representatives`)."""

    coset_of: np.ndarray
    representatives: np.ndarray

    def rows(self, table: np.ndarray) -> np.ndarray | None:
        """The representatives' rows of `table`, or None unless every
        element's row equals its representative's."""
        rows = table[self.representatives]
        if not np.array_equal(table, rows[self.coset_of]):
            return None
        return frozen(rows)  # a Bracoid keeps it uncopied

    def action(self, op: np.ndarray) -> np.ndarray | None:
        """[g, class of x] -> class of op(g, x), or None unless the class of
        op(g, x) depends on x only through its class."""
        cos = self.coset_of
        act = cos[op[:, self.representatives]]
        if not np.array_equal(cos[op], act[:, cos]):
            return None
        return frozen(act)  # a Bracoid keeps it uncopied

    def quotient(self, op: np.ndarray) -> FiniteGroup | None:
        """The group that the group table `op` induces on the classes, or
        None if `op` is not well-defined on them.  Where `action` and `rows`
        are defined, the classes are a congruence, so the induced table is
        the image of a group under x -> class of x: a group, with identity
        the class of 0, which must be class 0 (as in `coset_space`), and no
        group-table check is needed."""
        act = self.action(op)
        induced = None if act is None else self.rows(act)
        return None if induced is None else FiniteGroup(induced)


def fibres(labels) -> CosetSpace:
    """The classes of elements with equal `labels`, numbered in label order."""
    _, reps, coset_of = np.unique(labels, return_index=True, return_inverse=True)
    coset_of.setflags(write=False)
    reps.setflags(write=False)
    return CosetSpace(coset_of, reps)


def coset_space(G: FiniteGroup, H: Subgroup) -> CosetSpace:
    """Left cosets gH, each labelled by its least member, so numbered in
    index order of their least members, which represent them."""
    cs = fibres(G.mul[:, H.members].min(axis=1))
    if len(cs.representatives) * H.order != G.order:
        raise InternalConsistencyError("cosets do not partition the group")
    return cs
