"""Finite groups over 0-based element indices.

Elements are integers ``0..order-1`` indexing rows and columns of a
multiplication table ``table[a, b] = a*b``.  Weight-vector convolutions read
only the translation rows ``table[a]`` of the elements in a step's support,
which every group serves through ``FiniteGroup.rows``, so they reduce to
integer gathers.

A group is backed either by its dense table (cyclic groups and tables loaded
from JSON) or, for ``symmetric_group``, by its sorted permutation arrays
alone.  A permutation-backed group ranks a translation row on first request
and caches it, and builds the dense table only when ``table`` is read by a
consumer that is dense by nature.  Groups are immutable after construction
apart from those caches, which fill under a lock, so they are safe to share
between threads.

The trusted constructors ``symmetric_group`` and ``cyclic_group`` are
memoized: while any caller holds the group, every call with the same argument
returns that same instance, so a run builds each group once and
``same_group`` settles on identity instead of comparing contents.
"""

from __future__ import annotations

import collections
import functools
import itertools
import json
import threading
import weakref
from typing import Callable, Iterable, Optional, Sequence

import numpy as np

__all__ = [
    "FiniteGroup",
    "GroupValidationError",
    "symmetric_group",
    "cyclic_group",
    "group_from_table",
    "group_from_json",
    "closure",
    "generates",
    "permutation_index",
    "transposition_index",
    "same_group",
]

# Full O(order^3) associativity validation is only feasible for small tables.
MAX_TABLE_ORDER = 1024
# S_m holds m! permutations and ranks translation rows of m! entries on
# demand; m=8 (40,320 elements, 161 KB per row) is the largest accepted.  Its
# dense table, read only by dense consumers, would take 6.5 GB.
MAX_SYMMETRIC_DEGREE = 8


class GroupValidationError(ValueError):
    """A Cayley table violates a group axiom.

    Attributes:
        axiom: short name of the first violated axiom
            ("shape", "range", "latin-row", "latin-column", "identity",
            "inverse", "associativity").
        witness: tuple of element indices exhibiting the violation.
    """

    def __init__(self, axiom: str, witness: tuple, message: str):
        super().__init__(message)
        self.axiom = axiom
        self.witness = witness


class FiniteGroup:
    """Immutable finite group over element indices ``0..order-1``.

    ``table[a, b]`` is the index of the product ``a * b``; ``rows(elems)``
    serves the translation rows ``table[elems]``.  ``identity`` and
    ``inverses`` are derived from the table unless supplied by a trusted
    constructor.  ``perms`` optionally carries each element's underlying
    permutation of ``0..m-1`` (set for symmetric groups).

    Without a table the group is permutation-backed, which only a trusted
    constructor may ask for (``validate=False``): ``perms`` must list the
    elements in strictly increasing lexicographic order and be closed under
    composition ``(a*b)[i] = a[b[i]]``.  Products, the identity and the
    inverses are then ranked by binary search on the permutations' radix
    keys, translation rows are built on first request and cached, and the
    dense table is built on the first read of ``table``.
    """

    def __init__(
        self,
        table=None,
        *,
        name: str = "",
        element_names: Optional[Sequence[str]] = None,
        perms: Optional[np.ndarray] = None,
        identity: Optional[int] = None,
        inverses: Optional[np.ndarray] = None,
        validate: bool = True,
    ):
        self._lock = threading.Lock()
        self._keys = None
        if table is None:
            if perms is None or validate:
                raise ValueError(
                    "a group without a table needs perms from a trusted "
                    "constructor (validate=False)"
                )
            perms = np.asarray(perms, dtype=np.int64)
            order, m = perms.shape
            if m**m > np.iinfo(np.int64).max:
                raise ValueError(f"degree {m} is too large for radix keys")
            self._radix = m ** np.arange(m - 1, -1, -1, dtype=np.int64)
            keys = perms @ self._radix  # lex order == big-endian radix value
            if not (np.diff(keys) > 0).all():
                raise ValueError("perms must be in strictly increasing lexicographic order")
            keys.setflags(write=False)
            self._keys = keys
            # slot of each element's cached row in _row_store, -1 until built
            self._row_slot = np.full(order, -1, dtype=np.intp)
            self._row_store = np.empty((0, order), dtype=np.int32)
            self._rows_built = 0
            if identity is None:
                identity = self._rank(np.arange(m))
            if inverses is None:
                inverses = self._rank(np.argsort(perms, axis=1))
        else:
            table = np.ascontiguousarray(np.asarray(table, dtype=np.int32))
            if table.ndim != 2 or table.shape[0] != table.shape[1]:
                raise GroupValidationError(
                    "shape", (), f"table must be square, got shape {table.shape}"
                )
            order = table.shape[0]
            if validate:
                self._validate_entries(table)
            table.setflags(write=False)
        if order == 0:
            raise GroupValidationError("shape", (), "table must be nonempty")
        self.order = order
        self._table = table
        self.name = name
        if element_names is not None:
            element_names = tuple(str(s) for s in element_names)
            if len(element_names) != order:
                raise ValueError(
                    f"expected {order} element names, got {len(element_names)}"
                )
        self.element_names = element_names
        if identity is None:
            identity = self._find_identity(table)
        self.identity = int(identity)
        if inverses is None:
            inverses = self._find_inverses(table, self.identity)
        self.inverses = np.ascontiguousarray(np.asarray(inverses, dtype=np.int32))
        if validate:
            self._validate_associativity(table)
        self.perms = None
        if perms is not None:
            self.perms = np.ascontiguousarray(np.asarray(perms, dtype=np.int64))
            if self.perms.shape[0] != order:
                raise ValueError("perms must have one row per element")
        for arr in (self.inverses, self.perms):
            if arr is not None:
                arr.setflags(write=False)
        self._perm_lookup: Optional[dict] = None

    @property
    def permutation_backed(self) -> bool:
        """Whether products are ranked from ``perms`` rather than read from a table."""
        return self._keys is not None

    @property
    def table(self) -> np.ndarray:
        """The dense ``(order, order)`` int32 Cayley table, read-only.

        A permutation-backed group builds it on first read, in O(order^2)
        memory; only consumers that are dense by nature should read it.
        """
        if self._table is None:
            with self._lock:
                if self._table is None:
                    table = self._compose_table()
                    table.setflags(write=False)
                    self._table = table
        return self._table

    def _compose_table(self) -> np.ndarray:
        """The dense table of a permutation-backed group, by composing rows.

        Row a lists a*b for every b, so row(a*s) = row(a)[row(s)].  A
        breadth-first search from the identity reaches each element as a*s,
        for a reached a and a generator s, and gathers its row once; only the
        generators' rows are ranked.  Each generator is the least element not
        yet reached, and every reached element meets it, so the search closes
        on the whole group whatever its permutations.
        """
        order = self.order
        table = np.empty((order, order), dtype=np.int32)
        table[self.identity] = np.arange(order)
        reached = np.zeros(order, dtype=bool)
        reached[self.identity] = True
        generators = []
        queue = collections.deque()
        while True:
            while queue:
                row = table[queue.popleft()]
                for s in generators:
                    product = row[s]
                    if not reached[product]:
                        reached[product] = True
                        row.take(table[s], out=table[product])
                        queue.append(product)
            missing = np.flatnonzero(~reached)
            if not missing.size:
                return table
            s = int(missing[0])
            table[s], reached[s] = self._rank_row(s), True
            generators.append(s)
            queue.extend(np.flatnonzero(reached))

    def rows(self, elems) -> np.ndarray:
        """Translation rows ``table[elems]``: row i lists ``elems[i] * b`` for every b.

        A table-backed group (or one whose table was already read) gathers
        them from the table.  A permutation-backed group ranks each row it
        has not served before, in O(order log order), and keeps it, so a run
        pays for the rows its supports touch and never for the full table.
        """
        elems = np.asarray(elems, dtype=np.intp)
        if self._table is not None:
            return self._table[elems]
        with self._lock:
            slots = self._row_slot[elems]
            if (slots < 0).any():
                self._build_rows(_distinct(elems[slots < 0], self.order))
                slots = self._row_slot[elems]
            return self._row_store[slots]

    def _rank(self, perms: np.ndarray) -> np.ndarray:
        """Element indices of permutation arrays (along the last axis)."""
        return np.searchsorted(self._keys, perms @ self._radix)

    def _rank_row(self, a: int) -> np.ndarray:
        # row b of perms[a][perms] is the permutation a*b
        return self._rank(self.perms[a][self.perms])

    def _build_rows(self, missing: np.ndarray) -> None:
        start, stop = self._rows_built, self._rows_built + missing.size
        if stop > self._row_store.shape[0]:
            grown = np.empty((min(self.order, 2 * stop), self.order), np.int32)
            grown[:start] = self._row_store[:start]
            self._row_store = grown
        for slot, a in enumerate(missing, start):
            self._row_store[slot] = self._rank_row(a)
        self._row_slot[missing] = np.arange(start, stop)
        self._rows_built = stop

    # -- validation helpers -------------------------------------------------

    @staticmethod
    def _validate_entries(table: np.ndarray) -> None:
        order = table.shape[0]
        bad = (table < 0) | (table >= order)
        if bad.any():
            a, b = np.argwhere(bad)[0]
            raise GroupValidationError(
                "range",
                (int(a), int(b)),
                f"table[{a},{b}] = {table[a, b]} is outside 0..{order - 1}",
            )
        expect = np.arange(order)
        for a in range(order):
            if not np.array_equal(np.sort(table[a]), expect):
                raise GroupValidationError(
                    "latin-row",
                    (int(a),),
                    f"row {a} is not a permutation of 0..{order - 1}",
                )
        for b in range(order):
            if not np.array_equal(np.sort(table[:, b]), expect):
                raise GroupValidationError(
                    "latin-column",
                    (int(b),),
                    f"column {b} is not a permutation of 0..{order - 1}",
                )

    @staticmethod
    def _find_identity(table: np.ndarray) -> int:
        order = table.shape[0]
        expect = np.arange(order)
        for a in range(order):
            if np.array_equal(table[a], expect) and np.array_equal(table[:, a], expect):
                return a
        raise GroupValidationError("identity", (), "table has no identity element")

    @staticmethod
    def _find_inverses(table: np.ndarray, identity: int) -> np.ndarray:
        order = table.shape[0]
        inverses = np.empty(order, dtype=np.int32)
        for a in range(order):
            hits = np.flatnonzero(table[a] == identity)
            if hits.size != 1 or table[hits[0], a] != identity:
                raise GroupValidationError(
                    "inverse", (int(a),), f"element {a} has no two-sided inverse"
                )
            inverses[a] = hits[0]
        return inverses

    @staticmethod
    def _validate_associativity(table: np.ndarray) -> None:
        # Chunk over the first operand: memory stays O(order^2).
        for a in range(table.shape[0]):
            lhs = table[table[a], :]  # lhs[b, c] = (a*b)*c
            rhs = table[a][table]     # rhs[b, c] = a*(b*c)
            if not np.array_equal(lhs, rhs):
                b, c = np.argwhere(lhs != rhs)[0]
                raise GroupValidationError(
                    "associativity",
                    (int(a), int(b), int(c)),
                    f"(a*b)*c != a*(b*c) for (a,b,c)=({a},{b},{c})",
                )

    # -- element operations -------------------------------------------------

    def mul(self, a: int, b: int) -> int:
        """Product a*b as an element index."""
        if self._table is not None:
            return int(self._table[a, b])
        return int(self._rank(self.perms[a][self.perms[b]]))

    def inv(self, a: int) -> int:
        """Inverse element index of a."""
        return int(self.inverses[a])

    def elements(self) -> range:
        return range(self.order)

    def element_name(self, a: int) -> str:
        if self.element_names is not None:
            return self.element_names[a]
        if self.perms is not None:
            return str(tuple(int(v) for v in self.perms[a]))
        return str(a)

    def __len__(self) -> int:
        return self.order

    def __repr__(self) -> str:
        label = self.name or "FiniteGroup"
        return f"{label}(order={self.order})"


def _distinct(elems: np.ndarray, order: int) -> np.ndarray:
    """The sorted distinct entries of an array of element indices below ``order``.

    What ``np.unique`` returns, through a mark per element: ``np.unique``
    calls ``np.ma.is_masked``, which loads ``numpy.ma`` (about 13 ms) inside
    the first run that reaches it.
    """
    seen = np.zeros(order, dtype=bool)
    seen[elems] = True
    return np.flatnonzero(seen)


def same_group(g1: FiniteGroup, g2: FiniteGroup) -> bool:
    """Whether two group objects describe the same table.

    Instances from the memoized constructors are shared, so the identity
    check settles the common case.  Two distinct permutation-backed
    instances compare their permutations, which fix every product; any other
    pair (for example a table loaded from JSON) compares tables.
    """
    if g1 is g2:
        return True
    if g1.order != g2.order:
        return False
    if g1.permutation_backed and g2.permutation_backed:
        return np.array_equal(g1.perms, g2.perms)
    return np.array_equal(g1.table, g2.table)


# Live groups from the trusted constructors, keyed by (constructor, argument).
# Values are weak: a table is freed once no caller holds its group, so the
# cache never pins memory beyond what the process already uses.
_MEMO: "weakref.WeakValueDictionary[tuple, FiniteGroup]" = weakref.WeakValueDictionary()
_MEMO_LOCK = threading.Lock()


def _memoized(build: Callable[[int], FiniteGroup]) -> Callable[[int], FiniteGroup]:
    @functools.wraps(build)
    def cached(n: int) -> FiniteGroup:
        key = (build.__name__, n)
        with _MEMO_LOCK:
            group = _MEMO.get(key)
            if group is None:
                group = build(n)
                _MEMO[key] = group
        return group

    return cached


@_memoized
def symmetric_group(m: int) -> FiniteGroup:
    """Symmetric group on m letters, elements ordered lexicographically.

    Permutations are stored as arrays p with p[i] the image of i, and the
    product a*b is the composition a after b, i.e. (a*b)[i] = a[b[i]].
    The group is permutation-backed: it holds the m! permutations and their
    inverses, and ranks a translation row (m! entries) when ``rows`` first
    asks for it.  The dense table of (m!)^2 entries (m=7 ~100 MB, m=8
    ~6.5 GB) is built only if ``table`` is read.  m > 8 is rejected.

    Memoized: while the group is alive, ``symmetric_group(m) is
    symmetric_group(m)``.  The instance is immutable and shared, so callers
    must not write to it.
    """
    if not 1 <= m <= MAX_SYMMETRIC_DEGREE:
        raise ValueError(
            f"m must be in 1..{MAX_SYMMETRIC_DEGREE} (the group has m! elements), got {m}"
        )
    perms = np.array(list(itertools.permutations(range(m))), dtype=np.int64)
    return FiniteGroup(None, name=f"S{m}", perms=perms, validate=False)


@_memoized
def cyclic_group(n: int) -> FiniteGroup:
    """Cyclic group of order n with addition mod n.

    Memoized like ``symmetric_group``: ``cyclic_group(n) is cyclic_group(n)``
    while the group is alive.
    """
    if n < 1:
        raise ValueError(f"order must be positive, got {n}")
    idx = np.arange(n)
    table = (idx[:, None] + idx[None, :]) % n
    return FiniteGroup(
        table,
        name=f"Z{n}",
        identity=0,
        inverses=(-idx) % n,
        validate=False,
    )


def group_from_table(
    table, *, name: str = "", element_names: Optional[Sequence[str]] = None
) -> FiniteGroup:
    """Group from an explicit Cayley table, with full axiom validation.

    Validation includes the O(order^3) associativity sweep, so tables are
    capped at order MAX_TABLE_ORDER; use a trusted constructor for larger
    families.
    """
    table = np.asarray(table)
    if table.ndim == 2 and table.shape[0] > MAX_TABLE_ORDER:
        raise ValueError(
            f"table order {table.shape[0]} exceeds validation cap {MAX_TABLE_ORDER}"
        )
    return FiniteGroup(table, name=name, element_names=element_names, validate=True)


def group_from_json(path) -> FiniteGroup:
    """Load a Cayley table from JSON: {"order": N, "table": [[...]]}.

    Optional keys: "name", "element_names".  Identity and inverses are
    derived and the full axioms validated on load.
    """
    with open(path) as fh:
        payload = json.load(fh)
    if not isinstance(payload, dict):
        raise ValueError("group file must contain a JSON object")
    unknown = set(payload) - {"order", "table", "name", "element_names"}
    if unknown:
        raise ValueError(f"unknown keys in group file: {sorted(unknown)}")
    for key in ("order", "table"):
        if key not in payload:
            raise ValueError(f"group file missing required key '{key}'")
    table = payload["table"]
    if not isinstance(payload["order"], int):
        raise ValueError("'order' must be an integer")
    if len(table) != payload["order"]:
        raise ValueError(
            f"'order' is {payload['order']} but table has {len(table)} rows"
        )
    return group_from_table(
        table,
        name=payload.get("name", ""),
        element_names=payload.get("element_names"),
    )


def closure(group: FiniteGroup, elements: Iterable[int]) -> frozenset:
    """Smallest subgroup containing the given elements (and the identity).

    Grows the reached set from the identity by left translation through the
    rows of the generators and their inverses, one frontier at a time, so it
    makes no per-product call.
    """
    seed = {int(a) for a in elements}
    for a in seed:
        if not 0 <= a < group.order:
            raise ValueError(f"element index {a} out of range for order {group.order}")
    known = np.zeros(group.order, dtype=bool)
    known[group.identity] = True
    if seed:
        gens = np.array(sorted(seed | {group.inv(a) for a in seed}))
        translations = group.rows(gens)
        frontier = np.array([group.identity])
        while frontier.size:
            reached = _distinct(translations[:, frontier], group.order)
            frontier = reached[~known[reached]]
            known[frontier] = True
    return frozenset(np.flatnonzero(known).tolist())


def generates(group: FiniteGroup, elements: Iterable[int]) -> bool:
    """Whether the given elements generate the whole group."""
    elements = list(elements)
    if not elements:
        raise ValueError("cannot test an empty generating set")
    return len(closure(group, elements)) == group.order


def permutation_index(group: FiniteGroup, perm: Sequence[int]) -> int:
    """Element index of the given permutation array (symmetric groups only).

    A permutation-backed group ranks it by its radix key in O(log order); a
    table-backed group that carries ``perms`` looks it up in a dict built on
    first use.
    """
    if group.perms is None:
        raise ValueError("group does not carry permutation data")
    m = group.perms.shape[1]
    arr = np.asarray(perm)
    if arr.shape != (m,) or not np.array_equal(np.sort(arr), np.arange(m)):
        raise ValueError(f"{tuple(arr.tolist())} is not a permutation of range({m})")
    arr = arr.astype(np.int64)
    if group.permutation_backed:
        index = int(group._rank(arr))
        if index < group.order and np.array_equal(group.perms[index], arr):
            return index
    else:
        if group._perm_lookup is None:
            group._perm_lookup = {
                tuple(int(v) for v in row): i for i, row in enumerate(group.perms)
            }
        index = group._perm_lookup.get(tuple(arr.tolist()))
        if index is not None:
            return index
    raise ValueError(f"{tuple(arr.tolist())} is not a permutation of this group")


def transposition_index(group: FiniteGroup, j: int, k: int) -> int:
    """Element index of the transposition swapping positions j and k."""
    if group.perms is None:
        raise ValueError("group does not carry permutation data")
    m = group.perms.shape[1]
    if not (0 <= j < m and 0 <= k < m) or j == k:
        raise ValueError(f"invalid transposition ({j},{k}) for degree {m}")
    perm = list(range(m))
    perm[j], perm[k] = perm[k], perm[j]
    return permutation_index(group, perm)
