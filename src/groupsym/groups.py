"""Finite groups as dense Cayley tables over 0-based element indices.

Elements are integers ``0..order-1`` indexing rows and columns of a
multiplication table, so products are O(1) lookups and weight-vector
convolutions reduce to integer gathers.  Groups are immutable after
construction and safe to share between threads.

The trusted constructors ``symmetric_group`` and ``cyclic_group`` are
memoized: while any caller holds the group, every call with the same argument
returns that same instance, so a run builds each table once and
``same_group`` settles on identity instead of comparing tables.
"""

from __future__ import annotations

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
# Table size grows as (m!)^2; m=8 already needs ~6.5 GB for the table alone.
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
    """Immutable finite group backed by a dense multiplication table.

    ``table[a, b]`` is the index of the product ``a * b``.  ``identity`` and
    ``inverses`` are derived from the table unless supplied by a trusted
    constructor.  ``perms`` optionally carries each element's underlying
    permutation of ``0..m-1`` (set for symmetric groups).
    """

    def __init__(
        self,
        table,
        *,
        name: str = "",
        element_names: Optional[Sequence[str]] = None,
        perms: Optional[np.ndarray] = None,
        identity: Optional[int] = None,
        inverses: Optional[np.ndarray] = None,
        validate: bool = True,
    ):
        table = np.ascontiguousarray(np.asarray(table, dtype=np.int32))
        if table.ndim != 2 or table.shape[0] != table.shape[1]:
            raise GroupValidationError(
                "shape", (), f"table must be square, got shape {table.shape}"
            )
        order = table.shape[0]
        if order == 0:
            raise GroupValidationError("shape", (), "table must be nonempty")
        if validate:
            self._validate_entries(table)
        self.order = order
        self.table = table
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
        for arr in (self.table, self.inverses, self.perms):
            if arr is not None:
                arr.setflags(write=False)
        self._perm_lookup: Optional[dict] = None

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
        return int(self.table[a, b])

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


def same_group(g1: FiniteGroup, g2: FiniteGroup) -> bool:
    """Whether two group objects describe the same table.

    Instances from the memoized constructors are shared, so the identity
    check settles the common case; genuinely distinct instances (for example
    a table loaded from JSON) fall back to comparing tables.
    """
    if g1 is g2:
        return True
    return g1.order == g2.order and np.array_equal(g1.table, g2.table)


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
    The table has (m!)^2 entries: m=7 needs ~100 MB, m=8 ~6.5 GB, and
    m > 8 is rejected.

    Memoized: while the group is alive, ``symmetric_group(m) is
    symmetric_group(m)``.  The instance is immutable and shared, so callers
    must not write to it.
    """
    if not 1 <= m <= MAX_SYMMETRIC_DEGREE:
        raise ValueError(
            f"m must be in 1..{MAX_SYMMETRIC_DEGREE} (table size is (m!)^2), got {m}"
        )
    perms = np.array(list(itertools.permutations(range(m))), dtype=np.int64)
    order = perms.shape[0]
    radix = m ** np.arange(m - 1, -1, -1, dtype=np.int64)
    keys = perms @ radix  # strictly increasing: lex order == big-endian value
    table = np.empty((order, order), dtype=np.int32)
    for a in range(order):
        table[a] = np.searchsorted(keys, perms[a][perms] @ radix)
    inverses = np.searchsorted(keys, np.argsort(perms, axis=1) @ radix)
    return FiniteGroup(
        table,
        name=f"S{m}",
        perms=perms,
        identity=0,
        inverses=inverses,
        validate=False,
    )


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
    """Smallest subgroup containing the given elements (and the identity)."""
    seed = {int(a) for a in elements}
    for a in seed:
        if not 0 <= a < group.order:
            raise ValueError(f"element index {a} out of range for order {group.order}")
    known = seed | {group.identity}
    frontier = list(known)
    while frontier:
        fresh = []
        for a in frontier:
            for b in seed | {group.inv(a)}:
                for c in (group.mul(a, b), group.mul(b, a)):
                    if c not in known:
                        known.add(c)
                        fresh.append(c)
        frontier = fresh
    return frozenset(known)


def generates(group: FiniteGroup, elements: Iterable[int]) -> bool:
    """Whether the given elements generate the whole group."""
    elements = list(elements)
    if not elements:
        raise ValueError("cannot test an empty generating set")
    return len(closure(group, elements)) == group.order


def permutation_index(group: FiniteGroup, perm: Sequence[int]) -> int:
    """Element index of the given permutation array (symmetric groups only)."""
    if group.perms is None:
        raise ValueError("group does not carry permutation data")
    if group._perm_lookup is None:
        group._perm_lookup = {
            tuple(int(v) for v in row): i for i, row in enumerate(group.perms)
        }
    key = tuple(int(v) for v in perm)
    try:
        return group._perm_lookup[key]
    except KeyError:
        raise ValueError(f"{key} is not a permutation of this group") from None


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
