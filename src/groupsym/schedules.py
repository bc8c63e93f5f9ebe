"""Switching signals: deterministic, randomized, and bisection schedules.

A schedule is an immutable recipe that realizes, for any horizon, a
deterministic list of per-step convex weight vectors.  Randomized kinds carry
a mandatory 64-bit seed and draw from a named generator (PCG64), so equal
parameters give bit-identical signals of any length.
"""

from __future__ import annotations

import csv
import warnings
from typing import Callable, List, Optional, Sequence, Union

import numpy as np

from .groups import FiniteGroup, generates, same_group
from .lifted import ConvexWeights

__all__ = [
    "RNG_ALGORITHM",
    "Schedule",
    "CyclicSchedule",
    "RandomGossipSchedule",
    "RandomSubsetSchedule",
    "DDBisectionSchedule",
    "ExplicitSchedule",
    "schedule_from_csv",
    "frame_histogram",
]

RNG_ALGORITHM = "pcg64"


def _check_alpha(alpha: float) -> float:
    alpha = float(alpha)
    if not 0.0 < alpha < 1.0:
        raise ValueError(f"alpha must lie strictly inside (0, 1), got {alpha}")
    return alpha


def _check_alpha_range(alpha_range) -> tuple:
    lo, hi = (float(v) for v in alpha_range)
    if not (0.0 < lo < hi < 1.0):
        raise ValueError(
            f"alpha_range must satisfy 0 < lo < hi < 1, got [{lo}, {hi}]"
        )
    return lo, hi


def _check_seed(seed) -> int:
    if isinstance(seed, bool) or not isinstance(seed, (int, np.integer)):
        raise ValueError("randomized schedules require an integer seed")
    seed = int(seed)
    if not 0 <= seed < 2**64:
        raise ValueError(f"seed must fit in 64 unsigned bits, got {seed}")
    return seed


def _check_support(group: FiniteGroup, support) -> tuple:
    elems = sorted({int(h) for h in support})
    if not elems:
        raise ValueError("support must be nonempty")
    for h in elems:
        if not 0 <= h < group.order:
            raise ValueError(f"support element {h} out of range")
    return tuple(elems)


def _two_point(group: FiniteGroup, h: int, alpha: float) -> ConvexWeights:
    w = np.zeros(group.order)
    w[group.identity] += 1.0 - alpha
    w[h] += alpha
    return ConvexWeights(w, group)


class Schedule:
    """Base class: subclasses fill in realize() and union_support()."""

    kind = "base"

    def __init__(self, group: FiniteGroup):
        self.group = group

    def realize(self, steps: int) -> List[ConvexWeights]:
        """Deterministic list of weight vectors for steps 0..steps-1."""
        raise NotImplementedError

    def union_support(self) -> frozenset:
        """All elements that can ever receive weight (identity included)."""
        raise NotImplementedError

    def support_generates(self) -> bool:
        """Whether the union support generates the group (mixing prerequisite)."""
        support = self.union_support()
        if not support:
            return False
        return generates(self.group, support)

    def describe(self) -> dict:
        """JSON-ready summary of the schedule parameters."""
        return {
            "kind": self.kind,
            "group": {"name": self.group.name, "order": self.group.order},
        }

    def _steps_arg(self, steps: int) -> int:
        steps = int(steps)
        if steps < 0:
            raise ValueError(f"steps must be >= 0, got {steps}")
        return steps


class CyclicSchedule(Schedule):
    """Deterministic cycle: step t mixes the identity with elements[t mod L]."""

    kind = "cyclic"

    def __init__(self, group: FiniteGroup, elements: Sequence[int], alpha: float):
        super().__init__(group)
        if len(elements) == 0:
            raise ValueError("element list must be nonempty")
        self.elements = tuple(int(h) for h in elements)
        for h in self.elements:
            if not 0 <= h < group.order:
                raise ValueError(f"element {h} out of range")
        self.alpha = _check_alpha(alpha)

    def realize(self, steps: int) -> List[ConvexWeights]:
        steps = self._steps_arg(steps)
        period = [
            _two_point(self.group, h, self.alpha) for h in self.elements
        ]
        L = len(period)
        return [period[t % L] for t in range(steps)]

    def union_support(self) -> frozenset:
        return frozenset(self.elements) | {self.group.identity}

    def describe(self) -> dict:
        out = super().describe()
        out.update(elements=list(self.elements), alpha=self.alpha)
        return out


class _SeededSchedule(Schedule):
    """Shared parameters of the seeded kinds: support, alpha range and seed."""

    def __init__(
        self,
        group: FiniteGroup,
        support: Sequence[int],
        alpha_range,
        seed: int,
    ):
        super().__init__(group)
        self.support = _check_support(group, support)
        self.alpha_range = _check_alpha_range(alpha_range)
        self.seed = _check_seed(seed)

    def union_support(self) -> frozenset:
        return frozenset(self.support) | {self.group.identity}

    def describe(self) -> dict:
        out = super().describe()
        out.update(
            support=list(self.support),
            alpha_range=list(self.alpha_range),
            seed=self.seed,
            rng=RNG_ALGORITHM,
        )
        return out


class RandomGossipSchedule(_SeededSchedule):
    """Each step: one uniform element from the support, fresh alpha in range."""

    kind = "random-gossip"

    def realize(self, steps: int) -> List[ConvexWeights]:
        steps = self._steps_arg(steps)
        rng = np.random.Generator(np.random.PCG64(self.seed))
        lo, hi = self.alpha_range
        out = []
        for _ in range(steps):
            h = self.support[int(rng.integers(len(self.support)))]
            alpha = float(rng.uniform(lo, hi))
            out.append(_two_point(self.group, h, alpha))
        return out


class RandomSubsetSchedule(_SeededSchedule):
    """Each step: alpha spread evenly over a random nonempty support subset."""

    kind = "random-subset"

    def realize(self, steps: int) -> List[ConvexWeights]:
        steps = self._steps_arg(steps)
        rng = np.random.Generator(np.random.PCG64(self.seed))
        lo, hi = self.alpha_range
        n = len(self.support)
        out = []
        for _ in range(steps):
            k = int(rng.integers(1, n + 1))
            chosen = rng.choice(n, size=k, replace=False)
            alpha = float(rng.uniform(lo, hi))
            w = np.zeros(self.group.order)
            w[self.group.identity] += 1.0 - alpha
            for idx in chosen:
                w[self.support[int(idx)]] += alpha / k
            out.append(ConvexWeights(w, self.group))
        return out


class DDBisectionSchedule(Schedule):
    """Bisection iterations: step n mixes the identity with a chosen h(n).

    The chooser is either a list of elements cycled in order or a
    deterministic callable n -> element.  expand_frames(n) unfolds the first
    n iterations into the concrete length-2^n frame sequence obtained by
    appending h(n) times the current block after itself; at alpha = 1/2 the
    frame histogram equals the mixed weight vector p(n) exactly.
    """

    kind = "dd-bisection"

    def __init__(
        self,
        group: FiniteGroup,
        chooser: Union[Sequence[int], Callable[[int], int]],
        alpha: float = 0.5,
    ):
        super().__init__(group)
        self.alpha = _check_alpha(alpha)
        if callable(chooser):
            self._chooser_fn = chooser
            self._cycle = None
        else:
            cycle = tuple(int(h) for h in chooser)
            if not cycle:
                raise ValueError("chooser cycle must be nonempty")
            for h in cycle:
                if not 0 <= h < group.order:
                    raise ValueError(f"element {h} out of range")
            self._cycle = cycle
            self._chooser_fn = None
        self.warning: Optional[str] = None
        if self._cycle is not None and not generates(group, set(self._cycle) | {group.identity}):
            self.warning = (
                "chooser support does not generate the group; "
                "mixing windows cannot cover it"
            )
            warnings.warn(self.warning)

    def chosen(self, n: int) -> List[int]:
        """h(0), ..., h(n-1)."""
        n = self._steps_arg(n)
        if self._cycle is not None:
            L = len(self._cycle)
            elems = [self._cycle[i % L] for i in range(n)]
        else:
            elems = [int(self._chooser_fn(i)) for i in range(n)]
        for h in elems:
            if not 0 <= h < self.group.order:
                raise ValueError(f"chooser produced out-of-range element {h}")
        return elems

    def realize(self, steps: int) -> List[ConvexWeights]:
        return [
            _two_point(self.group, h, self.alpha) for h in self.chosen(steps)
        ]

    def expand_frames(self, n: int) -> List[int]:
        """Concrete frame sequence after n bisections (length 2^n)."""
        frames = [self.group.identity]
        for h in self.chosen(n):
            frames = frames + [self.group.mul(h, f) for f in frames]
        return frames

    def union_support(self) -> frozenset:
        """Elements the schedule can put weight on, identity included.

        For a chooser cycle this is exact.  For a callable chooser it is a
        heuristic: only h(0), ..., h(4|G| - 1) are probed, so an element the
        callable first picks at step 4|G| or later is missed.
        ``support_generates`` and the protocols' declared-support checks then
        judge that prefix alone.
        """
        if self._cycle is None:
            probe = self.chosen(4 * self.group.order)
            return frozenset(probe) | {self.group.identity}
        return frozenset(self._cycle) | {self.group.identity}

    def describe(self) -> dict:
        out = super().describe()
        out.update(
            alpha=self.alpha,
            chooser=(list(self._cycle) if self._cycle is not None else "callable"),
        )
        if self.warning:
            out["warning"] = self.warning
        return out


class ExplicitSchedule(Schedule):
    """Replays a fixed list of weight vectors, truncating or cycling."""

    kind = "custom-sequence"

    def __init__(self, group: FiniteGroup, sequence, policy: str = "truncate"):
        super().__init__(group)
        if policy not in ("truncate", "cycle"):
            raise ValueError(f"policy must be 'truncate' or 'cycle', got {policy!r}")
        self.policy = policy
        entries = []
        for i, entry in enumerate(sequence):
            if isinstance(entry, ConvexWeights):
                if not same_group(entry.group, group):
                    raise ValueError(f"invalid weights at index {i}: wrong group")
                entries.append(entry)
            else:
                try:
                    entries.append(ConvexWeights(np.asarray(entry, dtype=np.float64), group))
                except ValueError as exc:
                    raise ValueError(f"invalid weights at index {i}: {exc}") from exc
        self.sequence = tuple(entries)

    def realize(self, steps: int) -> List[ConvexWeights]:
        steps = self._steps_arg(steps)
        if steps == 0:
            return []
        if not self.sequence:
            raise ValueError("empty sequence cannot supply any steps")
        L = len(self.sequence)
        if self.policy == "cycle":
            return [self.sequence[t % L] for t in range(steps)]
        if steps > L:
            raise ValueError(
                f"requested {steps} steps but sequence has length {L} (policy truncate)"
            )
        return list(self.sequence[:steps])

    def union_support(self) -> frozenset:
        out = set()
        for s in self.sequence:
            out.update(int(g) for g in s.support())
        return frozenset(out)

    def describe(self) -> dict:
        out = super().describe()
        out.update(length=len(self.sequence), policy=self.policy)
        return out


def schedule_from_csv(path, group: FiniteGroup, policy: str = "truncate") -> ExplicitSchedule:
    """Load an explicit schedule: one weight vector per row, optional header."""
    rows = []
    with open(path, newline="") as fh:
        for lineno, row in enumerate(csv.reader(fh)):
            if not row:
                continue
            if lineno == 0:
                try:
                    float(row[0])
                except ValueError:
                    if len(row) != group.order:
                        raise ValueError(
                            f"header has {len(row)} columns, expected {group.order}"
                        )
                    continue
            if len(row) != group.order:
                raise ValueError(
                    f"row {lineno} has {len(row)} columns, expected {group.order}"
                )
            rows.append([float(v) for v in row])
    return ExplicitSchedule(group, rows, policy=policy)


def frame_histogram(group: FiniteGroup, frames: Sequence[int]) -> np.ndarray:
    """Empirical distribution of a frame sequence over the group elements."""
    if len(frames) == 0:
        raise ValueError("frame sequence must be nonempty")
    counts = np.bincount(np.asarray(frames, dtype=np.int64), minlength=group.order)
    if counts.shape[0] > group.order:
        raise ValueError("frame index out of range")
    return counts / float(len(frames))
