"""Switching signals: deterministic, randomized, and bisection schedules.

A schedule is an immutable recipe that realizes, for any horizon, a
deterministic Signal of per-step convex weights.  Randomized kinds carry a
mandatory 64-bit seed and draw from a named generator (PCG64), step by step,
so equal parameters give bit-identical signals of any length.
"""

from __future__ import annotations

import csv
import warnings
from typing import Callable, Iterator, List, Optional, Sequence, Union

import numpy as np
from numpy.random import PCG64, Generator

from .groups import FiniteGroup, generates, same_group
from .lifted import ConvexWeights, Signal, _support_row

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


def _mix_row(group: FiniteGroup, alpha: float, picks, share: float) -> tuple:
    """(elements, weights), in element order, of the step whose dense vector holds
    1 - alpha on the identity plus share on each pick, added in that order."""
    row = {group.identity: 1.0 - alpha}
    for h in picks:
        row[h] = row.get(h, 0.0) + share
    return tuple(zip(*sorted(row.items())))


class Schedule:
    """Base class: subclasses fill in _rows() and union_support().

    Their rows are convex weights by construction (alpha inside (0, 1),
    sums within a few ulps of 1), so they are not revalidated.
    """

    kind = "base"
    # Most entries in one row: the two-point kinds mix the identity with one element.
    width = 2

    def __init__(self, group: FiniteGroup):
        self.group = group

    def realize(self, steps: int) -> Signal:
        """The signal of steps 0..steps-1; its rows are drawn as they are read."""
        steps = self._steps_arg(steps)
        return Signal(self.group, steps, self.width, self._rows(steps))

    def _rows(self, steps: int) -> Iterator[tuple]:
        """(elements, weights) of steps 0..steps-1, one step per ``next``.

        Raises what ``realize(steps)`` must raise when called, before any
        row is drawn.
        """
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

    def _rows(self, steps: int) -> Iterator[tuple]:
        for t in range(steps):
            h = self.elements[t % len(self.elements)]
            yield _mix_row(self.group, self.alpha, [h], self.alpha)

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

    def _rows(self, steps: int) -> Iterator[tuple]:
        rng = Generator(PCG64(self.seed))
        for _ in range(steps):  # per step an integer, then a uniform
            h = self.support[int(rng.integers(len(self.support)))]
            alpha = float(rng.uniform(*self.alpha_range))
            yield _mix_row(self.group, alpha, [h], alpha)


class RandomSubsetSchedule(_SeededSchedule):
    """Each step: alpha spread evenly over a random nonempty support subset."""

    kind = "random-subset"

    @property
    def width(self) -> int:
        return len(self.union_support())

    def _rows(self, steps: int) -> Iterator[tuple]:
        rng = Generator(PCG64(self.seed))
        n = len(self.support)
        for _ in range(steps):  # per step an integer, a choice, then a uniform
            k = int(rng.integers(1, n + 1))
            chosen = rng.choice(n, size=k, replace=False)
            alpha = float(rng.uniform(*self.alpha_range))
            yield _mix_row(self.group, alpha, [self.support[int(i)] for i in chosen], alpha / k)


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
        return [self._choice(i) for i in range(self._steps_arg(n))]

    def _choice(self, n: int) -> int:
        if self._cycle is not None:
            return self._cycle[n % len(self._cycle)]
        h = int(self._chooser_fn(n))
        if not 0 <= h < self.group.order:
            raise ValueError(f"chooser produced out-of-range element {h}")
        return h

    def _rows(self, steps: int) -> Iterator[tuple]:
        for t in range(steps):
            yield _mix_row(self.group, self.alpha, [self._choice(t)], self.alpha)

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
        self.width = max((np.count_nonzero(s.weights) for s in entries), default=1)

    def _rows(self, steps: int) -> Iterator[tuple]:
        L = len(self.sequence)
        if steps and not L:
            raise ValueError("empty sequence cannot supply any steps")
        if self.policy == "truncate" and steps > L:
            raise ValueError(
                f"requested {steps} steps but sequence has length {L} (policy truncate)"
            )
        rows = [_support_row(s) for s in self.sequence]
        return (rows[t % L] for t in range(steps))

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
