"""Linear group actions on finite-dimensional state spaces.

An action assigns each group element g a linear map a(g, .) with
a(e, x) = x and a(h, a(g, x)) = a(h*g, x).  Mixing a state with convex
weights, x' = sum_g s_g a(g, x), drives x toward the orbit average
F(x) = (1/|G|) sum_g a(g, x), and the lifted weight trajectory reconstructs
the direct one exactly: x(t) = sum_g p_g(t) a(g, x(0)).
"""

from __future__ import annotations

import base64
import binascii
import json
import math
from dataclasses import dataclass
from typing import Callable, Iterator, Optional, Tuple

import numpy as np
from numpy.fft import fft, ifft

from .groups import FiniteGroup, cyclic_group, group_from_table, symmetric_group
from .lifted import BLOCK_BYTES

__all__ = [
    "VectorSpace",
    "LinearAction",
    "permutation_action",
    "regular_action",
    "dft_action",
    "conjugation_action",
    "axis_permutation_action",
    "subsystem_permutation_unitaries",
    "subsystem_permutation_action",
    "pauli_matrices",
    "pauli_quotient_group",
    "pauli_unitaries",
    "step",
    "symmetrizer",
    "fixed_point_residual",
    "inner",
    "conserved_value",
    "ProjectionCheck",
    "is_projection",
    "restricted_operator_bound",
    "Base64State",
    "encode_state",
    "decode_state",
    "save_state",
    "load_state",
]

UNITARY_ATOL = 1e-10
FIXED_POINT_ATOL = 1e-10
# encode_state writes float64 and complex128 arrays with more entries than
# this as the base64 of their raw little-endian C-order bytes; smaller arrays
# and every other dtype stay nested lists.
INLINE_ARRAY_MAX = 64
_BINARY_DTYPES = {("f", 8): "<f8", ("c", 16): "<c16"}


@dataclass(frozen=True)
class VectorSpace:
    """Dense state space descriptor: array shape plus real/complex scalars."""

    shape: Tuple[int, ...]
    complex: bool = False

    @property
    def dim(self) -> int:
        return int(np.prod(self.shape))

    def validate(self, x) -> np.ndarray:
        arr = np.asarray(x)
        if arr.shape != self.shape:
            raise ValueError(f"state shape {arr.shape} does not match {self.shape}")
        if self.complex:
            return np.ascontiguousarray(arr, dtype=np.complex128)
        if np.iscomplexobj(arr):
            raise ValueError("real state space cannot hold complex data")
        return np.ascontiguousarray(arr, dtype=np.float64)


class LinearAction:
    """Group action by linear maps on a fixed vector space.

    ``apply_fn(g, x)`` must implement a left action with respect to the
    group table.  ``adjoint_map`` names, per element, the element whose map
    is the adjoint of a(g, .); all bundled actions are unitary, so it is the
    inverse map.  The kernels are methods: ``_block`` fills a buffer with
    the images of a run of elements, and every orbit walk, ``mixer`` and,
    in the base class, ``_fixed_point_residual`` and ``_average`` (the
    symmetrizer) go through it; ``_step`` fills a buffer with one mixing
    step; ``direct_run`` holds the direct side of an engine run.  A bundled
    action with a faster form of one overrides that method (the relabeling
    gather, orbit-label average and inverse-pair residual; the DFT's
    Fourier residual, mixer and run); a custom action inherits one
    ``apply`` per element.
    """

    def __init__(
        self,
        group: FiniteGroup,
        space: VectorSpace,
        apply_fn: Callable[[int, np.ndarray], np.ndarray],
        *,
        adjoint_map: Optional[np.ndarray] = None,
        name: str = "",
    ):
        self.group = group
        self.space = space
        self._apply = apply_fn
        self.adjoint_map = (
            None if adjoint_map is None else np.asarray(adjoint_map, dtype=np.int64)
        )
        self.name = name
        self._matrices: dict = {}
        self._work: Optional[np.ndarray] = None
        self._copies: Optional[np.ndarray] = None

    def apply(self, g: int, x, *, validate: bool = True) -> np.ndarray:
        if not 0 <= g < self.group.order:
            raise ValueError(f"element index {g} out of range")
        if validate:
            x = self.space.validate(x)
        return self._apply(g, x)

    def orbit(self, x) -> list:
        """[a(g, x) for every g], in element order."""
        x = self.space.validate(x)
        return [self._apply(g, x) for g in range(self.group.order)]

    def _block(self, gs, x: np.ndarray, out: np.ndarray) -> np.ndarray:
        """Fill row i of ``out`` with a(g_i, x).ravel() and return ``out``.

        ``gs`` is a slice of the elements (g_i = gs.start + i) or an index
        array (g_i = gs[i]); ``x`` is a validated state and ``out`` a
        C-contiguous (number of elements, dim) array of x's dtype.
        """
        for row, g in zip(out, range(self.group.order)[gs] if isinstance(gs, slice) else gs):
            row[:] = self._apply(g, x).ravel()
        return out

    def _step(self, idx: np.ndarray, w: np.ndarray, x: np.ndarray, out: np.ndarray) -> np.ndarray:
        """Fill ``out`` with sum_k w[k] a(idx[k], x), skipping zero weights, and return it.

        ``x`` is a validated state and ``out`` an array of its shape and dtype
        that does not overlap it.  The sum starts from zeros and adds the
        terms in row order; an override must give the same bits.
        """
        out.fill(0)
        for g, wg in zip(idx, w):
            if wg:
                out += wg * self.apply(g, x, validate=False)
        return out

    def orbit_blocks(self, x) -> Iterator[Tuple[int, np.ndarray]]:
        """Yield (start, block) with block[i] = a(start+i, x).ravel().

        Consecutive elements are grouped so that a block's working set (its
        images plus up to three temporaries of the same size inside the
        kernel that builds them) stays near BLOCK_BYTES; each block is one
        relabeling gather for the permutation actions (block, axis,
        subsystem and regular) and one ``apply`` per element for the DFT,
        conjugation and custom actions.  A state of a quarter of BLOCK_BYTES
        or more goes one element per block, so memory never exceeds one
        image beyond what a per-element loop uses.  Every block is a fresh
        array.
        """
        x = self.space.validate(x)
        for gs in _slices(self.group.order, x):
            yield gs.start, self._block(gs, x, np.empty((gs.stop - gs.start, x.size), x.dtype))

    def _walk(self, x: np.ndarray, elements: Optional[np.ndarray] = None) -> Iterator[np.ndarray]:
        """The orbit blocks of a validated state, each in one buffer kept on the action.

        The blocks run over ``elements`` (an index array) in its order, or
        over the whole group in element order, in blocks of the size
        ``orbit_blocks`` uses.  The residual walks the orbit once per
        engine step.  A block written into this buffer, and a difference
        written over it, allocate nothing after the first call, where a
        fresh block per step comes back from the allocator as fresh pages.  Each block is overwritten by the next,
        so two walks of one action must not interleave, from one thread or
        from two.
        """
        runs = _slices(self.group.order if elements is None else len(elements), x)
        self._work = _reuse(self._work, (runs[0].stop, x.size), x.dtype)
        for gs in runs:
            yield self._block(
                gs if elements is None else elements[gs], x, self._work[: gs.stop - gs.start]
            )

    def orbit_matrix(self, x) -> np.ndarray:
        """The (|G|, dim) array whose row g is a(g, x).ravel()."""
        x = self.space.validate(x)
        out = np.empty((self.group.order, x.size), dtype=x.dtype)
        for gs in _slices(self.group.order, x):
            self._block(gs, x, out[gs])
        return out

    def _fixed_point_residual(self, x: np.ndarray, elements: Optional[np.ndarray] = None) -> float:
        """max ||a(g, x) - x|| of a validated state over ``elements`` (all when None).

        Block by block: x is subtracted in place from each block, and the
        squared row norms are summed over the real view, with no conjugated
        temporary.
        """
        flat = x.reshape(-1)
        worst = 0.0
        copies = None
        for block in self._walk(x, elements):
            if copies is None:
                # x in every row of a block, kept on the action: x broadcast
                # over the block would have numpy's ufunc iterator buffer it,
                # 8192 elements (128 KB of complex128) per call
                copies = self._copies = _reuse(self._copies, self._work.shape, x.dtype)
                copies[...] = flat
            diff = np.subtract(block, copies[: len(block)], out=block).view(np.float64)
            # np.maximum, unlike Python's max, keeps a NaN block's maximum
            worst = float(np.maximum(worst, np.einsum("ij,ij->i", diff, diff).max()))
        return math.sqrt(worst)

    def _average(self, x: np.ndarray) -> np.ndarray:
        """``symmetrizer`` of a validated state: block sums, added in block order."""
        total = None
        for block in self._walk(x):
            part = block.sum(axis=0)
            total = part if total is None else np.add(total, part, out=total)
        total /= self.group.order
        return total.reshape(self.space.shape)

    def mixer(self, x) -> Tuple[Callable[[np.ndarray], np.ndarray], np.ndarray]:
        """(mix, average) for the orbit of x, built once.

        ``mix(p)`` is the flattened mixture ``sum_g p_g a(g, x).ravel()`` for
        a weight vector p over the group, and ``average`` is the orbit
        average F(x) in the state's shape: ``p @ orbit_matrix`` and its row
        mean.
        """
        orbit_matrix = self.orbit_matrix(x)
        return (lambda p: p @ orbit_matrix), orbit_matrix.mean(axis=0).reshape(self.space.shape)

    def direct_run(self, x0: np.ndarray) -> "_DirectRun":
        """The direct side of an engine run from the validated state x0.

        The engine advances it with ``step(idx, w)`` and reads ``residual()``,
        ``lift_gap(p)`` against the lifted weights p of the same step, and
        ``state()``, the direct state, which only monitors, a caller's
        residual and the result read.  ``orbit_average`` is F(x0).
        """
        return _DirectRun(self, x0)

    def matrix(self, g: int) -> np.ndarray:
        """Materialize a(g, .) on the flattened space (cached)."""
        if g not in self._matrices:
            dim = self.space.dim
            dtype = np.complex128 if self.space.complex else np.float64
            basis = np.eye(dim, dtype=dtype)
            cols = [
                self.apply(g, basis[j].reshape(self.space.shape)).ravel()
                for j in range(dim)
            ]
            self._matrices[g] = np.array(cols).T
        return self._matrices[g]

    def __repr__(self) -> str:
        label = self.name or "LinearAction"
        return f"{label}(group={self.group!r}, shape={self.space.shape})"


class _DirectRun:
    """The direct state itself, in two buffers that the steps write in turn.

    x0, which may be the caller's own array, is never written.  The lift
    gap is the largest entry of |mix(p) - x| for the action's ``mixer`` of
    x0.
    """

    def __init__(self, action: LinearAction, x0: np.ndarray):
        self._action, self._x, self._t = action, x0, 0
        # taken before the mixer's temporaries, so that those, once freed,
        # leave no unused hole below them
        self._buffers = (np.empty_like(x0), np.empty_like(x0))
        self._mix, self.orbit_average = action.mixer(x0)

    def step(self, idx: np.ndarray, w: np.ndarray) -> None:
        self._x = step(self._action, idx, w, self._x, out=self._buffers[self._t % 2])
        self._t += 1

    def state(self) -> np.ndarray:
        return self._x

    def residual(self) -> float:
        return fixed_point_residual(self._action, self._x)

    def lift_gap(self, p: np.ndarray) -> float:
        recon = self._mix(p)
        np.subtract(recon, self._x.reshape(-1), out=recon)
        # the absolute values land in the real parts of a complex recon
        return float(np.abs(recon, out=recon).real.max())


def _reuse(buffer: Optional[np.ndarray], shape: Tuple[int, ...], dtype) -> np.ndarray:
    """``buffer`` if it has this shape and dtype, else a new empty array that does."""
    if buffer is None or buffer.shape != shape or buffer.dtype != dtype:
        return np.empty(shape, dtype=dtype)
    return buffer


def _slices(order: int, x: np.ndarray) -> list:
    """The element runs of the orbit blocks of a validated state, in element order.

    See ``LinearAction.orbit_blocks`` for the block size.
    """
    per_block = max(1, BLOCK_BYTES // (4 * max(1, x.nbytes)))
    return [slice(s, min(order, s + per_block)) for s in range(0, order, per_block)]


# -- concrete actions ---------------------------------------------------------


class _RelabelingAction(LinearAction):
    """An action by permutation matrices: every map and orbit block is one gather.

    Block j (of ``block`` consecutive flat entries) of a(g, x) is block
    ``sources[g, j]`` of x, or ``sources[rows[g], j]`` when ``rows`` is given,
    so that a table the group holds serves without a reordered copy.  The
    maps are orthogonal, so the adjoint of a(g, .) is a(g^-1, .).
    """

    def __init__(
        self,
        group: FiniteGroup,
        space: VectorSpace,
        sources: np.ndarray,
        name: str,
        block: int = 1,
        rows: Optional[np.ndarray] = None,
    ):
        # a closure over the tables, not a method: a map that held the
        # action would keep it, its tables and its block buffer alive in a
        # reference cycle until the garbage collector ran
        def relabel(g: int, x: np.ndarray) -> np.ndarray:
            index = sources[g] if rows is None else sources[rows[g]]
            return np.take(x.reshape(-1, block), index, axis=0, mode="clip").reshape(space.shape)

        super().__init__(group, space, relabel, adjoint_map=group.inverses, name=name)
        self._sources, self._rows, self._width = sources, rows, block
        self._index: Optional[np.ndarray] = None  # see _block
        self._pairs: Optional[np.ndarray] = None  # see _fixed_point_residual
        self._orbits: Optional[Tuple[np.ndarray, np.ndarray]] = None  # see _average

    def _block(self, gs, x: np.ndarray, out: np.ndarray) -> np.ndarray:
        if isinstance(gs, slice):
            index = self._sources[gs] if self._rows is None else self._sources[self._rows[gs]]
        else:
            # an element array's index rows, taken into a buffer kept on the
            # action, where indexing would allocate them for every block
            if self._index is None or len(self._index) < len(gs):
                self._index = np.empty((len(gs), self._sources.shape[1]), self._sources.dtype)
            index = np.take(
                self._sources,
                gs if self._rows is None else self._rows[gs],
                axis=0,
                out=self._index[: len(gs)],
                mode="clip",
            )
        # np.take along axis 0 gathers whole blocks, where fancy indexing of
        # the (-1, block) view runs about twice as slow; the indices are in
        # range by construction, and mode "raise" would gather into a copy
        # of ``out`` first
        np.take(
            x.reshape(-1, self._width),
            index,
            axis=0,
            out=out.reshape(len(out), -1, self._width),
            mode="clip",
        )
        return out

    def _fixed_point_residual(self, x: np.ndarray) -> float:
        """The residual over one element of each {g, g^-1} pair.

        a(g^-1, .) is the inverse of the permutation matrix a(g, .), and a
        permutation keeps norms, so ||a(g^-1, x) - x|| = ||x - a(g, x)||:
        the walk takes the elements g <= g^-1 (73 of S5's 120, 2,636 of S7's
        5,040).  A skipped g^-1 sums the same squares as g in another order,
        so the maximum may differ from a walk over every element in its last
        bits.
        """
        if self._pairs is None:
            self._pairs = np.flatnonzero(np.arange(self.group.order) <= self.group.inverses)
        return super()._fixed_point_residual(x, self._pairs)

    def _average(self, x: np.ndarray) -> np.ndarray:
        """F(x) at each coordinate: the mean of x over that coordinate's orbit.

        j -> sources[g, j] is an action of G on the blocks.  As g runs over
        G, sources[g, j] meets each block of j's orbit |Stab(j)| times, so
        the |G| images sum at block j to |G| / |orbit of j| times the orbit's
        sum.  Each orbit is labelled once by its least block,
        ``sources.min(axis=0)`` (``rows`` only reorders the rows), and entry
        c of a block by that label's entry c; then F(x) is one ``bincount``
        per real and imaginary part and one gather, O(dim) against the
        walk's O(|G| dim).  F(x) takes one value per orbit, so a(g, F(x)) ==
        F(x) exactly; it is summed in another order than the walk, so the
        two may differ in their last bits.
        """
        if self._orbits is None:
            least = self._sources.min(axis=0).astype(np.intp)
            labels = (least[:, None] * self._width + np.arange(self._width)).reshape(-1)
            self._orbits = labels, np.bincount(labels)[labels].astype(np.float64)
        labels, sizes = self._orbits
        flat = x.reshape(-1)
        if not self.space.complex:
            return (np.bincount(labels, flat)[labels] / sizes).reshape(self.space.shape)
        out = np.empty_like(flat)
        out.real = np.bincount(labels, flat.real)[labels] / sizes
        out.imag = np.bincount(labels, flat.imag)[labels] / sizes
        return out.reshape(self.space.shape)


def permutation_action(m: int, n: int, group: Optional[FiniteGroup] = None) -> LinearAction:
    """Permutation of m stacked n-dimensional blocks of a real vector.

    a(pi, x) routes block i to slot pi(i); gossip steps over pair swaps are
    the classic use.  The maps are orthogonal, so the adjoint of a(g, .) is
    a(g^-1, .).
    """
    if m < 1 or n < 1:
        raise ValueError(f"need m >= 1 and n >= 1, got m={m}, n={n}")
    if group is None:
        group = symmetric_group(m)
    if group.perms is None or group.perms.shape[1] != m:
        raise ValueError(f"group does not act on {m} blocks")
    return _RelabelingAction(
        group,
        VectorSpace((m * n,)),
        group.perms[group.inverses],
        f"block-permutation(m={m}, n={n})",
        block=n,
    )


def regular_action(group: FiniteGroup) -> LinearAction:
    """Left translation on functions over the group: a(h, v)_g = v_{h^-1 g}.

    Basis vectors move as a(h, e_g) = e_{h g}; the |G| translation maps are
    linearly independent, and the orbit of e_identity enumerates the group.
    Dense by nature: its orbit reads every translation row, so it reads the
    group's full table.
    """
    return _RelabelingAction(
        group, VectorSpace((group.order,)), group.table, "regular", rows=group.inverses
    )


class _FourierAction(LinearAction):
    """``dft_action``'s maps, with the residual, mixer and engine run of its Fourier form.

    The residual's power and the mixture's gathered multipliers are written
    into one N x N complex buffer kept on the action (``_buffer``): neither
    outlives its call, so they share it, and two calls of one action must
    not interleave, from one thread or from two.
    """

    def __init__(self, group: FiniteGroup, N: int):
        n = np.arange(N)
        # w^-j for j in Z_N; the column phases of D^-k are w^-(k n mod N),
        # reduced mod N so that no argument of exp exceeds 2 pi
        roots = np.exp(-2j * np.pi * n / N)
        self._scratch: Optional[np.ndarray] = None
        super().__init__(
            group,
            VectorSpace((N, N), complex=True),
            lambda k, X: np.roll(X, -k, axis=0) * roots[(k * n) % N],
            adjoint_map=group.inverses,
            name=f"dft(N={N})",
        )
        # gains[k, d] = 4 sin^2(pi (k d mod N) / N) / N; diagonals[d, m] is the
        # flat index of entry (m, (m - d) mod N); shifts[m, n] = (m - n) mod N
        self._gains = 4.0 * np.sin(np.pi * (np.outer(n, n) % N) / N) ** 2 / N
        self._diagonals = n * N + (n[None, :] - n[:, None]) % N
        self._shifts = (n[:, None] - n[None, :]) % N

    def _buffer(self) -> np.ndarray:
        if self._scratch is None:
            self._scratch = np.empty(self.space.shape, dtype=np.complex128)
        return self._scratch

    def _energy(self, Y: np.ndarray) -> np.ndarray:
        """E[d] = sum_m |Y[m, (m - d) mod N]|^2, the energy on each wrapped diagonal of Y."""
        Y = Y.view(np.float64).reshape(-1, 2)
        # the float64 halves of the buffer hold the squared real and imaginary
        # parts, then the power (their sum: bit for bit einsum("ij,ij->i"),
        # in a third of its time) and its diagonals
        halves = self._buffer().reshape(-1).view(np.float64).reshape(2, -1)
        power = np.multiply(Y[:, 0], Y[:, 0], out=halves[0])
        power += np.multiply(Y[:, 1], Y[:, 1], out=halves[1])
        diagonals = halves[1].reshape(self.space.shape)
        return np.take(power, self._diagonals, out=diagonals, mode="clip").sum(axis=1)

    def _residual(self, energy: np.ndarray) -> float:
        """sqrt(max_k (gains @ energy)[k]), the residual of a state with these diagonal energies.

        The product is einsum's loop, not BLAS: OpenBLAS's threaded gemv ran
        at N = 1024 in 0.2 ms in some fresh processes and 8 ms in others,
        einsum in 0.44-0.50 ms in all.
        """
        return math.sqrt(float(np.einsum("kd,d->k", self._gains, energy).max()))

    def _fixed_point_residual(self, X: np.ndarray) -> float:
        return self._residual(self._energy(fft(X, axis=0)))

    def _mixture(self, Y0: np.ndarray, P: np.ndarray) -> np.ndarray:
        """ifft(Y0 * P[(m - n) mod N], axis=0), the state whose transform is Y0
        times P on each wrapped diagonal."""
        # a take into the action's buffer, where indexing would gather into a
        # fresh array at about half the speed; the indices are in range, and
        # mode "raise" would gather into a copy of the buffer
        W = np.take(P, self._shifts, out=self._buffer(), mode="clip")
        W *= Y0
        return ifft(W, axis=0)

    def mixer(self, x) -> Tuple[Callable[[np.ndarray], np.ndarray], np.ndarray]:
        N = self.group.order
        Y0 = fft(self.space.validate(x), axis=0)

        def mix(p: np.ndarray) -> np.ndarray:
            return self._mixture(Y0, N * ifft(p)).reshape(-1)

        return mix, mix(np.full(N, 1.0 / N)).reshape(self.space.shape)

    def direct_run(self, x0: np.ndarray) -> "_FourierRun":
        return _FourierRun(self, x0)


class _FourierRun:
    """The direct side of a dft run, held as the N-vector M_t of its Fourier form.

    With Y = fft(X, axis=0), a step of weights w_i on shifts k_i multiplies
    Y[m, n] by S[d] = sum_i w_i w^(k_i d), d = (m - n) mod N, and S is N
    ifft of the weights scattered over Z_N.  So Y_t = Y_0 * M_t[d], with M_t
    the running product of the steps' S, and every quantity of the run is
    one of M_t.  E_0[d] is the energy on wrapped diagonal d of Y_0
    (``dft_action``):

    - the residual is ``sqrt(max_k (gains @ (|M_t|^2 E_0))[k])``;
    - the lift gap is ``sqrt(sum_d |P_t[d] - M_t[d]|^2 E_0[d] / N)`` with
      P_t = N ifft(p_t) of the lifted weights.  By Parseval that is the
      Frobenius norm of the difference of the two states, which bounds its
      largest entry.  M_t comes from the signal's rows and P_t from the
      lifted convolution, so it still compares two independent
      computations;
    - the state is ``ifft(Y_0 * M_t[d], axis=0)``, formed only when read,
      and x0 itself before the first step.

    The run holds Y_0, E_0 and M_t, and no N x N state.
    """

    def __init__(self, action: _FourierAction, X0: np.ndarray):
        N = action.group.order
        self._action, self._state = action, X0
        self._Y0 = fft(X0, axis=0)
        self._E0 = action._energy(self._Y0)
        self._M = np.ones(N, dtype=np.complex128)
        P = N * ifft(np.full(N, 1.0 / N))
        self.orbit_average = action._mixture(self._Y0, P).reshape(action.space.shape)

    def step(self, idx: np.ndarray, w: np.ndarray) -> None:
        N = self._M.size
        self._M *= N * ifft(np.bincount(idx, w, minlength=N))
        self._state = None

    def state(self) -> np.ndarray:
        if self._state is None:
            self._state = self._action._mixture(self._Y0, self._M).reshape(self._action.space.shape)
        return self._state

    def residual(self) -> float:
        M = self._M
        return self._action._residual((M.real**2 + M.imag**2) * self._E0)

    def lift_gap(self, p: np.ndarray) -> float:
        N = self._M.size
        diff = N * ifft(p) - self._M
        return math.sqrt(float((diff.real**2 + diff.imag**2) @ self._E0) / N)


def dft_action(N: int, group: Optional[FiniteGroup] = None) -> LinearAction:
    """Cyclic action on N x N complex matrices: a(k, X) = S^k X D^-k.

    S is the cyclic row shift (row j of S X is row j+1 of X) and
    D = diag(1, w, ..., w^{N-1}) with w = exp(2i pi / N).  Averaging the
    orbit of X = x 1^T leaves the discrete Fourier transform of x in the
    first row.

    Every map is diagonal in the Fourier basis Y = fft(X, axis=0): a(k, .)
    multiplies Y[m, n] by w^{k(m-n)}.  By Parseval, with
    E[d] = sum_m |Y[m, (m-d) mod N]|^2 the energy on the d-th wrapped
    diagonal,

        ||a(k, X) - X||^2 = (1/N) sum_d 4 sin^2(pi (k d mod N) / N) E[d],

    a sum of nonnegative terms in which the fixed diagonal d = 0 carries
    weight zero, so there is no cancellation near fixed points.  The action's
    residual evaluates it for all k at once in O(N^2 log N), against O(N^3)
    through the orbit.

    The same diagonal form gives the whole mixture of an orbit at once.
    With P = N ifft(p), so that P[j] = sum_k p_k w^{k j},

        sum_k p_k a(k, X) = ifft(fft(X, axis=0) * P[(m - n) mod N], axis=0),

    entry (m, n) of the product taking P at (m - n) mod N.  The action's
    mixing kernel keeps fft(X0, axis=0) and the index once per initial
    state, then costs one length-N ifft, one gather, one product and one
    column-wise ifft per call: O(N^2 log N) against O(N^3) and the N^3
    complex orbit matrix.

    Mixing steps compose the same way, so an engine run holds no N x N
    state: Y_t = Y_0 * M_t[(m - n) mod N] with M_t the running product of
    the steps' multipliers, and its residual is the one above with
    E_t = |M_t|^2 E_0 (``_FourierRun``).  Every formula depends only on the
    shift index k, so they hold for any group of order N passed in.
    """
    if N < 1:
        raise ValueError(f"N must be >= 1, got {N}")
    if group is None:
        group = cyclic_group(N)
    if group.order != N:
        raise ValueError("group order must match N")
    return _FourierAction(group, N)


def conjugation_action(
    group: FiniteGroup, unitaries, *, atol: float = UNITARY_ATOL
) -> LinearAction:
    """Unitary conjugation a(g, X) = U_g X U_g^dagger on d x d complex matrices.

    ``unitaries`` maps each element to a d x d unitary forming a projective
    homomorphism: U_g U_h = phase * U_{g*h} with |phase| = 1.  Phases cancel
    under conjugation, so the action axioms hold exactly on the quotient.
    Both properties are checked, the second over all |G|^2 pairs; subsystem
    permutations, a homomorphism by construction, go through
    ``subsystem_permutation_action`` instead.
    """
    U = np.asarray(unitaries, dtype=np.complex128)
    if U.ndim != 3 or U.shape[0] != group.order or U.shape[1] != U.shape[2]:
        raise ValueError(
            f"expected {group.order} stacked square matrices, got shape {U.shape}"
        )
    d = U.shape[1]
    eye = np.eye(d)
    for g in range(group.order):
        defect = np.abs(U[g].conj().T @ U[g] - eye).max()
        if defect > atol:
            raise ValueError(
                f"matrix for element {g} is not unitary (defect {defect:.3e})"
            )
    for g in range(group.order):
        products = group.rows([g])[0]
        for h in range(group.order):
            prod = U[g] @ U[h]
            target = U[products[h]]
            phase = np.trace(target.conj().T @ prod) / d
            if abs(abs(phase) - 1.0) > 1e-8 or np.abs(prod - phase * target).max() > atol:
                raise ValueError(
                    f"unitaries do not form a projective homomorphism at ({g},{h})"
                )

    return LinearAction(
        group,
        VectorSpace((d, d), complex=True),
        lambda g, X: U[g] @ X @ U[g].conj().T,
        adjoint_map=group.inverses,
        name=f"conjugation(d={d})",
    )


def axis_permutation_action(
    m: int, size: int, group: Optional[FiniteGroup] = None
) -> LinearAction:
    """Permutation of the m axes of a real tensor with equal axis lengths.

    Acting on a joint probability tensor, a(pi, P)[i_0..i_{m-1}] =
    P[i_{pi(0)}, ..., i_{pi(m-1)}]; the orbit average is exchangeable.
    """
    if m < 1 or size < 1:
        raise ValueError(f"need m >= 1 and size >= 1, got m={m}, size={size}")
    if group is None:
        group = symmetric_group(m)
    if group.perms is None or group.perms.shape[1] != m:
        raise ValueError(f"group does not act on {m} axes")
    # entry i of a(pi, P) reads the flat index of i's digits taken in the order pi
    digits = np.indices((size,) * m).reshape(m, -1)
    sources = size ** np.arange(m - 1, -1, -1) @ digits[group.perms]
    return _RelabelingAction(
        group, VectorSpace((size,) * m), sources, f"axis-permutation(m={m}, size={size})"
    )


def _subsystem_sources(group: FiniteGroup, local_dim: int) -> np.ndarray:
    """Basis sources of the subsystem permutations, one int64 row per element.

    ``sources[g, j]`` is the basis index that V_g sends to j, where V_pi
    |i_1 .. i_m> = |j_1 .. j_m> with j_k = i_{pi^-1(k)}.  On the digit tensor
    of j, one axis of length ``local_dim`` per subsystem, the source is
    i_k = j_{pi(k)}: the axis permutation of ``axis_permutation_action``, so
    its orbit of the flat-index labelling lists every source.
    """
    if group.perms is None:
        raise ValueError("group does not carry permutation data")
    m = group.perms.shape[1]
    labels = np.arange(local_dim**m, dtype=np.float64).reshape((local_dim,) * m)
    return axis_permutation_action(m, local_dim, group).orbit_matrix(labels).astype(np.int64)


def subsystem_permutation_unitaries(group: FiniteGroup, local_dim: int) -> np.ndarray:
    """Stacked permutation unitaries rearranging m tensor factors of C^d.

    V_pi |i_1 .. i_m> = |j_1 .. j_m> with j_k = i_{pi^-1(k)}; the family is a
    genuine homomorphism with respect to the group table, and conjugation by
    V_pi permutes local operators: V (A_1 x .. x A_m) V^dag = A_{pi^-1(1)} x ...
    """
    sources = _subsystem_sources(group, local_dim)
    dim = sources.shape[1]
    U = np.zeros((group.order, dim, dim), dtype=np.complex128)
    U[np.arange(group.order)[:, None], np.arange(dim), sources] = 1.0
    return U


def subsystem_permutation_action(group: FiniteGroup, local_dim: int) -> LinearAction:
    """Conjugation by the subsystem permutation unitaries, as an index gather.

    The same maps as ``conjugation_action(group,
    subsystem_permutation_unitaries(group, local_dim))``, without forming a
    unitary.  V_g is a permutation matrix, so V_g X V_g^dag only relabels
    entries: (V_g X V_g^dag)[a, b] = X[src_g[a], src_g[b]], with src_g the
    basis sources of V_g, and the flat sources src_g x src_g form the
    gather table.  The family is a homomorphism by construction, so no pair
    check is run, as ``symmetric_group(validate=False)`` runs none.  The
    name matches the conjugation it replaces.
    """
    src = _subsystem_sources(group, local_dim)
    dim = src.shape[1]
    gather = (src[:, :, None] * dim + src[:, None, :]).reshape(group.order, dim * dim)
    return _RelabelingAction(
        group, VectorSpace((dim, dim), complex=True), gather, f"conjugation(d={dim})"
    )


def pauli_matrices() -> np.ndarray:
    """The 2x2 matrices I, X, Y, Z, stacked in that order."""
    return np.array(
        [
            [[1, 0], [0, 1]],
            [[0, 1], [1, 0]],
            [[0, -1j], [1j, 0]],
            [[1, 0], [0, -1]],
        ],
        dtype=np.complex128,
    )


def pauli_quotient_group() -> FiniteGroup:
    """Single-qubit Pauli group modulo phases: the Klein four-group {I, X, Y, Z}."""
    table = [
        [0, 1, 2, 3],
        [1, 0, 3, 2],
        [2, 3, 0, 1],
        [3, 2, 1, 0],
    ]
    return group_from_table(table, name="pauli-1q", element_names=["I", "X", "Y", "Z"])


def pauli_unitaries() -> Tuple[FiniteGroup, np.ndarray]:
    """(group, unitaries) pair for conjugation by single-qubit Paulis."""
    return pauli_quotient_group(), pauli_matrices()


# -- mixing, averaging, and diagnostics ---------------------------------------


def step(
    action: LinearAction, idx: np.ndarray, w: np.ndarray, x, out: Optional[np.ndarray] = None
) -> np.ndarray:
    """One mixing step x' = sum_k w[k] a(idx[k], x) over a Signal row, skipping its padding.

    Written into ``out`` when given: an array of the validated state's shape
    and dtype that does not overlap x (the engine alternates two).
    """
    x = action.space.validate(x)
    if out is None:
        out = np.empty_like(x)
    elif out.shape != x.shape or out.dtype != x.dtype:
        raise ValueError(f"out must be a {x.dtype} array of shape {x.shape}")
    elif np.may_share_memory(out, x):
        raise ValueError("out must not overlap the state")
    return action._step(idx, w, x, out)


def symmetrizer(action: LinearAction, x) -> np.ndarray:
    """Orbit average F(x) = (1/|G|) sum_g a(g, x); idempotent by construction.

    A permutation action (block, axis, subsystem and regular) averages x
    over each coordinate orbit, labelled once from its source table, in
    O(dim) per call; the others sum the orbit block by block (see
    ``LinearAction.orbit_blocks``).
    """
    return action._average(action.space.validate(x))


def fixed_point_residual(action: LinearAction, x) -> float:
    """max_g ||a(g, x) - x||_2; zero exactly on common fixed points.

    Evaluated block by block (see ``LinearAction.orbit_blocks``), one array
    operation per block instead of one call per element; a permutation
    action walks one element of each {g, g^-1} pair, whose distances are
    equal, and the DFT action uses its Fourier-diagonal closed form.
    """
    return action._fixed_point_residual(action.space.validate(x))


def inner(y, x) -> complex:
    """Inner product <y, x>, conjugate-linear in y; Frobenius on matrices."""
    return np.vdot(y, x)


def conserved_value(action: LinearAction, z, x, *, atol: float = FIXED_POINT_ATOL):
    """<z, x> for a common fixed point z; invariant under every mixing step.

    Requires the action to declare its adjoint structure and z to satisfy
    a(g, z) = z for all g (checked to ``atol``).
    """
    if action.adjoint_map is None:
        raise ValueError("action does not declare an adjoint map")
    z = action.space.validate(z)
    residual = fixed_point_residual(action, z)
    if residual > atol:
        raise ValueError(
            f"z is not a common fixed point (residual {residual:.3e} > {atol:g})"
        )
    value = inner(z, x)
    return value if action.space.complex else float(value.real)


@dataclass(frozen=True)
class ProjectionCheck:
    """Residuals of F^2 = F and F = F^dagger for the orbit average."""

    idempotency_residual: float
    self_adjoint_residual: float
    is_projection: bool


def is_projection(action: LinearAction, *, atol: float = FIXED_POINT_ATOL) -> ProjectionCheck:
    """Materialize the orbit average and test idempotency and self-adjointness.

    Idempotency holds for any action; self-adjointness needs the adjoint maps
    to hit the same family (e.g. unitary actions), making F an orthogonal
    projection.
    """
    dim = action.space.dim
    basis = np.eye(dim, dtype=np.complex128 if action.space.complex else np.float64)
    # column j is F(e_j), summed through the orbit blocks: no per-element
    # dim x dim matrices
    F = np.empty_like(basis)
    for j in range(dim):
        F[:, j] = symmetrizer(action, basis[j].reshape(action.space.shape)).ravel()
    idem = float(np.abs(F @ F - F).max())
    adj = float(np.abs(F - F.conj().T).max())
    return ProjectionCheck(idem, adj, idem <= atol and adj <= atol)


def restricted_operator_bound(action: LinearAction, x0) -> float:
    """Largest operator norm of any a(g, .) restricted to span{a(g, x0)}.

    A mixing run started at x0 never leaves that span, so one-step moves and
    residual-vs-distance comparisons along the run carry constants like
    (1 + b) with b this bound.  Cheap because the span has dimension at most
    |G|.
    """
    stacked = action.orbit_matrix(x0)
    # orthonormal basis of the orbit span
    q, r = np.linalg.qr(stacked.conj().T)
    keep = np.abs(np.diag(r)) > 1e-12 * max(1.0, np.abs(r).max())
    basis = q[:, keep]
    worst = 0.0
    for g in range(action.group.order):
        images = np.array(
            [action.apply(g, v.reshape(action.space.shape)).ravel() for v in basis.T]
        ).T
        coeffs = basis.conj().T @ images
        worst = max(worst, float(np.linalg.norm(coeffs, ord=2)))
    return worst


# -- state serialization -------------------------------------------------------


class Base64State(dict):
    """encode_state's binary form.  Its "base64" text comes from b64encode, so
    a JSON writer may copy it unescaped."""


def encode_state(x: np.ndarray) -> dict:
    """JSON-ready form of an array, exact either way.

    A float64 or complex128 array with more than INLINE_ARRAY_MAX entries is
    the Base64State ``{"shape", "dtype": "<f8" | "<c16", "base64"}`` over its
    raw little-endian C-order bytes.  Anything else is ``{"shape", "complex",
    "data"}`` with nested lists, complex entries as [re, im] pairs.
    """
    arr = np.asarray(x)
    dtype = _BINARY_DTYPES.get((arr.dtype.kind, arr.dtype.itemsize))
    if dtype is not None and arr.size > INLINE_ARRAY_MAX:
        raw = arr.astype(dtype, copy=False).tobytes(order="C")
        return Base64State(
            shape=list(arr.shape), dtype=dtype, base64=base64.b64encode(raw).decode("ascii")
        )
    return {
        "shape": list(arr.shape),
        "complex": bool(np.iscomplexobj(arr)),
        "data": (
            np.stack([arr.real, arr.imag], axis=-1).tolist()
            if np.iscomplexobj(arr)
            else arr.tolist()
        ),
    }


def _payload_shape(payload: dict) -> Tuple[int, ...]:
    shape = payload["shape"]
    if not isinstance(shape, (list, tuple)) or not all(
        isinstance(n, int) and not isinstance(n, bool) and n >= 0 for n in shape
    ):
        raise ValueError(f"state shape must be a list of nonnegative integers, got {shape!r}")
    return tuple(shape)


def _decode_binary(payload: dict, shape: Tuple[int, ...]) -> np.ndarray:
    dtype = payload["dtype"]
    if dtype not in _BINARY_DTYPES.values():
        raise ValueError(
            f"state dtype must be one of {sorted(_BINARY_DTYPES.values())}, got {dtype!r}"
        )
    dtype = np.dtype(dtype)
    try:
        raw = base64.b64decode(payload["base64"], validate=True)
    except (binascii.Error, TypeError) as exc:
        raise ValueError(f"state base64 is malformed: {exc}") from exc
    expected = math.prod(shape) * dtype.itemsize
    if len(raw) != expected:
        raise ValueError(f"state base64 holds {len(raw)} bytes, expected {expected}")
    # astype copies out of the read-only bytes buffer into native byte order
    return np.frombuffer(raw, dtype=dtype).reshape(shape).astype(dtype.newbyteorder("="))


def _decode_entries(data, complex_entries: bool, shape: Tuple[int, ...]) -> np.ndarray:
    arr = np.asarray(data, dtype=np.float64)
    if arr.size == 0 and math.prod(shape) == 0:
        # nested empty lists do not carry the trailing axes (or [re, im] pairs)
        return np.zeros(shape, dtype=np.complex128 if complex_entries else np.float64)
    if complex_entries:
        if arr.shape[-1:] != (2,):
            raise ValueError("complex state entries must be [re, im] pairs")
        return np.ascontiguousarray(arr).view(np.complex128)[..., 0]
    return arr


def decode_state(payload: dict) -> np.ndarray:
    """Inverse of encode_state for both forms, with shape verification."""
    if not isinstance(payload, dict):
        raise ValueError("state payload must be a JSON object")
    binary = "base64" in payload
    keys = {"shape", "dtype", "base64"} if binary else {"shape", "complex", "data"}
    missing = keys - set(payload)
    if missing:
        raise ValueError(f"state payload missing keys: {sorted(missing)}")
    shape = _payload_shape(payload)
    if binary:
        return _decode_binary(payload, shape)
    arr = _decode_entries(payload["data"], payload["complex"], shape)
    if arr.shape != shape:
        raise ValueError(f"state data has shape {arr.shape}, expected {shape}")
    return arr


def save_state(path, x) -> None:
    with open(path, "w") as fh:
        json.dump(encode_state(x), fh)


def load_state(path) -> np.ndarray:
    with open(path) as fh:
        return decode_state(json.load(fh))
