"""Index bookkeeping for the 2-form and 3-form bases on R^n.

Two-forms are enumerated as lexicographic index pairs (i, j) with i < j,
three-forms as lexicographic triples (i, j, k) with i < j < k.  The pair basis
carries position and sign lookup tables so that antisymmetric index access
reconstructs a component for either index order.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from functools import lru_cache, wraps
from itertools import combinations

import numpy as np


@dataclass(frozen=True)
class PairBasis:
    """Lexicographic basis of index pairs i < j; N = n(n-1)/2 elements."""

    n: int
    pairs: tuple[tuple[int, int], ...]
    pos: np.ndarray   # (n, n) pair -> basis position, -1 on the diagonal
    sign: np.ndarray  # (n, n) +1 for i < j, -1 for i > j, 0 on the diagonal
    rows: np.ndarray  # (N,) first index i of each pair
    cols: np.ndarray  # (N,) second index j of each pair

    @property
    def size(self) -> int:
        return len(self.pairs)


@dataclass(frozen=True)
class TripleBasis:
    """Lexicographic basis of index triples i < j < k."""

    n: int
    triples: tuple[tuple[int, int, int], ...]
    ijk: np.ndarray  # (3, T) the indices i, j, k of each triple

    @property
    def size(self) -> int:
        return len(self.triples)


def read_only_cache(build):
    """``lru_cache(maxsize=None)`` for tables that every caller shares: each ndarray that
    ``build`` returns, alone or as a member of a tuple, is made read-only once."""
    def frozen(*args):
        out = build(*args)
        for arr in out if isinstance(out, tuple) else (out,):
            if isinstance(arr, np.ndarray):
                arr.flags.writeable = False
        return out
    return lru_cache(maxsize=None)(wraps(build)(frozen))


#: bytes of the largest (N, N) float64 pair matrix a dimension read from input may size:
#: n <= 16 (N = 120).  At n = 16 `weylbench model sphere:16` takes 0.34 s and 39 MB peak RSS
#: and `identities --n 16 --trials 1` 0.47 s and 141 MB; a chart assembly grows about as n^6
#: (218 MB at `chart perturbed:12`).  The tests and docs read n <= 10.  2 vCPUs, numpy 2.4.6.
MAX_PAIR_MATRIX_BYTES = 2 ** 17


def check_integer(value, what: str, low: int) -> int:
    """int(value) of an int or numpy integer (not a bool) >= low, else a ValueError naming
    ``what``: the package's one integer guard, so no size computed from a numpy integer wraps."""
    if isinstance(value, bool) or not isinstance(value, (int, np.integer)):
        raise ValueError(f"{what} must be an integer, got {value!r}")
    value = int(value)
    if value < low:
        raise ValueError(f"{what} must be >= {low}")
    return value


def parse_integer(text: str, what: str, low: int) -> int:
    """``check_integer`` of the integer a spec-string field spells; any other text is refused
    by a ValueError naming ``what``."""
    try:
        value = int(text)
    except ValueError:
        raise ValueError(f"{what} must be an integer, got {text!r}") from None
    return check_integer(value, what, low)


def parse_float(text: str, what: str) -> float:
    """The float a spec-string field spells; any other text is refused by a ValueError
    naming ``what``."""
    try:
        return float(text)
    except ValueError:
        raise ValueError(f"{what} must be a number, got {text!r}") from None


def check_pair_dimension(n: int, what: str, low: int) -> int:
    """``check_integer(n, low)`` of a dimension read from input, refused by a ValueError naming
    ``what`` unless its (N, N) float64 pair matrix also fits MAX_PAIR_MATRIX_BYTES."""
    n = check_integer(n, f"{what}: dimension n", low)
    N = n * (n - 1) // 2
    if 8 * N * N > MAX_PAIR_MATRIX_BYTES:
        raise ValueError(f"{what}: dimension n = {n} needs {N} x {N} pair matrices of "
                         f"{8 * N * N} bytes, beyond the {MAX_PAIR_MATRIX_BYTES}-byte budget")
    return n


@lru_cache(maxsize=None)
def pair_basis(n: int) -> PairBasis:
    n = check_integer(n, "dimension", 2)
    pairs = tuple((i, j) for i, j in combinations(range(n), 2))
    pos = np.full((n, n), -1, dtype=np.int64)
    sign = np.zeros((n, n))
    for a, (i, j) in enumerate(pairs):
        pos[i, j] = pos[j, i] = a
        sign[i, j] = 1.0
        sign[j, i] = -1.0
    rows, cols = np.array(pairs).T
    for arr in (pos, sign, rows, cols):
        arr.flags.writeable = False
    return PairBasis(n, pairs, pos, sign, rows, cols)


@lru_cache(maxsize=None)
def triple_basis(n: int) -> TripleBasis:
    n = check_integer(n, "dimension", 2)
    triples = tuple(combinations(range(n), 3))  # none at n = 2
    ijk = np.array(triples, dtype=np.int64).reshape(-1, 3).T
    ijk.flags.writeable = False
    return TripleBasis(n, triples, ijk)


@read_only_cache
def disjoint_pair_mask(n: int) -> np.ndarray:
    """Boolean (N, N) mask of pair-basis entries whose four indices are distinct."""
    pb = pair_basis(n)
    mask = np.zeros((pb.size, pb.size), dtype=bool)
    for a, (i, j) in enumerate(pb.pairs):
        for b, (k, l) in enumerate(pb.pairs):
            mask[a, b] = len({i, j, k, l}) == 4
    return mask


# The batched expanders return C-order stacks.  Fancy indexing behind a leading
# ``...`` would lay the batch axis out innermost, and a sum over the trailing
# axes of such a stack (or of an elementwise product of it) then adds across
# the batch in numpy's inner loop, so its bits would depend on the batch size.
# The expanders therefore gather flat C-order positions with ``np.take``, which
# writes its output in C order with no second copy.


def _take_trailing(x: np.ndarray, k: int, flat: np.ndarray) -> np.ndarray:
    """Entries of x's trailing k axes at the C-order positions ``flat``, per leading index
    (none for an empty batch)."""
    lead = x.ndim - k
    return x.reshape(x.shape[:lead] + (math.prod(x.shape[lead:]),)).take(flat, axis=-1)


def _take_times(x: np.ndarray, k: int, flat: np.ndarray, factor: np.ndarray) -> np.ndarray:
    """``_take_trailing(x, k, flat) * factor`` in the fresh gather's own buffer where the factor
    has its dtype and broadcasts to its shape (a trailing-shape factor without an np.broadcast),
    so no second stack is held; the operands keep their order: the out-of-place product's bits."""
    t = _take_trailing(x, k, flat)
    fits = factor.dtype == t.dtype and (t.shape[t.ndim - factor.ndim:] == factor.shape
                                        or np.broadcast(t, factor).shape == t.shape)
    return np.multiply(t, factor, out=t if fits else None)


#: entries one batched pass may hold per intermediate; ``_chunks`` plans every pass under it:
#: the suite's chunks (n^5 entries a trial) and draw groups (3 n^5), the tables ``_in_passes``
#: fills (expanding kernels, chart stages) and the eigenvalue audit's draws.  Against two trials
#: a chunk at every n, suite time per trial falls from 0.8 to 0.15 ms at n = 4 (3 ms at n = 8
#: either way), and `weylbench identities --seed 4` from 10.8-11.3 to 6.7-6.8 s, peaking at 41.4
#: MB, not 41.2.  2**17 is a little faster but peaks 1.8-2.2 MB higher (40.1 MB for `identities
#: --n 4 --n 6 --trials 10`, 38.3 at 2**16, 37.6 at two trials a chunk).  2 vCPUs, numpy 2.4.6.
CHUNK_ENTRIES = 2 ** 16


def _chunks(total: int, entries: int):
    """(first, count) of the fewest near-equal chunks of ``total`` objects whose
    ``entries`` each add up to at most CHUNK_ENTRIES (one object a chunk at the least)."""
    count = -(-total // max(1, CHUNK_ENTRIES // entries))
    for i in range(count):
        first = total * i // count
        yield first, total * (i + 1) // count - first


def _in_passes(kernel, total: int, entries: int):
    """kernel(rows) over a row slice of ``total`` independent objects, for a kernel that holds
    ``entries`` intermediate entries per object, in the passes ``_chunks`` plans, so no pass
    holds more than CHUNK_ENTRIES of them (one object at the least).  One pass is one call,
    kernel(slice(0, total)); more passes fill one table per output, whether the kernel returns
    an array or a tuple of them.  The objects are independent, so the bits are the one call's."""
    passes = list(_chunks(total, entries))
    if len(passes) <= 1:
        return kernel(slice(0, total))
    tables = None
    for first, count in passes:
        rows = slice(first, first + count)
        out = kernel(rows)
        parts = out if isinstance(out, tuple) else (out,)
        tables = tables or tuple(np.empty((total,) + p.shape[1:], p.dtype) for p in parts)
        for table, part in zip(tables, parts):
            table[rows] = part
    return tables if isinstance(out, tuple) else tables[0]


@read_only_cache
def _padded_positions(n: int) -> tuple[np.ndarray, np.ndarray]:
    """(n, n, n, n) flat positions of T_ijkl in an (N + 1, N + 1) pair matrix whose
    last row and column are the zero pad (for i = j or k = l), and the signs
    sign[i, j] sign[k, l]."""
    pb = pair_basis(n)
    pos = np.where(pb.pos >= 0, pb.pos, pb.size)
    flat = pos[:, :, None, None] * (pb.size + 1) + pos[None, None, :, :]
    sign = pb.sign[:, :, None, None] * pb.sign[None, None, :, :]
    return flat, sign


@read_only_cache
def _pair_positions(n: int) -> np.ndarray:
    """(N, N) flat positions of T[i, j, k, l] in an (n, n, n, n) block, (ij, kl) pairs."""
    pb = pair_basis(n)
    pair = pb.rows * n + pb.cols
    return pair[:, None] * (n * n) + pair[None, :]


def _triple_pair_grid(n: int) -> tuple[np.ndarray, ...]:
    """(T, 1) columns i, j, k of the triples i < j < k and (1, N) rows m, l of the pairs m < l."""
    pb = pair_basis(n)
    return (*triple_basis(n).ijk[:, :, None], pb.rows[None, :], pb.cols[None, :])


def _padded(mat: np.ndarray) -> np.ndarray:
    """(..., N + 1, N + 1) copies of (..., N, N) pair matrices, the last row and column zero."""
    N = np.shape(mat)[-1]
    padded = np.zeros(np.shape(mat)[:-2] + (N + 1, N + 1))
    padded[..., :-1, :-1] = mat
    return padded


def pair_matrix_to_four_tensor(n: int, mat: np.ndarray) -> np.ndarray:
    """Expand (..., N, N) pair-basis matrices into full (..., n, n, n, n) tensors."""
    return _take_times(_padded(mat), 2, *_padded_positions(n))


@read_only_cache
def _cyclic_pair_positions(n: int) -> tuple[np.ndarray, np.ndarray]:
    """T_kijl and T_jkil, the cyclic partners of T_ijkl in b(T), at the pair entries
    (ij, kl), i < j and k < l: (2, N, N) ``_padded_positions`` entries."""
    i, j = pair_basis(n).rows[:, None], pair_basis(n).cols[:, None]
    terms = ((i.T, i, j, j.T), (j, i.T, i, j.T))  # (k, i, j, l) and (j, k, i, l)
    return tuple(np.stack([a[t] for t in terms]) for a in _padded_positions(n))


@read_only_cache
def _ricci_positions(n: int) -> tuple[np.ndarray, np.ndarray]:
    """The Ricci-trace entries T_ipjp: (n, n, n) ``_padded_positions`` entries over (p, i, j)."""
    p, i, j = np.ix_(*(np.arange(n),) * 3)
    return tuple(a[i, p, j, p] for a in _padded_positions(n))


def bianchi_image(n: int, mat: np.ndarray) -> np.ndarray:
    """Pair matrices of the cyclic averages b(T)_ijkl = (T_ijkl + T_kijl + T_jkil)/3 of
    (..., N, N) pair matrices: the one first-Bianchi kernel.

    For symmetric T the first-Bianchi projection is T - symmetrized(b(T)).  Only
    the two cyclic partners of each pair entry are gathered and added in that order,
    so the bits are those of the cyclic average of the four-index expansion read back
    at the pair entries (the route ``tests/reference.py`` keeps as its oracle).
    """
    t = _take_times(_padded(mat), 2, *_cyclic_pair_positions(n))
    return (mat + t[..., 0, :, :] + t[..., 1, :, :]) / 3.0


@read_only_cache
def _pair_slot_positions(n: int) -> tuple[np.ndarray, np.ndarray]:
    """``_padded_positions`` in slot order: (n^2, n^2) at [(i,k),(j,l)] for T_ijkl."""
    return tuple(np.swapaxes(a, 1, 2).reshape(n * n, n * n) for a in _padded_positions(n))


def pair_slots(n: int, mat: np.ndarray) -> np.ndarray:
    """(..., n^2, n^2) slot matrices s[(i,k),(j,l)] = T_ijkl of (..., N, N) pair matrices,
    with the bits of the four-index expansion's entries."""
    return _take_times(_padded(mat), 2, *_pair_slot_positions(n))


def pair_ricci(n: int, mat: np.ndarray) -> np.ndarray:
    """(..., n, n) Ricci traces rc_ij = sum_p T_ipjp of (..., N, N) pair matrices; the entries
    are summed over p as einsum sums the four-index expansion, so the bits are its trace's."""
    return np.einsum('...pij->...ij', _take_times(_padded(mat), 2, *_ricci_positions(n)))


@read_only_cache
def _pair_generators(n: int) -> np.ndarray:
    """(N, N, N) matrices A_I of w -> X w + w X^T on 2-forms w, X = e_j e_i^T - e_i e_j^T for
    the pair I = (i, j): (A_I w)_ml = [m = j] w_il - [m = i] w_jl + [l = j] w_mi - [l = i] w_mj,
    entries in {-1, 0, 1} (no two terms share one; w_aa = 0 drops two at (m, l) = I)."""
    pb = pair_basis(n)
    i, j, m, l = pb.rows[:, None], pb.cols[:, None], pb.rows[None], pb.cols[None]
    A = np.zeros((pb.size,) * 3)
    for hit, a, b, s in ((m == j, i, l, 1.0), (m == i, j, l, -1.0),
                         (l == j, m, i, 1.0), (l == i, m, j, -1.0)):
        hit &= a != b
        a, b = np.broadcast_to(a, hit.shape)[hit], np.broadcast_to(b, hit.shape)[hit]
        A[np.nonzero(hit) + (pb.pos[a, b],)] = s * pb.sign[a, b]
    return A


@read_only_cache
def _second_bianchi_positions(n: int) -> tuple[np.ndarray, np.ndarray]:
    """(3, T, N) flat positions of D_i,jkml, D_k,ijml and D_j,kiml in an (n, N, N) stack of
    derivative pair matrices at i < j < k, m < l (the terms of ``second_bianchi_full`` in
    its order), and the (3, T, 1) signs the pair expansion gives them (those of their
    first pairs; m < l has sign +1)."""
    pb = pair_basis(n)
    i, j, k, m, l = _triple_pair_grid(n)
    flat = np.stack([(d * pb.size + pb.pos[a, b]) * pb.size + pb.pos[m, l]
                     for d, a, b in ((i, j, k), (k, i, j), (j, k, i))])
    sign = np.stack([pb.sign[a, b] for a, b in ((j, k), (i, j), (k, i))])
    return flat, sign


@read_only_cache
def _circ_prime_positions(n: int) -> tuple[np.ndarray, np.ndarray]:
    """(6, T, N) flat positions, in (N + 1, n) pair components (A_abc at pos[a, b] n + c, a < b)
    whose last row is the zero pad, of the six terms of (A o' g)_ijkml at i < j < k, m < l in
    ``circ_prime``'s order, the pad where the metric factor vanishes; and their pairs' signs."""
    pb, (i, j, k, m, l) = pair_basis(n), _triple_pair_grid(n)
    terms = ((l, k, i, j, m), (l, i, j, k, m), (l, j, k, i, m),
             (m, k, j, i, l), (m, i, k, j, l), (m, j, i, k, l))
    flat = [np.where(x == y, pb.pos[a, b] * n + c, pb.size * n) for x, y, a, b, c in terms]
    return np.stack(flat), np.stack([pb.sign[a, b] for _, _, a, b, _ in terms])


@read_only_cache
def _divergence_positions(n: int) -> tuple[np.ndarray, np.ndarray]:
    """(n, N, n) flat positions of T_m,abcm over (m, a < b, c) in an (n, N + 1, N + 1) stack
    of padded pair matrices (``_padded``), and the signs ``_padded_positions`` gives."""
    pb = pair_basis(n)
    flat, sign = (np.moveaxis(x, -1, 0)[:, pb.rows, pb.cols] for x in _padded_positions(n))
    return flat + (np.arange(n) * (pb.size + 1) ** 2)[:, None, None], sign


def pair_divergence(n: int, mat: np.ndarray) -> np.ndarray:
    """(..., N, n) pair components (a < b) of the divergences sum_m T_m,abcm of (..., n, N, N)
    derivative pair matrices, with the bits of einsum('...mabcm->...abc') on their five-index
    expansions (the entries are summed over m as that einsum sums them)."""
    flat, sign = _divergence_positions(n)
    t = _take_trailing(_padded(mat), 3, flat)
    t *= sign
    return np.einsum('...mpc->...pc', t)


def four_tensor_to_pair_matrix(n: int, four: np.ndarray) -> np.ndarray:
    """Read the (..., N, N) pair-basis matrices off full (..., n, n, n, n) tensors."""
    return _take_trailing(four, 4, _pair_positions(n))


def full3_to_pair_form(n: int, full: np.ndarray) -> np.ndarray:
    """(..., n, n, n) tensors antisymmetric in their first two slots -> (..., N, n) components."""
    pb = pair_basis(n)
    flat = (pb.rows * n + pb.cols)[:, None] * n + np.arange(n)[None, :]
    return _take_trailing(full, 3, flat)


def pair_form_to_full3(n: int, comps: np.ndarray) -> np.ndarray:
    """(N, n) pair-indexed components -> full (n, n, n) antisymmetric tensor."""
    pb = pair_basis(n)
    padded = np.zeros((pb.size + 1, n))
    padded[:-1] = comps
    pos = np.where(pb.pos >= 0, pb.pos, pb.size)
    return padded[pos] * pb.sign[:, :, None]
