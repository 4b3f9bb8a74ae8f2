"""Randomized identity suite over the curvature algebra.

The dimensions run in turn in one process, a repeated n once, each folding its families
straight into the caller's report.  Each n draws from its own stream ``default_rng([seed, n])``,
trial after trial: first every identity trial, then the sharp-cubic trials, then the u-tensor
trials, each with the samplers' own draws (``sampling.uniform`` in the order the per-trial
samplers call it), so the sample stream is the one those samplers give, bit for bit.

Trials run in chunks sized per dimension by ``basis.CHUNK_ENTRIES`` (64 trials at n = 4
down to 2 at n = 8; its comment says why).  A chunk's draws are written trial by trial into
(B, ...) arrays, the derivative draws mapped to pair matrices group by group as they are drawn
(``curvature_derivative_pairs_from_uniform``), so no chunk holds a (B, n^5) stack.  Each
family is evaluated once on the (B, ...) stacks with the raw kernels of ``algebra`` (pair
matrices, slot matrices through ``curvature_action``, (triple, pair) components; no
four-index tensor is formed), each table formed once, the product families' tables freed
before the second-Bianchi families form theirs, and the chunk's residuals folded into the
report in one pass (``SuiteReport.fold``).  The sharp-cubic and u-tensor samples are one
Weyl stream, drawn in one set of chunks, each split where the u-tensor samples begin.
The typed containers' checks run once per stack, each object at its own scale and with the
containers' messages: symmetry and first Bianchi of R and its parts (W, the e/s parts,
k o g, A o g) in one (6, B, ...) stack and of each tail chunk's samples, and trace-free W
before the sectional split and the u-tensor.  The residuals do not depend on the chunk sizes
(the batched basis expansions return C-order stacks, so every per-trial sum runs in one
order), and the report keeps the (n, trial index) of every worst residual, so
``trials = index + 1`` with the same seed replays it.
"""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np

from .algebra import (
    check_trace_free,
    circ_prime_pairs,
    cube_trace,
    cubic_parts,
    curvature_action,
    kn_matrix,
    pq_pairs,
    pure_cubic_parts,
    quadratic_form,
    second_bianchi_pairs,
    sectional_sums,
    sharp_slots,
    u_tensor_contractions,
    weyl_parts,
)
from .basis import (
    _chunks,
    bianchi_image,
    check_integer,
    check_pair_dimension,
    pair_basis,
    pair_divergence,
    pair_ricci,
    pair_slots,
)
from .sampling import (
    curvature_derivative_pairs_from_uniform,
    curvature_from_uniform,
    pure_from_uniform,
    random_weyl_batch,
    two_form_one_form_from_uniform,
    uniform,
)
from .tensors import (
    EPS_ALG,
    check_bianchi,
    check_symmetric,
    frobenius,
    max_abs,
    running_max,
    symmetrized,
)


@dataclass
class SuiteReport:
    seed: int
    trials: int
    dimensions: tuple[int, ...]
    tolerance: float
    residuals: dict[str, float] = field(default_factory=dict)
    stats: dict[str, float] = field(default_factory=dict)
    #: residual key -> (n, trial index) of its worst value within its family's trials
    worst: dict[str, tuple[int, int]] = field(default_factory=dict)

    def fold(self, families: dict, where: tuple[int, int]) -> None:
        """Fold each key's |values| into its worst case in one pass over their (F, B) stack,
        new keys in the order given; a NaN is kept (NaN means fail).  values[i] came from trial
        k + i of dimension n, where ``where = (n, k)``.  When a key's values raise its worst
        case, the first NaN (else the first maximum) among them becomes its provenance."""
        names = list(families)
        values = np.abs(np.array(list(families.values()), dtype=float).reshape(len(names), -1))
        old = np.array([self.residuals.get(name, -np.inf) for name in names])
        new = np.maximum(old, values.max(axis=1))
        self.residuals.update(zip(names, new.tolist()))
        raised = ((old == old) & (new != old)).tolist()  # raised, and not past a NaN
        for name, hit, k in zip(names, raised, (where[1] + values.argmax(axis=1)).tolist()):
            if hit:
                self.worst[name] = (where[0], k)  # first NaN or max

    def record(self, name: str, values, where: tuple[int, int]) -> None:
        """``fold`` of one key's values."""
        self.fold({name: values}, where)

    @property
    def passed(self) -> bool:
        return not self.failures()

    def failures(self) -> dict[str, float]:
        return {k: v for k, v in sorted(self.residuals.items()) if not v <= self.tolerance}


def _rel(value, scale):
    return np.abs(value) / np.maximum(1.0, np.abs(scale))


def _curvature(n: int, mat: np.ndarray) -> np.ndarray:
    """Pair matrices of a stack as ``CurvatureTensor`` holds them: the container's two
    guards (``check_symmetric``, then ``check_bianchi``) run object by object over every
    leading axis, with its messages, and the matrices come back symmetrized."""
    mat = check_symmetric(mat, "pair-basis matrix", lead=mat.ndim - 2)
    check_bianchi(n, mat, EPS_ALG)
    return mat


def _identity_draws(rng: np.random.Generator, n: int, count: int) -> list[np.ndarray]:
    """The draws of ``count`` identity trials, taken trial by trial into (count, ...) arrays.

    Per trial, in stream order: R, k, diag(A), A', nabla Rc, v, nabla R, the
    sectional subset (its size, then a permutation) and the pure matrix.  nabla R comes back
    as (B, n, N, N) pair matrices: each group of trials ``basis._chunks`` plans at 3 n^5 entries
    a trial (the draw, its symmetrised copy and the potential; 1 trial at n = 7 and 8, 21 at
    n = 4) is mapped (``curvature_derivative_pairs_from_uniform``) before the next is drawn.
    """
    N = pair_basis(n).size
    draws = [np.empty((count,) + s) for s in ((N, N), (n, n), (n,), (n, n, n), (n, n, n), (n,))]
    D, subset, mw = np.empty((count, n, N, N)), np.zeros((count, n), bool), np.empty((count, n, n))
    for first, size in _chunks(count, 3 * n ** 5):
        mD = np.empty((size,) + (n,) * 5)
        for b in range(first, first + size):
            for x in draws:
                x[b] = uniform(rng, *x.shape[1:])
            mD[b - first] = uniform(rng, n, n, n, n, n)
            picked = rng.integers(1, n)
            subset[b, rng.permutation(n)[:picked]] = True
            mw[b] = uniform(rng, n, n)
        D[first:first + size] = curvature_derivative_pairs_from_uniform(mD)
    return draws + [D, subset, mw]


def _identity_chunk(rng: np.random.Generator, n: int, count: int,
                    rep: SuiteReport, first: int) -> None:
    mR, mk, a, mA, mC, v, D, subset, mw = _identity_draws(rng, n, count)
    res = {}  # family -> its (B,) residuals, folded into the report at the end

    Rm = curvature_from_uniform(n, mR)
    split = weyl_parts(n, Rm)
    k, g = symmetrized(mk), np.eye(n)
    A = a[..., None] * g
    # R, W, the e- and s-parts, k o g and A o g: one (6, B, ...) container check (R is
    # exactly symmetric, so the check would return it bit for bit)
    _, Wm, _, _, Km, Bm = _curvature(n, np.stack(
        [Rm, split.W, split.e_part, split.s_part, kn_matrix(k, g), kn_matrix(A, g)]))
    # slot matrices s[(i,k),(j,l)] = T_ijkl, one gather per operand
    XR, XW = pair_slots(n, Rm), pair_slots(n, Wm)
    Rc, S, E = split.Rc, split.S, split.E

    def products() -> None:
        """The product families, selfadjoint through circ_prime_norm, in the report's order;
        a function of its own, so that its tables (the slot matrices of A o g and k o g, the
        nine sharp products, the (6, B, N, N) trilinear stacks, the circ-prime tables) are
        freed when it returns, before the second-Bianchi families run."""
        XB, XK = pair_slots(n, Bm), pair_slots(n, Km)
        RR, WW = frobenius(Rm, Rm), frobenius(Wm, Wm)

        # adjointness of the metric product against the Ricci contraction (g o k = (k o g)^T)
        lhs = frobenius(Km, Rm)
        res["selfadjoint"] = _rel(lhs - frobenius(k, Rc), lhs)

        # decomposition: trace-freeness, Bianchi, Pythagoras
        res["weyl_ricci_free"] = max_abs(pair_ricci(n, Wm), 1)
        res["weyl_bianchi_free"] = max_abs(bianchi_image(n, Wm), 1)
        pyth = RR - (WW + S ** 2 / (2 * n * (n - 1)) + frobenius(E, E) / (n - 2))
        res["pythagoras"] = _rel(pyth, RR)

        # the nine sharp products from the four slot stacks: W#W, R#R, B#W, then R1#R2 of the
        # six argument orders (R1, R2, R3) of (R, W, K) in tri.  W#W and R#R multiply by a copy:
        # X @ X^T of one buffer takes syrk, which sums in another order than sharp_matrix's gemm
        WsW, RsR = sharp_slots(n, XW, XW.copy()), sharp_slots(n, XR, XR.copy())
        BsW = sharp_slots(n, XB, XW)
        tri_sharp = np.stack([sharp_slots(n, X, Y) for X, Y in (
            (XR, XW), (XR, XK), (XW, XR), (XW, XK), (XK, XR), (XK, XW))])

        # quadratic products: rc(W^2 + W#) = 0 and the contraction formula for R
        W2 = Wm @ np.swapaxes(Wm, -1, -2)
        quad_W = W2 + WsW
        res["rc_quadratic_weyl"] = _rel(max_abs(pair_ricci(n, quad_W), 1), WW)
        quad_R = Rm @ np.swapaxes(Rm, -1, -2) + RsR
        rc_pred = curvature_action(XR, Rc)
        res["rc_quadratic_contraction"] = _rel(max_abs(pair_ricci(n, quad_R) - rc_pred, 1), RR)

        # trilinear symmetry <R1.R2 + R2.R1 + 2 R1 # R2, R3> over all six argument orders
        p, q, r = (np.stack(x) for x in ([Rm, Rm, Wm, Wm, Km, Km], [Wm, Km, Rm, Km, Rm, Wm],
                                          [Km, Wm, Km, Rm, Wm, Rm]))
        vals = frobenius(p @ np.swapaxes(q, -1, -2) + q @ np.swapaxes(p, -1, -2)
                         + 2.0 * tri_sharp, r)
        res["tri_symmetry"] = _rel(vals.max(axis=0) - vals.min(axis=0), np.abs(vals).max(axis=0))

        # metric-product pairing lemma, with the symmetric factor diagonalized
        res["productw_orth"] = _rel(frobenius(Bm, quad_W), WW)
        lhs_b = frobenius(W2, Bm)
        pb = pair_basis(n)  # sum_{i<j} (A_ii + A_jj) |row_(ij) W|^2
        rhs_b = np.sum((a[..., pb.rows] + a[..., pb.cols]) * np.sum(Wm * Wm, axis=-1), axis=-1)
        res["productw_diag"] = _rel(lhs_b - rhs_b, WW)
        res["productw_sharp"] = _rel(lhs_b + frobenius(Wm, BsW), WW)
        rhs_c = 0.5 * frobenius(XW @ XW, XR)  # sum_jl W_ijkl W_jplq = (XW XW)[(i,k),(p,q)]
        res["productw_reindex"] = _rel(frobenius(Wm, tri_sharp[0]) - rhs_c, WW)

        # circ-prime norm identity on divergence-type tensors
        Ap = two_form_one_form_from_uniform(mA)
        cp = circ_prime_pairs(n, Ap)
        a2, cp2 = frobenius(Ap, Ap), frobenius(cp, cp)
        res["circ_prime_norm"] = _rel(cp2 - (n - 3) * a2, a2)

    products()
    res["bianchi_rc_part"], res["bianchi_s_part"], res["bianchi_weyl_part"] = \
        _second_bianchi_residuals(n, mC, v, D)

    # sectional split of the trace-free operator: W_ijij is the pair diagonal of W
    check_trace_free(n, Wm, "sectional split")
    w1, w2 = sectional_sums(np.diagonal(Wm, axis1=-2, axis2=-1), subset)
    res["sectional_split"] = _rel(w1 - w2, w1)

    # Ricci-polynomial identities; quadratic_forms takes the symmetrized Ricci form
    Ac = symmetrized(Rc)
    A3, R_AA, e3, e2 = cube_trace(Ac), quadratic_form(XR, Ac), cube_trace(E), frobenius(E, E)
    res["ricci_cubed"] = _rel(A3 - (e3 + 3.0 / n * S * e2 + S ** 3 / n ** 2), A3)
    pred = (quadratic_form(XW, Ac) - 2.0 * e3 / (n - 2) + S ** 3 / n ** 2
            + (2.0 * n - 3.0) / (n * (n - 1)) * S * e2)
    res["ricci_curvature_form"] = _rel(R_AA - pred, R_AA)

    # pure-curvature cubic identity
    sharp_cubic, square_cubic, three_plane = pure_cubic_parts(pure_from_uniform(mw))
    res["pure_cubic_identity"] = _rel(
        sharp_cubic - ((8.0 - n) / 2.0 * square_cubic + three_plane), sharp_cubic)
    rep.fold({f"{family}_n{n}": values for family, values in res.items()}, (n, first))


def _second_bianchi_residuals(n: int, mC: np.ndarray, v: np.ndarray,
                              D: np.ndarray) -> tuple[np.ndarray, ...]:
    """The bianchi_{rc,s,weyl}_part residuals of a chunk.

    Each family is evaluated at the (B, T, N) independent components, i < j < k and
    m < l, of its second-Bianchi and circ-prime images, formed from the (B, n, N, N)
    derivative pair matrices D that ``_identity_draws`` maps from the draws group by group,
    after the product families have freed their tables; a function of its own, so that its
    tables are freed before the next family runs.
    """
    # second-Bianchi images of the decomposition pieces (raw kernels, component norms)
    C, g = symmetrized(mC), np.eye(n)
    P, Q = pq_pairs(C, v)
    resid = second_bianchi_pairs(n, kn_matrix(C, g)) - circ_prime_pairs(n, P)
    rc_part = _rel(max_abs(resid, 1), max_abs(P, 1))
    D_s = v[..., :, None, None] * kn_matrix(g, g)  # v_m (g o g)
    resid = second_bianchi_pairs(n, D_s) + circ_prime_pairs(n, Q)
    s_part = _rel(max_abs(resid, 1), max_abs(Q, 1))
    # second-Bianchi image of the trace-free part on an exact derivative field
    W = weyl_parts(n, D).W
    bw = second_bianchi_pairs(n, W)
    resid = bw - circ_prime_pairs(n, pair_divergence(n, W)) / (n - 3)
    return rc_part, s_part, _rel(max_abs(resid, 1), max_abs(bw, 1))


def _sharp_cubic_trial(n: int, Wm: np.ndarray) -> np.ndarray:
    """Relative deviation of <W, W#> from 2 <W, W^2>, one per sample of a chunk."""
    square, lhs = cubic_parts(n, Wm)
    rhs = 2.0 * square
    return _rel(lhs - rhs, np.maximum(np.abs(lhs), np.abs(rhs)))


def _u_tensor_trial(n: int, Wm: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """(u_norm, u_cubic) residuals of a chunk; the u-tensor sums are one call on its stack."""
    check_trace_free(n, Wm, "u-contraction")
    norm_sum, contracted = u_tensor_contractions(n, Wm, Wm)
    cubic = sum(cubic_parts(n, Wm))
    return (_rel(norm_sum - 32.0 * (n - 1) * frobenius(Wm, Wm), norm_sum),
            _rel(contracted - 8.0 * cubic, contracted))


def _run_dimension(args: tuple[int, int, int, SuiteReport]) -> None:
    n, trials, seed, rep = args
    rng = np.random.default_rng([seed, n])
    for first, count in _chunks(trials, n ** 5):
        _identity_chunk(rng, n, count, rep, first)
    reduced = max(1, trials // 10) if trials > 0 else 0
    sharp = trials if n <= 5 else reduced
    for first, count in _chunks(sharp + reduced, n ** 5):
        Wm = _curvature(n, random_weyl_batch(rng, n, count))
        cut = max(0, min(count, sharp - first))  # rows [0, cut) are sharp-cubic samples
        if cut:
            dev = _sharp_cubic_trial(n, Wm[:cut])
            if n <= 5:
                rep.record(f"sharp_cubic_n{n}", dev, (n, first))
            else:
                key = f"sharp_cubic_deviation_n{n}"
                rep.stats[key] = running_max(rep.stats.get(key, 0.0), dev)
        if cut < count:
            u_norm, u_cubic = _u_tensor_trial(n, Wm[cut:])
            rep.fold({f"u_norm_n{n}": u_norm, f"u_cubic_n{n}": u_cubic},
                     (n, first + cut - sharp))


def run_identity_suite(dimensions: tuple[int, ...] = (4, 5, 6, 7, 8),
                       trials: int = 1000, seed: int = 0,
                       tolerance: float = EPS_ALG, workers: int = 1) -> SuiteReport:
    """Run the full randomized identity suite; residuals are worst-case relative.

    ``workers`` (>= 1) is checked and otherwise unused; the keyword goes when the
    benchmark harness, which passes ``workers=1``, next changes.
    """
    trials = check_integer(trials, "trials", 0)
    check_integer(workers, "workers", 1)
    seed = check_integer(seed, "seed", 0)
    dimensions = tuple(dict.fromkeys(check_pair_dimension(n, "identity suite", 4)
                                     for n in dimensions))
    rep = SuiteReport(seed=seed, trials=trials, dimensions=dimensions, tolerance=tolerance)
    for n in dimensions:
        _run_dimension((n, trials, seed, rep))
    return rep
