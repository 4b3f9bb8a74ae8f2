"""Randomized identity suite over the curvature algebra.

Each trial draws one batch of random objects per dimension and evaluates all
identities on them, accumulating worst-case relative residuals.  The suite is
deterministic for a fixed seed and reports a machine-readable residual map.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from itertools import permutations

import numpy as np

from .algebra import (
    circ_prime,
    circ_prime_full,
    cubic_parts,
    decompose,
    dot_product,
    kn_four,
    kulkarni_nomizu,
    pure_cubics,
    quadratic_forms,
    ricci_contraction,
    second_bianchi_full,
    sharp_product,
    tri,
    u_contraction,
    weyl_sectional_split,
    weyl_split,
)
from .sampling import (
    random_curvature,
    random_curvature_derivative_full,
    random_pure_matrix,
    random_ricci_derivative,
    random_symmetric,
    random_two_form_one_form,
    random_weyl,
)
from .tensors import EPS_ALG, Operator2Form, bianchi_residual, inner, running_max


@dataclass
class SuiteReport:
    seed: int
    trials: int
    dimensions: tuple[int, ...]
    tolerance: float
    residuals: dict[str, float] = field(default_factory=dict)
    stats: dict[str, float] = field(default_factory=dict)

    def record(self, name: str, value: float) -> None:
        self.residuals[name] = running_max(self.residuals.get(name, -np.inf), abs(float(value)))

    @property
    def passed(self) -> bool:
        return not self.failures()

    def failures(self) -> dict[str, float]:
        return {k: v for k, v in sorted(self.residuals.items()) if not v <= self.tolerance}


def _rel(value: float, scale: float) -> float:
    return abs(value) / max(1.0, abs(scale))


def _identities_one_trial(rng: np.random.Generator, n: int, rep: SuiteReport) -> None:
    g = np.eye(n)
    R = random_curvature(rng, n)
    dec = decompose(R)
    W = dec.weyl
    k = random_symmetric(rng, n)

    # adjointness of the metric product against the Ricci contraction
    lhs = float(np.sum(kulkarni_nomizu(g, k).mat * R.mat))
    rhs = float(np.sum(k * ricci_contraction(R)))
    rep.record(f"selfadjoint_n{n}", _rel(lhs - rhs, lhs))

    # decomposition: trace-freeness, Bianchi, Pythagoras
    rep.record(f"weyl_ricci_free_n{n}", float(np.abs(ricci_contraction(W)).max()))
    rep.record(f"weyl_bianchi_free_n{n}", bianchi_residual(W))
    pyth = inner(R, R) - (inner(W, W) + dec.S ** 2 / (2 * n * (n - 1))
                          + float(np.sum(dec.E * dec.E)) / (n - 2))
    rep.record(f"pythagoras_n{n}", _rel(pyth, inner(R, R)))

    # quadratic products: rc(W^2 + W#) = 0 and the contraction formula for R
    W2 = dot_product(W, W)
    Ws = sharp_product(W, W)
    quad_W = Operator2Form(n, W2.mat + Ws.mat, require_self_adjoint=False)
    rep.record(f"rc_quadratic_weyl_n{n}",
               _rel(np.abs(ricci_contraction(quad_W)).max(), inner(W, W)))
    quad_R = Operator2Form(n, dot_product(R, R).mat + sharp_product(R, R).mat,
                           require_self_adjoint=False)
    rc_pred = np.einsum('ipjq,pq->ij', R.four(), ricci_contraction(R))
    rep.record(f"rc_quadratic_contraction_n{n}",
               _rel(np.abs(ricci_contraction(quad_R) - rc_pred).max(), inner(R, R)))

    # trilinear symmetry over all six argument orders
    vals = [tri(*p) for p in permutations((R, W, kulkarni_nomizu(k, g)))]
    rep.record(f"tri_symmetry_n{n}", _rel(max(vals) - min(vals), max(abs(v) for v in vals)))

    # metric-product pairing lemma, with the symmetric factor diagonalized
    A = np.diag(rng.uniform(-1.0, 1.0, size=n))
    B = kulkarni_nomizu(A, g)
    scaleW = max(1.0, inner(W, W))
    rep.record(f"productw_orth_n{n}",
               _rel(float(np.sum(B.mat * quad_W.mat)), scaleW))
    lhs_b = float(np.sum(W2.mat * B.mat))
    rhs_b = 0.5 * float(np.einsum('ii,ijpq,ijpq->', A, W.four(), W.four()))
    rep.record(f"productw_diag_n{n}", _rel(lhs_b - rhs_b, scaleW))
    rhs_b2 = -float(np.sum(W.mat * sharp_product(B, W).mat))
    rep.record(f"productw_sharp_n{n}", _rel(lhs_b - rhs_b2, scaleW))
    lhs_c = float(np.sum(W.mat * sharp_product(R, W).mat))
    rhs_c = 0.5 * float(np.einsum('ijkl,jplq,ipkq->', W.four(), W.four(), R.four()))
    rep.record(f"productw_reindex_n{n}", _rel(lhs_c - rhs_c, scaleW))

    # circ-prime norm identity on divergence-type tensors
    Af = random_two_form_one_form(rng, n)
    rep.record(f"circ_prime_norm_n{n}",
               _rel(circ_prime(Af).norm() ** 2 - (n - 3) * Af.norm() ** 2,
                    Af.norm() ** 2))

    # second-Bianchi images of the decomposition pieces (raw kernels, full norms)
    C = random_ricci_derivative(rng, n)
    D_rc = kn_four(C, g)
    P = C - np.transpose(C, (1, 0, 2))
    resid = second_bianchi_full(D_rc) - circ_prime_full(P)
    rep.record(f"bianchi_rc_part_n{n}",
               _rel(np.abs(resid).max(), np.abs(P).max()))
    v = rng.uniform(-1.0, 1.0, size=n)
    D_s = np.einsum('m,abcd->mabcd', v, kn_four(g, g))
    Qf = np.einsum('ki,j->ijk', g, v) - np.einsum('kj,i->ijk', g, v)
    resid = second_bianchi_full(D_s) + circ_prime_full(Qf)
    rep.record(f"bianchi_s_part_n{n}",
               _rel(np.abs(resid).max(), np.abs(Qf).max()))

    # second-Bianchi image of the trace-free part on an exact derivative field
    w_sl = weyl_split(random_curvature_derivative_full(rng, n)).W
    delta_w = np.einsum('mabcm->abc', w_sl)
    bw = second_bianchi_full(w_sl)
    resid = bw - circ_prime_full(delta_w) / (n - 3)
    rep.record(f"bianchi_weyl_part_n{n}",
               _rel(np.abs(resid).max(), np.abs(bw).max()))

    # sectional split of the trace-free operator
    size = rng.integers(1, n)
    subset = tuple(rng.permutation(n)[:size])
    w1, w2v = weyl_sectional_split(W, subset)
    rep.record(f"sectional_split_n{n}", _rel(w1 - w2v, max(abs(w1), 1.0)))

    # Ricci-polynomial identities
    Rc = ricci_contraction(R)
    S, E = dec.S, dec.E
    qf_rc = quadratic_forms(R, Rc)
    e3 = float(np.einsum('ij,jk,ki->', E, E, E))
    e2 = float(np.sum(E * E))
    rep.record(f"ricci_cubed_n{n}",
               _rel(qf_rc.A_cubed - (e3 + 3.0 / n * S * e2 + S ** 3 / n ** 2),
                    max(abs(qf_rc.A_cubed), 1.0)))
    w_rcrc = quadratic_forms(W, Rc).W_AA
    pred = (w_rcrc - 2.0 * e3 / (n - 2) + S ** 3 / n ** 2
            + (2.0 * n - 3.0) / (n * (n - 1)) * S * e2)
    rep.record(f"ricci_curvature_form_n{n}",
               _rel(qf_rc.W_AA - pred, max(abs(qf_rc.W_AA), 1.0)))

    # pure-curvature cubic identity
    pm = random_pure_matrix(rng, n)
    pc = pure_cubics(pm)
    rep.record(f"pure_cubic_identity_n{n}",
               _rel(pc.sharp_cubic - ((8.0 - n) / 2.0 * pc.square_cubic
                                      + pc.three_plane_sum),
                    max(abs(pc.sharp_cubic), 1.0)))


def _sharp_cubic_trial(rng: np.random.Generator, n: int, rep: SuiteReport) -> None:
    square, lhs = cubic_parts(random_weyl(rng, n).four())
    rhs = 2.0 * square
    dev = _rel(lhs - rhs, max(abs(lhs), abs(rhs)))
    if n <= 5:
        rep.record(f"sharp_cubic_n{n}", dev)
    else:
        key = f"sharp_cubic_deviation_n{n}"
        rep.stats[key] = running_max(rep.stats.get(key, 0.0), dev)


def _u_tensor_trial(rng: np.random.Generator, n: int, rep: SuiteReport) -> None:
    W = random_weyl(rng, n)
    norm_sum, contracted = u_contraction(W)
    rep.record(f"u_norm_n{n}",
               _rel(norm_sum - 32.0 * (n - 1) * inner(W, W), norm_sum))
    cubic = sum(cubic_parts(W.four()))
    rep.record(f"u_cubic_n{n}", _rel(contracted - 8.0 * cubic, max(abs(contracted), 1.0)))


def _run_dimension(args: tuple[int, int, int, float]) -> tuple[dict, dict]:
    n, trials, seed, tolerance = args
    rep = SuiteReport(seed=seed, trials=trials, dimensions=(n,), tolerance=tolerance)
    rng = np.random.default_rng([seed, n])
    for _ in range(trials):
        _identities_one_trial(rng, n, rep)
    reduced = max(1, trials // 10) if trials > 0 else 0
    for _ in range(trials if n <= 5 else reduced):
        _sharp_cubic_trial(rng, n, rep)
    for _ in range(reduced):
        _u_tensor_trial(rng, n, rep)
    return rep.residuals, rep.stats


def run_identity_suite(dimensions: tuple[int, ...] = (4, 5, 6, 7, 8),
                       trials: int = 1000, seed: int = 0,
                       tolerance: float = EPS_ALG, workers: int = 1) -> SuiteReport:
    """Run the full randomized identity suite; residuals are worst-case relative.

    Each dimension draws from its own seeded stream, so the report is
    independent of the worker count and the per-dimension blocks may run in
    parallel processes.
    """
    if trials < 0:
        raise ValueError("trials must be >= 0")
    for n in dimensions:
        if n < 4:
            raise ValueError("identity suite runs for dimensions >= 4")
    rep = SuiteReport(seed=seed, trials=trials, dimensions=tuple(dimensions),
                      tolerance=tolerance)
    jobs = [(n, trials, seed, tolerance) for n in dimensions]
    if workers > 1 and len(jobs) > 1:
        import multiprocessing as mp
        with mp.get_context("spawn").Pool(min(workers, len(jobs))) as pool:
            results = pool.map(_run_dimension, jobs)
    else:
        results = [_run_dimension(job) for job in jobs]
    for residuals, stats in results:
        for k, v in residuals.items():
            rep.record(k, v)
        for k, v in stats.items():
            rep.stats[k] = running_max(rep.stats.get(k, 0.0), v)
    return rep
