"""Scalar bounds, rigidity constants, and pinch-condition verdicts.

Everything here is a pure function of numeric inputs: eigenvalue extremes, the cubic
bounds on <W, W^2 + W#>, the constrained-cubic maximization with its independent
multi-start oracle (one ascent kernel that steps any set of dimensions in lockstep),
and the pointwise / norm / integral pinch verdicts with their dimensional constants.
"""

from __future__ import annotations

import math
import queue
import threading
from dataclasses import asdict, dataclass, field, replace

import numpy as np

from .algebra import check_trace_free, cubic_parts
from .basis import _chunks, check_integer, check_pair_dimension, disjoint_pair_mask
from .sampling import traceless_from_uniform, uniform
from .tensors import (
    EPS_ALG,
    CurvatureTensor,
    check_bianchi,
    check_finite,
    check_traceless,
    frobenius,
    running_max,
)

#: slack for tie-breaking verdict comparisons (relative)
_TIE = 1e-12

#: the fewest eigenvalues a stack's spectrum must hold to be solved on the helper thread;
#: a handoff costs about 0.1 ms, which 64 objects at n = 5 and 24 at n = 8 repay
HELPER_EIGENVALUES = 512


class _SpectrumHelper:
    """One daemon thread that runs ``np.linalg.eigvalsh`` on the stacks handed to it, in
    order, started on first use.  LAPACK releases the interpreter lock, so a stack's spectrum
    is solved on the second core while the calling thread goes on; the result, or the
    exception eigvalsh raised, comes back through the job's own queue."""

    def __init__(self) -> None:
        self._lock = threading.Lock()
        self._jobs: queue.SimpleQueue | None = None
        self._thread: threading.Thread | None = None

    def submit(self, stack: np.ndarray) -> queue.SimpleQueue:
        with self._lock:
            if self._thread is None or not self._thread.is_alive():  # a forked child has none
                self._jobs = queue.SimpleQueue()
                self._thread = threading.Thread(target=self._serve, args=(self._jobs,),
                                                daemon=True, name="weylbench-eigvalsh")
                self._thread.start()
        done = queue.SimpleQueue()
        self._jobs.put((stack, done))
        return done

    @staticmethod
    def _serve(jobs: queue.SimpleQueue) -> None:
        while True:
            stack, done = jobs.get()
            try:
                result = np.linalg.eigvalsh(stack)  # looked up per job, as the caller would
            except Exception as error:  # raised again on the calling thread
                result = error
            done.put(result)

    @staticmethod
    def result(done: queue.SimpleQueue) -> np.ndarray:
        result = done.get()
        if isinstance(result, Exception):
            raise result
        return result


_spectra = _SpectrumHelper()


def weyl_bound_terms(n: int, Wm: np.ndarray) -> dict[str, np.ndarray]:
    """Terms of the Weyl bounds of trace-free operators with (..., N, N) pair matrices Wm,
    one value per object: ``w2`` |W|^2, ``omega``/``omega_max`` the largest eigenvalue
    magnitude/signed eigenvalue, ``max_component`` the largest |W_ijkl| over distinct
    indices, ``component_bound`` (4/3) omega, ``lhs`` <W, W^2 + W#>, ``lhs_dot`` <W, W^2>;
    for n >= 5 ``eig_bound`` (2(n-1)/3) omega |W|^2 and ``norm_bound`` c(n) |W|^3, and for
    n = 5 ``signed_bound`` (2(n-1)/3) omega_max |W|^2.  A non-finite matrix gets NaN
    eigenvalues (eigvalsh runs on the finite ones only).  The spectra of a stack of at least
    ``HELPER_EIGENVALUES`` eigenvalues are solved on the helper thread while this one forms
    the other terms: the same eigvalsh call on the same stack, so the same bits."""
    finite = np.isfinite(Wm).all(axis=(-2, -1))
    eigs = np.full(Wm.shape[:-1], np.nan)
    stack = Wm[finite]
    done = None
    if stack.shape[0] * stack.shape[1] >= HELPER_EIGENVALUES:  # objects times N
        done = _spectra.submit(stack)
    else:
        eigs[finite] = np.linalg.eigvalsh(stack)
    w2 = frobenius(Wm, Wm)
    lhs_dot, lhs_sharp = cubic_parts(n, Wm)
    max_component = np.abs(Wm[..., disjoint_pair_mask(n)]).max(axis=-1, initial=0.0)
    if done is not None:
        eigs[finite] = _spectra.result(done)
    omega, omega_max = np.abs(eigs).max(axis=-1), eigs.max(axis=-1)
    t = {"w2": w2, "omega": omega, "omega_max": omega_max, "max_component": max_component,
         "component_bound": 4.0 * omega / 3.0, "lhs": lhs_dot + lhs_sharp, "lhs_dot": lhs_dot}
    c = 2.0 * (n - 1) / 3.0
    if n >= 5:
        # np.power, as on a batch: ** on one object's numpy scalar calls libm pow instead
        t.update(eig_bound=c * omega * w2, norm_bound=table_c(n) * np.power(w2, 1.5))
    if n == 5:
        t["signed_bound"] = c * omega_max * w2
    return t


def eigen_bound_terms(T: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """(largest |eigenvalue|, sqrt((m-1)/m) |T|_F) of (..., m, m) symmetric T."""
    m = T.shape[-1]
    lam = np.abs(np.linalg.eigvalsh(T)).max(axis=-1)
    return lam, np.sqrt((m - 1) / m) * np.sqrt(frobenius(T, T))


def eigen_bound(T: np.ndarray) -> tuple[float, float]:
    """(largest |eigenvalue|, sqrt((m-1)/m) |T|_F) for a traceless symmetric T."""
    lam, bound = eigen_bound_terms(check_traceless(T, "operator"))
    return float(lam), float(bound)


@dataclass(frozen=True)
class SpectralExtremes:
    omega_mag: float   # largest eigenvalue magnitude of the 2-form operator
    omega_max: float   # largest (signed) eigenvalue
    ell: float         # minus the smallest eigenvalue of the traceless Ricci


def _pinch_inputs(W: CurvatureTensor, E: np.ndarray, what: str) -> np.ndarray:
    """The guard of (W, E): E traceless symmetric, W trace-free, sizes matching."""
    E = check_traceless(E, "E")
    check_trace_free(W.n, W.mat, what)
    if E.shape[0] != W.n:
        raise ValueError("dimension mismatch")
    return E


def spectral_extremes(W: CurvatureTensor, E: np.ndarray) -> SpectralExtremes:
    E = _pinch_inputs(W, E, "spectral_extremes")
    t = weyl_bound_terms(W.n, W.mat)
    return SpectralExtremes(omega_mag=float(t["omega"]), omega_max=float(t["omega_max"]),
                            ell=float(-np.linalg.eigvalsh(E).min()))


@dataclass(frozen=True)
class ComponentBound:
    max_component: float
    bound: float


def berger_component_bound(W: CurvatureTensor) -> ComponentBound:
    """Largest |W_ijkl| over pairwise-distinct indices against (4/3) max|eig|."""
    check_trace_free(W.n, W.mat, "the component bound")
    check_bianchi(W.n, W.mat, EPS_ALG)
    t = weyl_bound_terms(W.n, W.mat)
    max_comp, bound = float(t["max_component"]), float(t["component_bound"])
    if max_comp > bound + 100 * EPS_ALG * max(1.0, float(t["omega"])):
        raise AssertionError("component bound violated")
    return ComponentBound(max_component=max_comp, bound=bound)


def audit_cubic_bounds(n: int, samples: int, seed: int) -> dict[str, float]:
    """Worst relative excesses of the component/eigenvalue/norm bounds on random
    trace-free tensors; all values <= 0 mean zero violations."""
    n = check_pair_dimension(n, "cubic bound audit", 5)
    samples, seed = check_integer(samples, "samples", 0), check_integer(seed, "seed", 0)
    from .sampling import random_weyl_batch
    rng = np.random.default_rng([seed, n])
    worst = dict.fromkeys(("component", "eig", "norm")
                          + (("eig_signed", "dim5_identity") if n == 5 else ()), -np.inf)
    for done in range(0, samples, 64):  # a fixed 64-sample batch (README: why not _chunks)
        t = weyl_bound_terms(n, random_weyl_batch(rng, n, min(64, samples - done)))
        lhs, scale3 = t["lhs"], np.maximum(t["w2"], 1e-30) ** 1.5
        excess = {"component": ((t["max_component"] - t["component_bound"])
                                / np.maximum(t["omega"], 1e-30)),
                  "eig": (lhs - t["eig_bound"]) / scale3,
                  "norm": (lhs - t["norm_bound"]) / scale3}
        if n == 5:
            excess["eig_signed"] = (lhs - t["signed_bound"]) / scale3
            excess["dim5_identity"] = np.abs(lhs - 3.0 * t["lhs_dot"]) / scale3
        for key, values in excess.items():
            worst[key] = running_max(worst[key], values)
    return worst


def _eigen_deviations(samples: int, seed: int, first: int, last: int):
    """Yield (max |eigenvalue| - sqrt((m-1)/m)|T|) / that bound, one pass at a time, for random
    traceless symmetric m x m matrices T drawn from default_rng(seed) for m = 2..last in turn,
    each m's in the passes ``basis._chunks`` plans at m^2 entries a sample.  The draws for
    m < first are taken in the same passes, so the stream is the same, but not evaluated."""
    samples, seed = check_integer(samples, "samples", 0), check_integer(seed, "seed", 0)
    rng = np.random.default_rng(seed)
    for m in range(2, last + 1):
        for _, count in _chunks(samples, m * m):
            draws = uniform(rng, count, m, m)
            if m >= first:
                lam, bound = eigen_bound_terms(traceless_from_uniform(draws))
                yield (lam - bound) / np.maximum(bound, 1e-30)


def audit_eigen_bound(samples: int, seed: int) -> float:
    """Worst relative excess of max |eigenvalue| over sqrt((m-1)/m)|T| on random
    traceless symmetric m x m matrices, m = 3..10.  The m = 2 draws come first
    in the stream; there the bound is an equality (``audit_eigen_equality``)."""
    worst = -np.inf
    for excess in _eigen_deviations(samples, seed, 3, 10):
        worst = running_max(worst, excess)
    return worst


def audit_eigen_equality(samples: int, seed: int) -> float:
    """Worst two-sided |max |eigenvalue| - |T|/sqrt(2)| / (|T|/sqrt(2)) on the
    2 x 2 matrices ``audit_eigen_bound(samples, seed)`` draws first, where the
    bound holds with equality; 0.0 with no samples."""
    worst = 0.0
    for deviation in _eigen_deviations(samples, seed, 2, 2):
        worst = running_max(worst, np.abs(deviation))
    return worst


@dataclass(frozen=True)
class CubicBounds:
    lhs: float
    eig_bound: float
    norm_bound: float
    lhs_dot_only: float          # <W, W^2>
    eig_bound_signed: float | None = None   # n = 5 largest-eigenvalue variant


def cubic_bound_eval(W: CurvatureTensor) -> CubicBounds:
    """Evaluate <W, W^2 + W#> against its eigenvalue and norm bounds (n >= 5).

    eig_bound = (2(n-1)/3) omega |W|^2 with omega the largest eigenvalue
    magnitude; norm_bound = c(n) |W|^3.  In dimension five the cubic also
    equals 3 <W, W^2> and the bound holds with the largest signed eigenvalue.
    """
    n = W.n
    if n < 5:
        raise ValueError("cubic bounds apply for dimension >= 5 (dimension 4 uses the"
                         " self-dual determinant route)")
    check_trace_free(n, W.mat, "the cubic bound")
    t = {k: float(v) for k, v in weyl_bound_terms(n, W.mat).items()}
    lhs, signed = t["lhs"], t.get("signed_bound")
    slack = 1e-9 * max(1.0, abs(lhs), t["eig_bound"], t["norm_bound"])
    if lhs > t["eig_bound"] + slack:
        raise AssertionError("eigenvalue cubic bound violated")
    if lhs > t["norm_bound"] + slack:
        raise AssertionError("norm cubic bound violated")
    if n == 5 and abs(lhs - 3.0 * t["lhs_dot"]) > 1e-9 * max(1.0, abs(lhs)):
        raise AssertionError("dimension-5 cubic identity <W,W^2+W#> = 3<W,W^2> violated")
    if signed is not None and lhs > signed + slack:
        raise AssertionError("dimension-5 signed eigenvalue bound violated")
    return CubicBounds(lhs=lhs, eig_bound=t["eig_bound"], norm_bound=t["norm_bound"],
                       lhs_dot_only=t["lhs_dot"], eig_bound_signed=signed)


def table_c(n: int) -> float:
    """Norm-bound constant: 8/sqrt(10) in dimension five, 5 for n >= 6."""
    if n == 5:
        return 8.0 / math.sqrt(10.0)
    if n >= 6:
        return 5.0
    raise ValueError("c(n) defined for n >= 5")


def wcubic_closed_form(s: float, n: int) -> float:
    """Maximum of sum x_i^3 / sum x_i^2 over sum x_i = 0, x_i <= s: s(n-2)/(n-1)."""
    check_finite(s=s)
    n = check_integer(n, "n", 2)
    if not s > 0:
        raise ValueError("cap must be positive")
    return s * ((n - 2) / (n - 1))


def _columns(counts) -> tuple[np.ndarray, ...]:
    """The layout of a table whose column j holds counts[j] entries over padding: the counts,
    ranks 1..max count as a column, each column's flat index in row -1, and tables of the
    entries (1 on them, 0 on the padding) and of the padding (0 on the entries, +inf on it)."""
    n = np.asarray(counts, dtype=float)
    k = np.arange(1.0, n.max() + 1)[:, None]
    return n, k, np.arange(len(n)) - len(n), 1.0 * (k <= n), np.where(k > n, np.inf, 0.0)


def _project_feasible(x: np.ndarray, s: float, columns: tuple) -> np.ndarray:
    """Exact column-wise Euclidean projection onto {sum x = 0, x_i <= s} of the n_j entries
    atop each column j of x, for columns = ``_columns(n)``: y = s - x maps it onto the simplex
    {y >= 0, sum y = n s}, projected by one sort and cumsum (Duchi et al. 2008).  Padding
    that is finite or +inf sorts last as +inf and is ignored, and comes back as 0."""
    n, k, before, real, lift = columns
    u = x + lift
    u.sort(axis=0)
    u = s - u                                          # s - x, descending
    excess = np.add.accumulate(u, axis=0) - n * s     # sum of the k largest, minus n s
    rho = np.add.reduce(u * k > excess, axis=0)       # entries below the cap
    return np.minimum(x + excess.take(rho * len(n) + before) / rho, s) * real


def _ratio(x: np.ndarray) -> np.ndarray:
    """(3, columns) stack of sum x^3 / sum x^2 (-inf where sum x^2 <= 1e-18), sum x^2 and
    sum x^3 down each column, in row order; cubes by multiplication, not np.power."""
    xx = x * x
    fqp = np.empty((3, x.shape[1]))
    fqp[0] = -np.inf
    np.add.reduce(xx, axis=0, out=fqp[1])
    np.add.reduce(xx * x, axis=0, out=fqp[2])
    np.divide(fqp[2], fqp[1], out=fqp[0], where=fqp[1] > 1e-18)
    return fqp


@dataclass(frozen=True)
class OracleResult:
    value: float
    best_x: np.ndarray
    evaluations: int
    converged: bool


def wcubic_ascents(dims, budget: int, seed: int) -> list[OracleResult]:
    """The cap-1 ascents of ``wcubic_oracle(1.0, n, budget, seed)`` for every n in dims,
    stepped in lockstep.  A (max n, 64 len(dims)) table holds one start per column over zero
    padding, and every sum runs down the columns in row order, so each n's result is bit for
    bit that of its ascent alone.  An n stops at its budget or step test, as alone; its
    columns are then frozen and its evaluations stop counting."""
    dims = [check_integer(n, "n", 2) for n in dims]
    budget, seed = check_integer(budget, "budget", 0), check_integer(seed, "seed", 0)
    if not dims or max(dims) > 12:
        raise ValueError("oracle supports 2 <= n <= 12")
    columns = _columns(np.repeat(dims, 64))
    real = columns[3]
    x = np.zeros(real.shape)
    for j, n in enumerate(dims):
        x[:n, 64 * j:64 * j + 64] = np.random.default_rng(seed).uniform(-1.0, 1.0, (64, n)).T
    x = _project_feasible(x, 1.0, columns)
    fqp = _ratio(x)
    steps = np.full((len(dims), 64), 0.5)
    step, taken = steps.reshape(-1), np.zeros(len(dims), dtype=int)
    for _ in range(-(-budget // 64) - 1):  # the steps while 64 (1 + taken) < budget
        live = np.maximum.reduce(steps, axis=1) > 1e-12
        if not any(live):
            break
        taken += live
        # x (3x - 2f) is the gradient times sum x^2; at the cap it is 3 - 2f > 1, above its
        # column mean sum x^3 / n < 1, so it points outward.  Entries the projection's shift
        # leaves a few ulps below 1 count as capped, or the step would push them back
        free = (x < 1.0 - 1e-14) * real
        d = x * (3.0 * x - 2.0 * fqp[0]) * free
        d -= np.add.reduce(d, axis=0) / np.add.reduce(free, axis=0) * free
        norm = np.sqrt(np.add.reduce(d * d, axis=0))
        trial = _project_feasible(x + step / np.maximum(norm, 1e-30) * d, 1.0, columns)
        new = _ratio(trial)
        accept = new[0] > fqp[0]
        accept &= live.repeat(64)  # a stopped n's columns take no step; their steps only shrink
        np.copyto(x, trial, where=accept)
        np.copyto(fqp, new, where=accept)
        step *= np.where(accept, 2.0, 0.125)
        np.minimum(step, 0.5, out=step)
    best = np.argmax(fqp[0].reshape(-1, 64), axis=1) + np.arange(0, x.shape[1], 64)
    return [OracleResult(value=float(fqp[0, b]), best_x=x[:n, b].copy(),
                         evaluations=64 * (1 + int(t)), converged=bool((row <= 1e-10).all()))
            for n, b, t, row in zip(dims, best, taken, steps)]


def wcubic_oracle(s: float, n: int, budget: int = 100_000, seed: int = 0) -> OracleResult:
    """Independent maximization of f = sum x^3 / sum x^2 on {sum x = 0, x <= s}.

    Multi-start projected gradient ascent from 64 random feasible starts only, so the
    maximiser must be found by the ascent: with ``budget=0`` the value is the best start's
    and falls short of the closed form.  f is homogeneous of degree one: the ascent runs at
    cap 1 and never sees s, so ``value`` and ``best_x`` are bit for bit s times their cap-1
    values, for every finite positive s.  It is the one-dimension case of ``wcubic_ascents``.
    Each start steps along the gradient on its cap face, with the components at the cap
    zeroed and the rest re-centred (Calamai & Moré 1987); its step doubles on a gain, up to
    0.5, and shrinks eightfold on a rejection.  The ascent stops when every step is at most
    1e-12 or ``budget`` evaluations (64 per step) are spent; ``converged`` means every step
    is at most 1e-10.  Each step costs one sort, one cumulative sum and elementwise
    products; cubes are formed by multiplication, not np.power.
    """
    check_finite(s=s)
    if not s > 0:
        raise ValueError("cap must be positive")
    unit = wcubic_ascents((n,), budget, seed)[0]
    return replace(unit, value=s * unit.value, best_x=s * unit.best_x)


@dataclass(frozen=True)
class ConstantsTable:
    """Dimensional constants of the rigidity machinery.

    For n >= 6 alpha is the biggest real root of
        8(n-1)^2 a^2 - 2n(n-1)(n-2) a + n(n-2)(n-3) = 0,
    which has none for n = 5, where alpha = 1/2.  For n >= 5 the gap coefficients
    are a1 = 2 c(n)(n-1) alpha^2 / d and a2 = 2(n-1) alpha^2 / d sqrt((n-1)/n),
    d = 2(n-1) alpha - n + 3: (8/sqrt10, 2/sqrt5) at n = 5.  The dimension-4
    thresholds live in the self-dual subsystem.
    """

    n: int
    s_n: float
    alpha: float | None = None
    a1: float | None = None
    a2: float | None = None
    c_n: float | None = None

    def as_dict(self) -> dict:
        return asdict(self)


def quadratic_coefficients(n: int) -> tuple[float, float, float]:
    return (8.0 * (n - 1) ** 2,
            -2.0 * n * (n - 1) * (n - 2),
            float(n * (n - 2) * (n - 3)))


def constants(n: int) -> ConstantsTable:
    """The constants of dimension n >= 4; refused if n or one of them overflows a float."""
    n = check_integer(n, "n", 4)
    try:
        s_n = (n - 2) / (4.0 * (n - 1))
        if n == 4:
            return ConstantsTable(n=n, s_n=s_n)
        if n == 5:
            alpha = 0.5
        else:
            A, B, C = quadratic_coefficients(n)
            disc = B * B - 4.0 * A * C  # 4n(n-1)^2(n-2)(n-4)(n-6), >= 0 for n >= 6
            alpha = (-B + math.sqrt(max(disc, 0.0))) / (2.0 * A)
        denom = 2.0 * (n - 1) * alpha - n + 3.0
        a1 = 2.0 * table_c(n) * (n - 1) * alpha ** 2 / denom
        a2 = 2.0 * (n - 1) * alpha ** 2 / denom * math.sqrt((n - 1) / n)
        if all(map(math.isfinite, (n, alpha, a1, a2))):
            return ConstantsTable(n=n, s_n=s_n, alpha=alpha, a1=a1, a2=a2, c_n=table_c(n))
    except OverflowError:  # n or a term beyond the float range
        pass
    raise ValueError(f"the constants of dimension n = {n} overflow the float range")


@dataclass(frozen=True)
class PinchVerdict:
    """condition_value against threshold, both finite (not an overflowed, non-JSON inf)."""

    condition_value: float
    threshold: float
    satisfied: bool
    which: str
    details: dict = field(default_factory=dict)

    def __post_init__(self):
        if not (math.isfinite(self.condition_value) and math.isfinite(self.threshold)):
            raise ValueError(f"{self.which} verdict overflows the float range: condition "
                             f"{self.condition_value}, threshold {self.threshold}")

    def as_dict(self) -> dict:
        return {"which": self.which, "condition_value": self.condition_value,
                "threshold": self.threshold, "satisfied": self.satisfied,
                **{f"detail_{k}": v for k, v in sorted(self.details.items())}}


def _leq(value: float, threshold: float) -> bool:
    return bool(value <= threshold + _TIE * max(1.0, abs(threshold)))


def pinch_verdict_pointwise(W: CurvatureTensor, E: np.ndarray, S: float) -> PinchVerdict:
    """Eigenvalue pinch (2(n-1)/3) omega + ell <= S/n for n >= 5; omega is the largest
    eigenvalue magnitude, or in dimension five the admissible largest signed eigenvalue."""
    n = W.n
    if n < 5:
        raise ValueError("pointwise pinch verdict requires n >= 5")
    check_finite(S=S)
    ext = spectral_extremes(W, E)
    omega = ext.omega_max if n == 5 else ext.omega_mag
    value = 2.0 * (n - 1) / 3.0 * omega + ext.ell
    threshold = S / n
    return PinchVerdict(condition_value=float(value), threshold=float(threshold),
                        satisfied=_leq(value, threshold), which="pointwise",
                        details={"omega_mag": ext.omega_mag, "omega_max": ext.omega_max,
                                 "ell": ext.ell, "signed_variant": n == 5})


def pinch_verdict_norm(W: CurvatureTensor, E: np.ndarray, S: float) -> PinchVerdict:
    """Norm pinch c(n)|W| + sqrt((n-1)/n)|E| <= S/n for n >= 5."""
    n = W.n
    if n < 5:
        raise ValueError("norm pinch verdict requires n >= 5")
    check_finite(S=S)
    E = _pinch_inputs(W, E, "pinch_verdict_norm")
    w_norm, e_norm = (math.sqrt(frobenius(x, x)) for x in (W.mat, E))
    value = table_c(n) * w_norm + math.sqrt((n - 1) / n) * e_norm
    threshold = S / n
    return PinchVerdict(condition_value=float(value), threshold=float(threshold),
                        satisfied=_leq(value, threshold), which="norm",
                        details={"w_norm": w_norm, "e_norm": e_norm, "c_n": table_c(n)})


def pinch_verdict_dim4(omega: float, S: float) -> PinchVerdict:
    """Self-dual eigenvalue pinch 6 omega <= S in dimension four."""
    check_finite(omega=omega, S=S)
    value = 6.0 * omega
    return PinchVerdict(condition_value=float(value), threshold=float(S),
                        satisfied=_leq(value, S), which="dim4_selfdual",
                        details={"omega": float(omega)})


def _integral_inputs(norm_w: float, norm_e: float, lam: float, n: int) -> int:
    """The guard of the integral inputs: finite, lambda > 0, norms >= 0 and an int n >= 5."""
    check_finite(norm_w=norm_w, norm_e=norm_e, lam=lam)
    n = check_integer(n, "n", 5)
    if lam <= 0:
        raise ValueError("the Yamabe invariant input must be positive")
    if norm_w < 0 or norm_e < 0:
        raise ValueError("norms must be nonnegative")
    return n


def gap_verdict_integral(norm_w: float, norm_e: float, lam: float, n: int) -> PinchVerdict:
    """Integral gap verdict on user-supplied L^{n/2} norms and Yamabe invariant.

    For every n >= 5 the condition is a1 ||W|| + a2 ||E|| < s_n lambda with the
    coefficients of ``constants(n)``.  A strict inequality is required: meeting
    the gap forces conformal flatness, and the borderline case forces nothing.
    """
    n = _integral_inputs(norm_w, norm_e, lam, n)
    tab = constants(n)
    value = tab.a1 * norm_w + tab.a2 * norm_e
    threshold = tab.s_n * lam
    return PinchVerdict(condition_value=float(value), threshold=float(threshold),
                        satisfied=bool(value < threshold), which="integral",
                        details={"a1": tab.a1, "a2": tab.a2, "s_n": tab.s_n})


def integral_rigidity_d(norm_w: float, norm_e: float, lam: float, n: int) -> float:
    """Smallest admissible d in the hypothesis c1 ||W|| + c2 ||E|| <= d lambda.

    d is a free parameter of the general integral-rigidity estimate; this is
    the derived consistency value (c1 ||W|| + c2 ||E||) / lambda with
    c1 = 2 c(n) and c2 = 2 sqrt((n-1)/n).
    """
    n = _integral_inputs(norm_w, norm_e, lam, n)
    c1 = 2.0 * table_c(n)
    c2 = 2.0 * math.sqrt((n - 1) / n)
    return (c1 * norm_w + c2 * norm_e) / lam
