"""Seeded random generators for the property-test and audit suites.

Entries are drawn uniformly in [-1, 1] and then symmetrized / projected onto
the relevant constraint space, so every identity check runs on generic inputs
of unit-ish scale.
"""

from __future__ import annotations

from itertools import permutations

import numpy as np

from .algebra import weyl_matrix
from .basis import _take_trailing, bianchi_image, full3_to_pair_form, pair_basis, read_only_cache
from .tensors import CurvatureTensor, Operator2Form, symmetrized


def uniform(rng: np.random.Generator, *shape: int) -> np.ndarray:
    """The one draw every sampler makes: entries uniform in [-1, 1]."""
    return rng.uniform(-1.0, 1.0, size=shape)


# The *_from_uniform maps (and ``tensors.symmetrized``) turn draws into
# samples.  They act on the trailing axes and broadcast over leading ones, so a
# stack of draws taken one trial at a time gives, entry by entry, the samples
# the per-trial samplers return.

def curvature_from_uniform(n: int, m: np.ndarray) -> np.ndarray:
    """Pair matrices of the first-Bianchi projections of (..., N, N) draws' symmetric parts.

    The image part is symmetrized as ``bianchi_project`` stores it; the result
    is exactly symmetric.
    """
    sym = symmetrized(m)
    return sym - symmetrized(bianchi_image(n, sym))


def traceless_from_uniform(m: np.ndarray) -> np.ndarray:
    """Traceless symmetric matrices of (..., m, m) draws: the symmetric part less its trace
    over m times the identity."""
    n = m.shape[-1]
    t = symmetrized(m)
    return t - np.einsum('...ii->...', t)[..., None, None] / n * np.eye(n)


def two_form_one_form_from_uniform(a: np.ndarray) -> np.ndarray:
    """(..., N, n) pair components of (..., n, n, n) draws made antisymmetric in the first two
    slots and 1-3 trace-free: divergence-type tensors, where |A o' g|^2 = (n-3)|A|^2 holds."""
    n = a.shape[-1]
    a = a - np.swapaxes(a, -3, -2)
    c = np.einsum('...iji->...j', a)
    t = np.einsum('im,...j->...ijm', np.eye(n), c) - np.einsum('jm,...i->...ijm', np.eye(n), c)
    return full3_to_pair_form(n, a - t / (n - 1))


def pure_from_uniform(m: np.ndarray) -> np.ndarray:
    """Symmetric hollow matrices with zero row sums (closed-form projection) of draws."""
    n = m.shape[-1]
    diag = np.arange(n)
    w = symmetrized(m)
    w[..., diag, diag] = 0.0
    r = w.sum(axis=-1)
    lam_sum = r.sum(axis=-1)[..., None] / (2 * n - 2)
    lam = (r - lam_sum) / (n - 2)
    w = w - lam[..., :, None] - lam[..., None, :]
    w[..., diag, diag] = 0.0
    return w


def _lead_transpose(x: np.ndarray, axes: tuple[int, ...]) -> np.ndarray:
    """x with its five trailing axes permuted by ``axes``, the leading ones kept."""
    lead = tuple(range(x.ndim - 5))
    return np.transpose(x, lead + tuple(len(lead) + a for a in axes))


def _derivative_potential(s: np.ndarray) -> np.ndarray:
    """The cubic potential s_{cd,pqr} of (..., n, n, n, n, n) draws: symmetric in (c, d)
    and in (p, q, r), summed into one accumulator in place."""
    sym = s + _lead_transpose(s, (1, 0, 2, 3, 4))
    sym /= 2.0
    acc = np.zeros_like(sym)
    for perm in permutations((2, 3, 4)):
        acc += _lead_transpose(sym, (0, 1) + perm)
    acc /= 6.0
    return acc


def curvature_derivative_from_uniform(s: np.ndarray) -> np.ndarray:
    """Formal nabla R from (..., n, n, n, n, n) draws; see random_curvature_derivative_full."""
    s = _derivative_potential(s)
    # D[i,j,k,m,n] = -(1/2)(s[k,n,i,j,m] + s[j,m,i,k,n] - s[k,m,i,j,n] - s[j,n,i,k,m])
    return -0.5 * (_lead_transpose(s, (2, 3, 0, 4, 1)) + _lead_transpose(s, (2, 0, 3, 1, 4))
                   - _lead_transpose(s, (2, 3, 0, 1, 4)) - _lead_transpose(s, (2, 0, 3, 4, 1)))


@read_only_cache
def _derivative_pair_positions(n: int) -> np.ndarray:
    """(4, n, N, N) flat positions in an (n, n, n, n, n) potential of s[k,l,i,j,m],
    s[j,m,i,k,l], s[k,m,i,j,l] and s[j,l,i,k,m] at D's pair entries (i, (jk), (ml)),
    j < k and m < l: the four terms of ``curvature_derivative_from_uniform`` in its order."""
    pb = pair_basis(n)
    i = np.arange(n)[:, None, None]
    j, k = pb.rows[None, :, None], pb.cols[None, :, None]
    m, l = pb.rows[None, None, :], pb.cols[None, None, :]
    return np.stack([(((a * n + b) * n + c) * n + d) * n + e
                     for a, b, c, d, e in ((k, l, i, j, m), (j, m, i, k, l),
                                           (k, m, i, j, l), (j, l, i, k, m))])


def curvature_derivative_pairs_from_uniform(s: np.ndarray) -> np.ndarray:
    """(..., n, N, N) derivative pair matrices D[i, (jk), (ml)] of
    ``curvature_derivative_from_uniform`` from (..., n, n, n, n, n) draws: the potential's
    four terms are gathered only at the pair entries and added in that map's order, so the
    bits are those of four_tensor_to_pair_matrix on its five-index array."""
    t = _take_trailing(_derivative_potential(s), 5, _derivative_pair_positions(s.shape[-1]))
    return -0.5 * (t[..., 0, :, :, :] + t[..., 1, :, :, :]
                   - t[..., 2, :, :, :] - t[..., 3, :, :, :])


def random_symmetric(rng: np.random.Generator, n: int) -> np.ndarray:
    return symmetrized(uniform(rng, n, n))


def random_traceless_symmetric(rng: np.random.Generator, n: int) -> np.ndarray:
    return traceless_from_uniform(uniform(rng, n, n))


def random_operator(rng: np.random.Generator, n: int) -> Operator2Form:
    return Operator2Form(n, random_symmetric(rng, pair_basis(n).size))


def random_curvature(rng: np.random.Generator, n: int) -> CurvatureTensor:
    """First-Bianchi projection of a random self-adjoint operator."""
    N = pair_basis(n).size
    return CurvatureTensor(n, curvature_from_uniform(n, uniform(rng, N, N)))


def random_weyl(rng: np.random.Generator, n: int) -> CurvatureTensor:
    """Weyl part of a random curvature tensor (trace-free and Bianchi-free)."""
    return CurvatureTensor(n, random_weyl_batch(rng, n, 1)[0])


def random_weyl_batch(rng: np.random.Generator, n: int, count: int) -> np.ndarray:
    """Pair matrices (count, N, N) of a batch of Weyl-type tensors (``weyl_matrix`` of draws)."""
    N = pair_basis(n).size
    return weyl_matrix(n, uniform(rng, count, N, N))


def random_curvature_derivative_full(rng: np.random.Generator, n: int) -> np.ndarray:
    """Formal nabla R satisfying the second Bianchi identity exactly, as a raw array.

    Built as the derivative of a flat-background curvature perturbation: for a
    cubic potential h_cd(x) = (1/6) s_{cd,pqr} x_p x_q x_r the curvature

        R_jkmn = -(1/2)(h_kn,jm + h_jm,kn - h_km,jn - h_jn,km)

    has nabla_i R_jkmn = -(1/2)(s_kn,ijm + s_jm,ikn - s_km,ijn - s_jn,ikm),
    which satisfies all curvature symmetries and the second Bianchi cyclic
    identity identically.
    """
    return curvature_derivative_from_uniform(uniform(rng, n, n, n, n, n))
