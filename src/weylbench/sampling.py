"""Seeded random generators for the property-test and audit suites.

Entries are drawn uniformly in [-1, 1] and then symmetrized / projected onto
the relevant constraint space, so every identity check runs on generic inputs
of unit-ish scale.
"""

from __future__ import annotations

from itertools import permutations

import numpy as np

from .algebra import weyl_matrix
from .basis import bianchi_image, pair_basis
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


def weyl_from_uniform(n: int, m: np.ndarray) -> np.ndarray:
    """Pair matrices of the Weyl parts of the curvature tensors built from (..., N, N) draws."""
    return weyl_matrix(n, symmetrized(m))


def two_form_one_form_from_uniform(a: np.ndarray) -> np.ndarray:
    """(..., n, n, n) draws made antisymmetric in the first two slots and 1-3 trace-free,
    the subspace of divergence-type tensors (where |A o' g|^2 = (n-3)|A|^2 holds)."""
    n = a.shape[-1]
    a = a - np.swapaxes(a, -3, -2)
    c = np.einsum('...iji->...j', a)
    t = np.einsum('im,...j->...ijm', np.eye(n), c) - np.einsum('jm,...i->...ijm', np.eye(n), c)
    return a - t / (n - 1)


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


def curvature_derivative_from_uniform(s: np.ndarray) -> np.ndarray:
    """Formal nabla R from (..., n, n, n, n, n) draws; see random_curvature_derivative_full."""
    lead = tuple(range(s.ndim - 5))

    def t(x: np.ndarray, axes: tuple[int, ...]) -> np.ndarray:
        return np.transpose(x, lead + tuple(len(lead) + a for a in axes))

    s = (s + t(s, (1, 0, 2, 3, 4))) / 2.0
    acc = np.zeros_like(s)
    for perm in permutations((2, 3, 4)):
        acc += t(s, (0, 1) + perm)
    s = acc / 6.0
    # D[i,j,k,m,n] = -(1/2)(s[k,n,i,j,m] + s[j,m,i,k,n] - s[k,m,i,j,n] - s[j,n,i,k,m])
    return -0.5 * (t(s, (2, 3, 0, 4, 1)) + t(s, (2, 0, 3, 1, 4))
                   - t(s, (2, 3, 0, 1, 4)) - t(s, (2, 0, 3, 4, 1)))


def random_symmetric(rng: np.random.Generator, n: int) -> np.ndarray:
    return symmetrized(uniform(rng, n, n))


def random_traceless_symmetric(rng: np.random.Generator, n: int) -> np.ndarray:
    m = random_symmetric(rng, n)
    return m - np.trace(m) / n * np.eye(n)


def random_operator(rng: np.random.Generator, n: int) -> Operator2Form:
    N = pair_basis(n).size
    return Operator2Form(n, symmetrized(uniform(rng, N, N)))


def random_curvature(rng: np.random.Generator, n: int) -> CurvatureTensor:
    """First-Bianchi projection of a random self-adjoint operator."""
    N = pair_basis(n).size
    return CurvatureTensor(n, curvature_from_uniform(n, uniform(rng, N, N)))


def random_weyl(rng: np.random.Generator, n: int) -> CurvatureTensor:
    """Weyl part of a random curvature tensor (trace-free and Bianchi-free)."""
    return CurvatureTensor(n, random_weyl_batch(rng, n, 1)[0])


def random_weyl_batch(rng: np.random.Generator, n: int, count: int) -> np.ndarray:
    """Pair matrices (count, N, N) of a batch of Weyl-type tensors."""
    N = pair_basis(n).size
    return weyl_from_uniform(n, uniform(rng, count, N, N))


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
