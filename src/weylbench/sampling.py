"""Seeded random generators for the property-test and audit suites.

Entries are drawn uniformly in [-1, 1] and then symmetrized / projected onto
the relevant constraint space, so every identity check runs on generic inputs
of unit-ish scale.
"""

from __future__ import annotations

from itertools import permutations

import numpy as np

from .algebra import bianchi_project, weyl_split
from .basis import four_tensor_to_pair_matrix, pair_basis, pair_matrix_to_four_tensor
from .tensors import (
    CurvatureTensor,
    Operator2Form,
    PureCurvatureMatrix,
    TwoFormOneForm,
    cyclic_average,
)


def random_symmetric(rng: np.random.Generator, n: int) -> np.ndarray:
    m = rng.uniform(-1.0, 1.0, size=(n, n))
    return (m + m.T) / 2.0


def random_traceless_symmetric(rng: np.random.Generator, n: int) -> np.ndarray:
    m = random_symmetric(rng, n)
    return m - np.trace(m) / n * np.eye(n)


def random_operator(rng: np.random.Generator, n: int) -> Operator2Form:
    N = pair_basis(n).size
    m = rng.uniform(-1.0, 1.0, size=(N, N))
    return Operator2Form(n, (m + m.T) / 2.0)


def random_curvature(rng: np.random.Generator, n: int) -> CurvatureTensor:
    """First-Bianchi projection of a random self-adjoint operator."""
    kerb, _ = bianchi_project(random_operator(rng, n))
    return kerb


def random_weyl(rng: np.random.Generator, n: int) -> CurvatureTensor:
    """Weyl part of a random curvature tensor (trace-free and Bianchi-free)."""
    return CurvatureTensor(n, random_weyl_batch(rng, n, 1)[1][0])


def random_two_form_one_form(rng: np.random.Generator, n: int,
                             trace_free: bool = True) -> TwoFormOneForm:
    """Random A in Lambda^2 x T*; by default with vanishing 1-3 contraction.

    Divergence-type tensors (the class the norm identity |A o' g|^2 =
    (n-3)|A|^2 applies to) always live in that subspace.
    """
    a = rng.uniform(-1.0, 1.0, size=(n, n, n))
    a = a - np.transpose(a, (1, 0, 2))
    if trace_free:
        c = np.einsum('iji->j', a)
        t = np.einsum('im,j->ijm', np.eye(n), c) - np.einsum('jm,i->ijm', np.eye(n), c)
        a = a - t / (n - 1)
    return TwoFormOneForm.from_full(a)


def random_pure_matrix(rng: np.random.Generator, n: int) -> PureCurvatureMatrix:
    """Random symmetric hollow matrix with zero row sums (closed-form projection)."""
    w = random_symmetric(rng, n)
    np.fill_diagonal(w, 0.0)
    r = w.sum(axis=1)
    lam_sum = r.sum() / (2 * n - 2)
    lam = (r - lam_sum) / (n - 2)
    w = w - lam[:, None] - lam[None, :]
    np.fill_diagonal(w, 0.0)
    return PureCurvatureMatrix(n, w)


def random_ricci_derivative(rng: np.random.Generator, n: int) -> np.ndarray:
    """Formal nabla Rc: (m, i, j) array symmetric in the last two slots."""
    c = rng.uniform(-1.0, 1.0, size=(n, n, n))
    return (c + np.transpose(c, (0, 2, 1))) / 2.0


def random_weyl_batch(rng: np.random.Generator, n: int,
                      count: int) -> tuple[np.ndarray, np.ndarray]:
    """Batch of Weyl-type tensors; returns (four-index array, pair matrices)."""
    N = pair_basis(n).size
    m = rng.uniform(-1.0, 1.0, size=(count, N, N))
    four = pair_matrix_to_four_tensor(n, (m + np.transpose(m, (0, 2, 1))) / 2.0)
    four = weyl_split(four - cyclic_average(four)).W
    return four, four_tensor_to_pair_matrix(n, four)


def random_curvature_derivative_full(rng: np.random.Generator, n: int) -> np.ndarray:
    """Formal nabla R satisfying the second Bianchi identity exactly, as a raw array.

    Built as the derivative of a flat-background curvature perturbation: for a
    cubic potential h_cd(x) = (1/6) s_{cd,pqr} x_p x_q x_r the curvature

        R_jkmn = -(1/2)(h_kn,jm + h_jm,kn - h_km,jn - h_jn,km)

    has nabla_i R_jkmn = -(1/2)(s_kn,ijm + s_jm,ikn - s_km,ijn - s_jn,ikm),
    which satisfies all curvature symmetries and the second Bianchi cyclic
    identity identically.
    """
    s = rng.uniform(-1.0, 1.0, size=(n, n, n, n, n))
    s = (s + np.transpose(s, (1, 0, 2, 3, 4))) / 2.0
    acc = np.zeros_like(s)
    for perm in permutations((2, 3, 4)):
        acc += np.transpose(s, (0, 1) + perm)
    s = acc / 6.0
    # D[i,j,k,m,n] = -(1/2)(s[k,n,i,j,m] + s[j,m,i,k,n] - s[k,m,i,j,n] - s[j,n,i,k,m])
    t1 = np.transpose(s, (2, 3, 0, 4, 1))  # t1[i,j,k,m,n] = s[k,n,i,j,m]
    t2 = np.transpose(s, (2, 0, 3, 1, 4))  # t2[i,j,k,m,n] = s[j,m,i,k,n]
    t3 = np.transpose(s, (2, 3, 0, 1, 4))  # t3[i,j,k,m,n] = s[k,m,i,j,n]
    t4 = np.transpose(s, (2, 0, 3, 4, 1))  # t4[i,j,k,m,n] = s[j,n,i,k,m]
    return -0.5 * (t1 + t2 - t3 - t4)
