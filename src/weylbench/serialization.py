"""JSON interchange format for operators on 2-forms.

Two variants are accepted:

* dense:  {"n": 4, "basis": "lex-pairs", "matrix": [[...], ...]}
* sparse: {"n": 4, "components": {"i,j,k,l": value, ...}}  (0-based indices)

Sparse components are validated on load: entries must be finite and consistent
with the pair symmetry T_ijkl = T_klij and the antisymmetries in (i, j) and
(k, l).
"""

from __future__ import annotations

from typing import Any

import numpy as np

from .basis import pair_basis
from .tensors import EPS_ALG, Operator2Form, check_symmetric, within_tol


def operator_to_dict(op: Operator2Form) -> dict[str, Any]:
    return {"n": op.n, "basis": "lex-pairs", "matrix": op.mat.tolist()}


def _from_dense(data: dict, tol: float) -> Operator2Form:
    n = int(data["n"])
    basis = data.get("basis", "lex-pairs")
    if basis != "lex-pairs":
        raise ValueError(f"unsupported basis {basis!r}, expected 'lex-pairs'")
    mat = np.asarray(data["matrix"], dtype=float)
    N = pair_basis(n).size
    if mat.shape != (N, N):
        raise ValueError(f"matrix shape {mat.shape} does not match n={n} (need {N}x{N})")
    return Operator2Form(n, check_symmetric(mat, "pair-basis matrix (T_ijkl = T_klij)", tol))


def _from_sparse(data: dict, tol: float) -> Operator2Form:
    n = int(data["n"])
    four = np.full((n, n, n, n), np.nan)

    def put(i: int, j: int, k: int, l: int, v: float, where: str) -> None:
        cur = four[i, j, k, l]
        if not np.isnan(cur) and not within_tol(cur - v, v, tol):
            raise ValueError(f"symmetry violated at component ({i},{j},{k},{l}) via {where}")
        four[i, j, k, l] = v

    for key, value in data["components"].items():
        idx = tuple(int(t) for t in key.split(","))
        if len(idx) != 4 or any(t < 0 or t >= n for t in idx):
            raise ValueError(f"bad component key {key!r}")
        i, j, k, l = idx
        v = float(value)
        if not np.isfinite(v):
            raise ValueError(f"non-finite component {key!r}")
        if i == j or k == l:
            if abs(v) > tol:
                raise ValueError(f"antisymmetry violated: nonzero component {key!r}")
            continue
        put(i, j, k, l, v, "identity")
        put(j, i, k, l, -v, "antisymmetry in (i, j)")
        put(i, j, l, k, -v, "antisymmetry in (k, l)")
        put(j, i, l, k, v, "double antisymmetry")
        put(k, l, i, j, v, "pair symmetry")
        put(l, k, i, j, -v, "pair symmetry + antisymmetry")
        put(k, l, j, i, -v, "pair symmetry + antisymmetry")
        put(l, k, j, i, v, "pair symmetry + double antisymmetry")
    four = np.nan_to_num(four, nan=0.0)
    return Operator2Form.from_four_tensor(four, tol=tol)


def operator_from_dict(data: dict, tol: float = EPS_ALG) -> Operator2Form:
    if "matrix" in data:
        return _from_dense(data, tol)
    if "components" in data:
        return _from_sparse(data, tol)
    raise ValueError("operator JSON needs either 'matrix' or 'components'")
