"""JSON interchange format for operators on 2-forms, and the readers of JSON numbers.

Two variants are accepted:

* dense:  {"n": 4, "basis": "lex-pairs", "matrix": [[...], ...]}
* sparse: {"n": 4, "components": {"i,j,k,l": value, ...}}  (0-based indices)

Sparse components are validated on load: entries must be finite and consistent
with the pair symmetry T_ijkl = T_klij and the antisymmetries in (i, j) and
(k, l).  Numbers must be JSON numbers: strings, booleans and null are refused,
and so is a fractional dimension.  An operator, its sparse components and every
input file must be JSON objects.
"""

from __future__ import annotations

import json
from typing import Any

import numpy as np

from .basis import check_pair_dimension, pair_basis, parse_integer
from .tensors import EPS_ALG, Operator2Form, check_symmetric, within_tol


def json_number(value, kind: type, what: str):
    """A JSON number as ``kind``; null, booleans, strings and containers are refused,
    and so is a non-integer where an integer is expected."""
    allowed = (int,) if kind is int else (int, float)
    if isinstance(value, bool) or not isinstance(value, allowed):
        expected = "an integer" if kind is int else "a number"
        raise ValueError(f"{what} must be {expected}, got {json.dumps(value)}")
    try:
        return kind(value)
    except OverflowError:
        raise ValueError(f"{what} is beyond the float range") from None


def json_object(value, what: str) -> dict:
    if not isinstance(value, dict):
        raise ValueError(f"{what} must be a JSON object, got {json.dumps(value)}")
    return value


def json_fields(data: dict, keys: tuple, what: str) -> list:
    """The values of the required fields ``keys``; the first missing one is refused by name."""
    for key in keys:
        if key not in data:
            raise ValueError(f"{what} is missing the field {key!r}")
    return [data[key] for key in keys]


def read_json_object(path: str, what: str) -> dict:
    """The JSON object a file holds; any other JSON value in it is refused."""
    with open(path, "r", encoding="utf-8") as fh:
        return json_object(json.load(fh), what)


def json_array(value, kind: type, what: str) -> np.ndarray:
    """Nested lists of JSON numbers as a ``kind`` array; every leaf is checked in one pass,
    as ``json_number`` checks one number.  A nest whose lists differ in length or depth is
    refused as ragged (numpy's object array keeps such inner lists as its entries)."""
    leaves = np.array(value, dtype=object)
    types = set(map(type, leaves.flat))
    if list in types:
        raise ValueError(f"{what} entries are ragged: their nested lists differ in length or depth")
    allowed = (int,) if kind is int else (int, float)
    wrong = {t for t in types if t is bool or not issubclass(t, allowed)}
    if wrong:
        bad = next(x for x in leaves.flat if type(x) in wrong)
        expected = "integers" if kind is int else "numbers"
        raise ValueError(f"{what} entries must be {expected}, got {json.dumps(bad)}")
    try:
        return leaves.astype(kind)
    except OverflowError:
        limit = "int64" if kind is int else "float"
        raise ValueError(f"{what} entries must lie within the {limit} range") from None


def operator_to_dict(op: Operator2Form) -> dict[str, Any]:
    return {"n": op.n, "basis": "lex-pairs", "matrix": op.mat.tolist()}


def _from_dense(data: dict, n: int, tol: float) -> Operator2Form:
    basis = data.get("basis", "lex-pairs")
    if basis != "lex-pairs":
        raise ValueError(f"unsupported basis {basis!r}, expected 'lex-pairs'")
    mat = json_array(data["matrix"], float, "operator matrix")
    N = n * (n - 1) // 2  # checked before the pair basis of n is built
    if mat.shape != (N, N):
        raise ValueError(f"matrix shape {mat.shape} does not match n={n} (need {N}x{N})")
    return Operator2Form(n, check_symmetric(mat, "pair-basis matrix (T_ijkl = T_klij)", tol))


def _from_sparse(data: dict, n: int, tol: float) -> Operator2Form:
    """Each component's signed value goes to its pair entry and the transposed one.  The
    eight images of a key under the symmetries are those two entries, so a key agrees
    with earlier ones exactly when its value agrees with the entry they left.  The pair
    matrix is sized by n alone, so n is refused past ``basis.MAX_PAIR_MATRIX_BYTES`` first
    (a dense matrix's size is checked against the one the input holds)."""
    pb = pair_basis(check_pair_dimension(n, "operator", 2))
    mat = np.full((pb.size, pb.size), np.nan)
    for key, value in json_object(data["components"], "operator components").items():
        idx = tuple(parse_integer(t, f"component key {key!r} index", 0) for t in key.split(","))
        if len(idx) != 4 or any(t >= n for t in idx):
            raise ValueError(f"bad component key {key!r}")
        i, j, k, l = idx
        v = json_number(value, float, f"component {key!r}")
        if not np.isfinite(v):
            raise ValueError(f"non-finite component {key!r}")
        if i == j or k == l:
            if abs(v) > tol:
                raise ValueError(f"antisymmetry violated: nonzero component {key!r}")
            continue
        a, b, v = pb.pos[i, j], pb.pos[k, l], pb.sign[i, j] * pb.sign[k, l] * v
        cur = mat[a, b]
        if not np.isnan(cur) and not within_tol(cur - v, v, tol):
            raise ValueError(f"symmetry violated at component ({i},{j},{k},{l})")
        mat[a, b] = mat[b, a] = v
    return Operator2Form(n, np.nan_to_num(mat, nan=0.0))


def operator_dimension(data) -> int:
    """The n an operator object declares, read before anything is sized by it."""
    n, = json_fields(json_object(data, "operator"), ("n",), "operator")
    return json_number(n, int, "operator n")


def operator_from_dict(data: dict, tol: float = EPS_ALG) -> Operator2Form:
    n = operator_dimension(data)
    if "matrix" in data:
        return _from_dense(data, n, tol)
    if "components" in data:
        return _from_sparse(data, n, tol)
    raise ValueError("operator JSON needs either 'matrix' or 'components'")
