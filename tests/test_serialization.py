"""JSON operator interchange: dense and sparse four-index variants."""

import json

import numpy as np
import pytest

from weylbench import serialization
from weylbench.sampling import random_operator, random_weyl
from weylbench.serialization import operator_from_dict, operator_to_dict

rng = np.random.default_rng(23)


def test_dense_round_trip(tmp_path):
    op = random_operator(rng, 4)
    path = tmp_path / "op.json"
    path.write_text(json.dumps(operator_to_dict(op)), encoding="utf-8")
    back = operator_from_dict(json.loads(path.read_text(encoding="utf-8")))
    assert back.n == 4
    assert np.array_equal(back.mat, op.mat)


def test_dense_rejects_asymmetric_matrix():
    op = random_operator(rng, 4)
    data = operator_to_dict(op)
    data["matrix"][0][1] += 1e-3
    with pytest.raises(ValueError):
        operator_from_dict(data)


def test_dense_rejects_bad_shape_and_basis():
    op = random_operator(rng, 4)
    data = operator_to_dict(op)
    data["basis"] = "unknown"
    with pytest.raises(ValueError):
        operator_from_dict(data)
    data = operator_to_dict(op)
    data["matrix"] = data["matrix"][:-1]
    with pytest.raises(ValueError):
        operator_from_dict(data)


def test_sparse_round_trip():
    W = random_weyl(rng, 4)
    four = W.four()
    comps = {}
    n = 4
    for i in range(n):
        for j in range(i + 1, n):
            for k in range(n):
                for l in range(k + 1, n):
                    v = four[i, j, k, l]
                    if abs(v) > 1e-14:
                        comps[f"{i},{j},{k},{l}"] = v
    op = operator_from_dict({"n": 4, "components": comps})
    assert np.allclose(op.mat, W.mat, atol=1e-13)


def test_sparse_accepts_redundant_consistent_entries():
    op = operator_from_dict({"n": 4, "components": {
        "0,1,0,1": 2.0, "1,0,0,1": -2.0, "0,1,1,0": -2.0}})
    assert op.component(0, 1, 0, 1) == pytest.approx(2.0)


def test_sparse_rejects_pair_symmetry_violation():
    with pytest.raises(ValueError):
        operator_from_dict({"n": 4, "components": {
            "0,1,2,3": 1.0, "2,3,0,1": -1.0}})


def test_sparse_rejects_antisymmetry_violation():
    with pytest.raises(ValueError):
        operator_from_dict({"n": 4, "components": {
            "0,1,2,3": 1.0, "1,0,2,3": 1.0}})
    with pytest.raises(ValueError):
        operator_from_dict({"n": 4, "components": {"0,0,2,3": 0.5}})


def test_sparse_rejects_bad_keys():
    with pytest.raises(ValueError):
        operator_from_dict({"n": 4, "components": {"0,1,2": 1.0}})
    with pytest.raises(ValueError):
        operator_from_dict({"n": 4, "components": {"0,1,2,9": 1.0}})


def test_json_text_round_trip():
    op = random_operator(rng, 5)
    text = json.dumps(operator_to_dict(op), indent=2, sort_keys=True)
    back = operator_from_dict(json.loads(text))
    assert np.array_equal(back.mat, op.mat)
    parsed = json.loads(text)
    assert parsed["basis"] == "lex-pairs"
    assert parsed["n"] == 5


def test_missing_payload_rejected():
    with pytest.raises(ValueError):
        operator_from_dict({"n": 4})


@pytest.mark.parametrize("key", ["0,1,2,3", "0,0,1,2"])
@pytest.mark.parametrize("value", [float("nan"), float("inf")])
def test_sparse_rejects_non_finite_components(key, value):
    # "0,0,1,2" takes the branch for components that must vanish by antisymmetry
    with pytest.raises(ValueError, match="non-finite"):
        operator_from_dict({"n": 4, "components": {key: value}})


@pytest.mark.parametrize("value", [float("nan"), float("inf")])
def test_dense_rejects_non_finite_matrix(value):
    data = operator_to_dict(random_weyl(rng, 4))
    data["matrix"][0][5] = data["matrix"][5][0] = value
    with pytest.raises(ValueError):
        operator_from_dict(json.loads(json.dumps(data)))


def _every_image(W, seed):
    """Sparse keys of every nonzero entry of W's four-index expansion, in shuffled order."""
    four = W.four()
    keys = [",".join(map(str, idx)) for idx in zip(*np.nonzero(four))]
    np.random.default_rng(seed).shuffle(keys)
    return {key: float(four[tuple(map(int, key.split(",")))]) for key in keys}


@pytest.mark.parametrize("n", [4, 5])
def test_sparse_images_load_to_the_dense_matrix_exactly(n):
    W = random_weyl(np.random.default_rng(n), n)
    comps = _every_image(W, n)
    assert len(comps) == n ** 2 * (n - 1) ** 2
    assert np.array_equal(operator_from_dict({"n": n, "components": comps}).mat, W.mat)


@pytest.mark.parametrize("n", [4, 5])
def test_sparse_refuses_any_one_image_changed_beyond_tol(n):
    comps = _every_image(random_weyl(np.random.default_rng(10 + n), n), n)
    for key in comps:
        changed = dict(comps)
        changed[key] += 2e-10 * max(1.0, abs(comps[key]))
        with pytest.raises(ValueError, match="symmetry violated"):
            operator_from_dict({"n": n, "components": changed})


def test_sparse_degenerate_key_within_tol_loads_as_zero():
    assert not operator_from_dict({"n": 4, "components": {"0,0,1,2": 1e-12,
                                                          "1,2,3,3": -5e-11}}).mat.any()
    one = operator_from_dict({"n": 4, "components": {"0,1,2,3": 0.5}})
    both = operator_from_dict({"n": 4, "components": {"2,2,0,1": 1e-11, "0,1,2,3": 0.5}})
    assert np.array_equal(both.mat, one.mat)


def test_dense_shape_is_checked_before_the_pair_basis_is_built(monkeypatch):
    """A mis-shaped matrix is refused without building the pair basis of its n."""
    def no_basis(n):
        raise AssertionError("pair_basis called")

    monkeypatch.setattr(serialization, "pair_basis", no_basis)
    with pytest.raises(ValueError, match=r"does not match n=1400 \(need 979300x979300\)"):
        operator_from_dict({"n": 1400, "matrix": [[0.0]]})


@pytest.mark.parametrize("value", [[[1.0, 2.0], [3.0]], [[1.0, [2.0]], [3.0, 4.0]], [1.0, [2.0]],
                                   [[[1.0]], [2.0]], [[], [1.0]]])
def test_ragged_nests_are_refused_as_a_shape_fault(value):
    """Lists of unequal length or depth are named as ragged, not as a wrong entry type;
    a wrong leaf in a regular nest keeps its type message."""
    with pytest.raises(ValueError, match=r"^m entries are ragged: their nested lists differ"):
        serialization.json_array(value, float, "m")
    with pytest.raises(ValueError, match=r"^m entries must be integers, got true$"):
        serialization.json_array([[1, 2], [True, 3]], int, "m")
    assert serialization.json_array([[1, 2], [3, 4]], int, "m").shape == (2, 2)
