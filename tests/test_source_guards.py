"""Static checks on the package source.

Without ``optimize``, ``np.einsum`` sums over the product of all distinct
indices in one nested loop; for the four-index contractions of this package
that is n^6 to n^8 once there are four or more operands.  Such contractions go
through reshape + matmul kernels instead, e.g. ``algebra.congruence_four``.
"""

import ast
from pathlib import Path

SRC = Path(__file__).resolve().parent.parent / "src" / "weylbench"
MAX_EINSUM_OPERANDS = 3


def einsum_operand_counts(path: Path) -> list[tuple[int, int]]:
    """(line, operand count) of every ``np.einsum``/``numpy.einsum`` call in a file."""
    out = []
    for node in ast.walk(ast.parse(path.read_text(encoding="utf-8"), str(path))):
        if (isinstance(node, ast.Call) and isinstance(node.func, ast.Attribute)
                and node.func.attr == "einsum" and isinstance(node.func.value, ast.Name)
                and node.func.value.id in ("np", "numpy")):
            out.append((node.lineno, len(node.args) - 1))
    return out


def test_guard_sees_einsum_calls():
    counts = einsum_operand_counts(SRC / "algebra.py")
    assert counts and all(k >= 1 for _, k in counts)


def test_no_einsum_with_more_than_three_operands():
    files = sorted(SRC.glob("*.py"))
    assert files
    offenders = [f"{path.name}:{line} has {k} operands"
                 for path in files for line, k in einsum_operand_counts(path)
                 if k > MAX_EINSUM_OPERANDS]
    assert not offenders, offenders
