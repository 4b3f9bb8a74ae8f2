"""Static checks on the package source.

Without ``optimize``, ``np.einsum`` sums over the product of all distinct
indices in one nested loop; for the four-index contractions of this package
that is n^6 to n^8 once there are four or more operands.  Such contractions go
through reshape + matmul kernels instead, e.g. ``algebra.congruence_four``.

The identity suite runs on raw arrays: the typed containers and their typed
wrappers validate and copy per object, so ``suite.py`` neither imports nor
calls them.
"""

import ast
from pathlib import Path

SRC = Path(__file__).resolve().parent.parent / "src" / "weylbench"
MAX_EINSUM_OPERANDS = 3
TYPED_NAMES = {"Operator2Form", "CurvatureTensor", "decompose", "kulkarni_nomizu",
               "dot_product", "sharp_product", "tri"}


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


def typed_uses(path: Path) -> list[str]:
    """Imports, calls and attribute reads of TYPED_NAMES in a file."""
    out = []
    for node in ast.walk(ast.parse(path.read_text(encoding="utf-8"), str(path))):
        if isinstance(node, (ast.Import, ast.ImportFrom)):
            out += [f"{node.lineno}: import {a.name}" for a in node.names
                    if a.name.rsplit(".", 1)[-1] in TYPED_NAMES]
        elif isinstance(node, ast.Name) and node.id in TYPED_NAMES:
            out.append(f"{node.lineno}: {node.id}")
        elif isinstance(node, ast.Attribute) and node.attr in TYPED_NAMES:
            out.append(f"{node.lineno}: .{node.attr}")
    return out


def test_guard_sees_typed_names(tmp_path):
    probe = tmp_path / "probe.py"
    probe.write_text("from weylbench.algebra import tri\nimport weylbench.tensors as t\n"
                     "t.CurvatureTensor(4, m)\ndecompose(R)\n")
    assert len(typed_uses(probe)) == 3


def test_suite_stays_on_raw_arrays():
    assert typed_uses(SRC / "suite.py") == []
