"""Static checks on the package source.

Without ``optimize``, ``np.einsum`` sums over the product of all distinct
indices in one nested loop; for the four-index contractions of this package
that is n^6 to n^8 once there are four or more operands.  Such contractions go
through reshape + matmul kernels instead, e.g. the pair-matrix congruence
L^T W L with L = (1/2) ``algebra.kn_matrix(A, A)``.

The identity suite runs on raw arrays: the typed containers and their typed
wrappers validate and copy per object, so ``suite.py`` neither imports nor
calls them.

Each invariant is decided in one place: the typed products (``kulkarni_nomizu``,
``dot_product``, ``sharp_product``, ``tri``) are called only inside ``algebra.py``
(elsewhere the raw kernels such as ``kn_g_pairing`` serve), and the trace-free,
traceless and first-Bianchi checks go through the guards ``check_trace_free``,
``check_traceless`` and ``check_bianchi``, so no other module hands such a
residual to ``check_small`` itself.  Symmetry goes through ``check_symmetric``
(which takes leading batch axes): outside ``tensors.py`` no ``check_small``
is handed ``x - x.T`` or ``x - swapaxes(x, -1, -2)``.

There is one inner product: outside ``tensors.py`` no code takes a norm with
``np.linalg.norm``, pairs two operands with an einsum that sums two or more of their
indices, or sums a whole ``x * y`` or ``x ** 2`` itself; ``<A, B>`` and ``|A|^2`` are
``tensors.frobenius`` (and ``inner``, ``norm`` on it).  The chart's contractions with
g^-1 (S = <Rc, g^-1> in ``_decomp_coords``, the g^ab sum of the Laplacian in
``_assemble``) are metric traces, not pairings of the norm convention, and stay einsums.

A gathered stack is multiplied in its own buffer (``basis._take_times``): no expression
multiplies a fresh ``_take_trailing(...)`` result out of place.

Optional parameters are counted, so a knob that only tests set cannot come
back unnoticed.

Every batched pass is planned by ``basis._chunks`` under ``CHUNK_ENTRIES``, and
``basis._in_passes`` is the one loop that fills tables from passes: no package code
steps a ``range(start, stop, step)`` except ``bounds.audit_cubic_bounds``, whose fixed
64-sample batch is the one left, so a pass loop written by hand fails here.

Weyl-type operators cross module boundaries as pair matrices: the samplers, the
bounds, the first-Bianchi and Weyl projections, the cubic and sharp kernels and
the trace-free and Bianchi guards run without the n^4 round trip.  The four-index
expansion is a boundary format: outside ``Operator2Form.four`` and
``CovDerivCurvature.full`` and the reference kernels the benchmark traces, no package
code calls ``.four()``, ``pair_matrix_to_four_tensor`` or ``cyclic_average`` (the
first-Bianchi sum on four-tensors, now the tests' oracle in ``tests/reference.py``).
2-form-valued 1-forms (delta W, P, Q and the circ-prime input) run as (..., N, n) pair
components: outside ``tensors.py`` no package code calls ``from_full``, ``.full()`` or
``pair_form_to_full3``, and ``full3_to_pair_form`` only in the sampler's one read of its
antisymmetrised draws (``sampling.two_form_one_form_from_uniform``).
Each curvature contraction has one runtime route: R(h) = sum R_ipjq h_pq is
``algebra.curvature_action`` on slot matrices, the first-Bianchi sum
``basis.bianchi_image``, the Ricci trace ``basis.pair_ricci`` and the Bochner curvature
term ``algebra.bochner_curvature_term``.
``sampling.py`` calls neither ``cyclic_average`` nor ``weyl_split`` (its Weyl
parts come from ``weyl_matrix``), neither
``bounds.py`` nor ``sampling.py`` calls ``.four()`` or
``pair_matrix_to_four_tensor``, and no kernel that reads pair matrices
(``basis.bianchi_image``, ``pair_ricci``, ``algebra.weyl_matrix``, ``cubic_parts``,
``sharp_matrix``, ``check_trace_free``, ``tensors.check_bianchi``) calls
``pair_matrix_to_four_tensor``.  The sparse operator loader writes pair entries
directly: ``serialization.py`` calls neither ``from_four_tensor`` nor
``pair_matrix_to_four_tensor``.  The suite takes its Weyl samples from
``sampling.random_weyl_batch``, so it calls no ``weyl_matrix`` of its own.
The Weyl split runs on pair matrices, in the frame (``algebra.weyl_parts``) and in
a chart's coordinates (``algebra.weyl_split`` with the row's metric), and the
Kulkarni-Nomizu product has one pair-matrix kernel (``algebra.kn_matrix``): the
suite's identity chunk calls neither ``kn_four`` nor ``four_tensor_to_pair_matrix``,
``algebra.decompose`` calls no ``.four()``, the chart's frame decomposition
(``chart._assemble``) calls no ``kn_four``, none of ``chart._decomp_coords``,
``chart._w_norm_sq_at``, ``dim4._berger_frame_matrix`` and
``algebra.kulkarni_nomizu`` calls ``kn_four``, ``.four()`` or
``pair_matrix_to_four_tensor``, and the model catalogue builds its curvature as a
pair matrix in one checked step: ``models.py`` calls none of ``from_operator``,
``kn_four``, ``from_four_tensor`` and ``.four()``.  The chart splits W once per
assembly: ``chart.py`` calls ``weyl_split`` exactly once, in ``_Lattice.__init__``,
and ``_decomp_coords`` (R, Rc and S) calls none.  The chart keeps R and W as pair
matrices from the coordinate split to the frame: neither ``chart._assemble`` nor
``chart._Lattice.nabla`` (its one covariant derivative) calls
``four_tensor_to_pair_matrix``, ``pair_matrix_to_four_tensor``,
``from_four_tensor`` or ``.four()``, and ``_assemble``'s ``to_frame`` is the one
chart function that calls ``tensordot`` (its one frame change, for R, its derivatives,
grad S and grad |W|): ``_assemble`` applies the frame F in no ``@`` of its own.  The chart
forms R at the index pairs a < b and reads Rc and the Ricci identity's R through
``pair_slots``, so ``chart.py`` imports neither ``four_tensor_to_pair_matrix`` nor
``pair_matrix_to_four_tensor``.  The suite's
second-Bianchi and circ-prime families run at their (triple, pair) components:
``suite.py`` imports none of ``second_bianchi_full``, ``circ_prime_full``,
``full5_to_triple_pair`` and ``kn_four``, and it reads the derivative draws straight
into pair matrices, so it imports neither ``four_tensor_to_pair_matrix`` nor
``curvature_derivative_from_uniform``.  The Kulkarni-Nomizu product has one kernel,
g = I included: only ``algebra.kn_matrix`` reads its ``_kn_positions`` table, and no
package function is named ``kn_identity*``.

The cubic oracle projects only through ``bounds._project_feasible``, called by that
name once for its starts and once in the ascent loop of its one kernel,
``wcubic_ascents``, and calls none of the projection's steps itself, so the benchmark
tracer's span on the module attribute counts every step.

A chart metric's evaluator ``fn`` is called only inside ``ChartMetric.table``,
so every metric evaluation of the package goes through one call site and its
shape and positive-definiteness checks.

Arrays are made read-only in three places only: ``basis.read_only_cache`` for the
cached index tables, ``tensors._frozen`` for container components and the basis
constructors ``basis.pair_basis`` and ``basis.triple_basis`` for the arrays inside
their dataclasses.

Every CLI option is read: the tolerance names each subcommand declares in
``cli.build_parser`` are exactly the ``tols["..."]`` keys its ``cmd_*`` reads, and
``--seed`` is declared exactly where the ``cmd_*`` reads ``args.seed``.

The package holds only runtime code: every top-level function in ``src/weylbench``
is exported by ``__init__.py``, referred to by other package code, traced by the
benchmark (``TRACED_FUNCTIONS`` in ``benchmarks/tracing.py``, read only), or on
the short allow-list of helpers that scripts and tests build inputs with.  Oracles
that only tests call live in ``tests/reference.py``.
"""

import ast
import importlib.util
from collections import Counter
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


TYPED_PRODUCTS = {"kulkarni_nomizu", "dot_product", "sharp_product", "tri"}
GUARDED_RESIDUALS = {"ricci_contraction", "_ricci_trace", "pair_ricci", "trace",
                     "bianchi_residual", "cyclic_average", "bianchi_image"}


def _called_name(call: ast.Call) -> str | None:
    """The function name of a call to ``f(...)`` or ``x.f(...)``."""
    func = call.func
    return func.id if isinstance(func, ast.Name) else getattr(func, "attr", None)


def _calls(path: Path) -> list[ast.Call]:
    tree = ast.parse(path.read_text(encoding="utf-8"), str(path))
    return [node for node in ast.walk(tree) if isinstance(node, ast.Call)]


def typed_product_calls(path: Path) -> list[str]:
    return [f"{path.name}:{c.lineno} {_called_name(c)}" for c in _calls(path)
            if _called_name(c) in TYPED_PRODUCTS]


def _is_transpose_of(node: ast.AST, x: ast.AST) -> bool:
    """Whether node is ``x.T`` or ``swapaxes(x, -1, -2)`` (either axis order)."""
    if isinstance(node, ast.Attribute) and node.attr == "T":
        return ast.dump(node.value) == ast.dump(x)
    return (isinstance(node, ast.Call) and _called_name(node) == "swapaxes"
            and len(node.args) == 3 and ast.dump(node.args[0]) == ast.dump(x)
            and sorted(ast.unparse(a) for a in node.args[1:]) == ["-1", "-2"])


def hand_made_guards(path: Path) -> list[str]:
    """``check_small`` calls whose residual is a trace, Ricci contraction or Bianchi sum,
    or a symmetry residual ``x - x.T`` or ``x - swapaxes(x, -1, -2)``."""
    out = []
    for c in _calls(path):
        if _called_name(c) != "check_small":
            continue
        resid = c.args[0] if c.args else next(
            (k.value for k in c.keywords if k.arg == "resid"), None)
        if isinstance(resid, ast.Call) and _called_name(resid) in GUARDED_RESIDUALS:
            out.append(f"{path.name}:{c.lineno} {_called_name(resid)}")
        elif (isinstance(resid, ast.BinOp) and isinstance(resid.op, ast.Sub)
              and _is_transpose_of(resid.right, resid.left)):
            out.append(f"{path.name}:{c.lineno} symmetric")
    return out


def test_invariant_guards_see_their_calls(tmp_path):
    probe = tmp_path / "probe.py"
    probe.write_text("x = kulkarni_nomizu(E, g).mat * algebra.dot_product(W, W).mat\n"
                     "check_small(np.trace(E), E, tol, 'E')\n"
                     "check_small(resid=cyclic_average(T), entries=m, tol=t, message='b')\n"
                     "check_small(T - T.T, T, tol, 'symmetric')\n"
                     "check_small(basis.pair_ricci(n, m), m, tol, 'rc')\n"
                     "check_small(bianchi_image(n, m), m, tol, 'b', lead=1)\n"
                     "check_small(m - np.swapaxes(m, -2, -1), m, tol, 's', lead=1)\n"
                     "check_small(a - b.T, a, tol, 'two matrices')\n"
                     "check_small(m - np.swapaxes(m, 1, 2), m, tol, 'slices')\n")
    assert len(typed_product_calls(probe)) == 2
    assert hand_made_guards(probe) == ["probe.py:2 trace", "probe.py:3 cyclic_average",
                                       "probe.py:4 symmetric", "probe.py:5 pair_ricci",
                                       "probe.py:6 bianchi_image", "probe.py:7 symmetric"]


def test_typed_products_are_called_only_in_algebra():
    files = [p for p in sorted(SRC.glob("*.py")) if p.name != "algebra.py"]
    assert files
    offenders = [hit for path in files for hit in typed_product_calls(path)]
    assert not offenders, offenders


def test_trace_and_bianchi_decisions_go_through_the_guards():
    files = [p for p in sorted(SRC.glob("*.py")) if p.name != "tensors.py"]
    assert files
    # algebra.py holds check_trace_free; only its symmetry residuals count
    offenders = [hit for path in files for hit in hand_made_guards(path)
                 if path.name != "algebra.py" or hit.endswith(" symmetric")]
    assert not offenders, offenders


def called_names(path: Path, function: str | None = None) -> set[str]:
    """Names called in a file, or only inside its top-level function (or method
    ``Class.method``) ``function``."""
    tree = ast.parse(path.read_text(encoding="utf-8"), str(path))
    for name in function.split(".") if function else ():
        tree = next(node for node in tree.body
                    if isinstance(node, (ast.FunctionDef, ast.ClassDef)) and node.name == name)
    return {_called_name(node) for node in ast.walk(tree) if isinstance(node, ast.Call)}


def test_guard_sees_calls_by_function(tmp_path):
    probe = tmp_path / "probe.py"
    probe.write_text("def f(x):\n    return weyl_split(x).W\n"
                     "def g(x):\n    return t.cyclic_average(x)\n"
                     "class K:\n    def f(self, x):\n        return x.four()\n")
    assert {"weyl_split", "cyclic_average", "four"} <= called_names(probe)
    assert called_names(probe, "f") == {"weyl_split"}
    assert called_names(probe, "g") == {"cyclic_average"}
    assert called_names(probe, "K.f") == {"four"}


PAIR_NATIVE_KERNELS = {"basis.py": ("bianchi_image", "pair_ricci"),
                       "algebra.py": ("weyl_matrix", "cubic_parts", "sharp_matrix",
                                      "check_trace_free"),
                       "tensors.py": ("check_bianchi",)}


def test_pair_native_projections_skip_the_four_tensor_round_trip():
    assert not called_names(SRC / "sampling.py") & {"cyclic_average", "weyl_split"}
    for name in ("bounds.py", "sampling.py"):
        assert not called_names(SRC / name) & {"four", "pair_matrix_to_four_tensor"}, name
    for name, functions in PAIR_NATIVE_KERNELS.items():
        for function in functions:
            assert "pair_matrix_to_four_tensor" not in called_names(SRC / name, function)
    assert not called_names(SRC / "serialization.py") & {"from_four_tensor",
                                                         "pair_matrix_to_four_tensor"}


#: the public boundary methods that expand pair matrices into full four-index tensors
FOUR_INDEX_BOUNDARY = {("tensors.py", "Operator2Form.four"),
                       ("tensors.py", "CovDerivCurvature.full")}
FOUR_INDEX_EXPANDERS = {"four", "pair_matrix_to_four_tensor", "cyclic_average"}


def scoped_calls(path: Path) -> list[tuple[ast.Call, str]]:
    """Every call in a file with its scope: the enclosing class and function names joined
    by dots, ``<module>`` outside them."""
    out = []

    def visit(node: ast.AST, scope: tuple) -> None:
        for child in ast.iter_child_nodes(node):
            if isinstance(child, ast.Call):
                out.append((child, ".".join(scope) or "<module>"))
            named = isinstance(child, (ast.FunctionDef, ast.AsyncFunctionDef, ast.ClassDef))
            visit(child, scope + (child.name,) if named else scope)

    visit(ast.parse(path.read_text(encoding="utf-8"), str(path)), ())
    return out


def four_index_call_sites(path: Path) -> list[tuple[str, str, str]]:
    """(file:line, scope, name) of every call of a ``FOUR_INDEX_EXPANDERS`` name in a file."""
    return [(f"{path.name}:{call.lineno}", scope, _called_name(call))
            for call, scope in scoped_calls(path) if _called_name(call) in FOUR_INDEX_EXPANDERS]


def test_guard_sees_four_index_calls(tmp_path):
    probe = tmp_path / "probe.py"
    probe.write_text("class T:\n    def four(self):\n"
                     "        return pair_matrix_to_four_tensor(1, m)\n"
                     "def f(W):\n    return W.four() + b.cyclic_average(x)\n"
                     "y = full(z)\n")
    assert four_index_call_sites(probe) == [
        ("probe.py:3", "T.four", "pair_matrix_to_four_tensor"), ("probe.py:5", "f", "four"),
        ("probe.py:5", "f", "cyclic_average")]


def test_four_index_tensors_form_only_at_the_boundary():
    """No runtime route expands pair matrices into four-index tensors: ``.four()``,
    ``pair_matrix_to_four_tensor`` and ``cyclic_average`` are called only by the boundary
    methods and by the reference kernels the benchmark traces."""
    traced = {(f"{module}.py", name) for module, name in traced_function_pairs()}
    hits = [(path.name, hit) for path in sorted(SRC.glob("*.py"))
            for hit in four_index_call_sites(path)]
    assert {(name, scope) for name, (_, scope, _) in hits} >= FOUR_INDEX_BOUNDARY
    assert [hit for name, hit in hits if (name, hit[1]) not in FOUR_INDEX_BOUNDARY
            and (name, hit[1].split(".")[0]) not in traced] == []


#: the calls that expand (N, n) pair components into (n, n, n) tensors or read them back off
THREE_INDEX_CONVERTERS = {"from_full", "full", "pair_form_to_full3", "full3_to_pair_form"}


def three_index_call_sites(path: Path) -> list[tuple[str, str, str]]:
    """(file:line, scope, name) of every call of a ``THREE_INDEX_CONVERTERS`` name in a file;
    a ``full`` call counts only as ``x.full()`` with no arguments (``np.full(shape, v)`` is not)."""
    return [(f"{path.name}:{call.lineno}", scope, name) for call, scope in scoped_calls(path)
            for name in [_called_name(call)] if name in THREE_INDEX_CONVERTERS
            and (name != "full" or isinstance(call.func, ast.Attribute) and not call.args)]


def test_guard_sees_three_index_calls(tmp_path):
    probe = tmp_path / "probe.py"
    probe.write_text("def f(A, n):\n    return A.full(), np.full((n, n), 0.0)\n"
                     "class K:\n    def g(self, x):\n"
                     "        return TwoFormOneForm.from_full(x), b.full3_to_pair_form(4, x)\n"
                     "y = pair_form_to_full3(4, z)\n")
    assert three_index_call_sites(probe) == [
        ("probe.py:2", "f", "full"), ("probe.py:5", "K.g", "from_full"),
        ("probe.py:5", "K.g", "full3_to_pair_form"),
        ("probe.py:6", "<module>", "pair_form_to_full3")]


def test_two_form_one_forms_stay_pair_components():
    """delta W, P, Q and the circ-prime input run as (..., N, n) pair components: only
    ``tensors.py`` (``TwoFormOneForm.from_full`` and ``full``, the boundary methods) calls
    ``from_full``, ``.full()`` or ``pair_form_to_full3``, and ``full3_to_pair_form`` is called
    there and in the sampler's one read of its antisymmetrised draws."""
    sampler = ("sampling.py", "two_form_one_form_from_uniform", "full3_to_pair_form")
    hits = [(path.name, scope, name) for path in sorted(SRC.glob("*.py"))
            for _, scope, name in three_index_call_sites(path)]
    assert {"pair_form_to_full3", "full3_to_pair_form"} <= {
        name for file, _, name in hits if file == "tensors.py"}
    assert [hit for hit in hits if hit[0] != "tensors.py" and hit != sampler] == []
    assert sampler in hits


def einsum_index_counts(path: Path, function: str) -> list[int]:
    """Index counts (``...`` aside) of every operand and output of the ``np.einsum`` calls
    with literal subscripts inside the top-level ``function`` of a file."""
    tree = ast.parse(path.read_text(encoding="utf-8"), str(path))
    scope = next(node for node in tree.body
                 if isinstance(node, ast.FunctionDef) and node.name == function)
    return [len(term.replace("...", "")) for node in ast.walk(scope)
            if isinstance(node, ast.Call) and _called_name(node) == "einsum"
            and node.args and isinstance(node.args[0], ast.Constant)
            for term in node.args[0].value.replace("->", ",").split(",")]


def test_guard_sees_einsum_indices(tmp_path):
    probe = tmp_path / "probe.py"
    probe.write_text("def f(R4, h):\n    return np.einsum('...ipjq,...pq->...ij', R4, h)\n")
    assert einsum_index_counts(probe, "f") == [4, 2, 2]


def test_each_curvature_contraction_has_one_route():
    """R(h) goes through ``curvature_action`` (the chart's Ricci form under g^-1, the
    suite's contraction and quadratic forms), the Bochner curvature term through
    ``bochner_curvature_term`` (chart and models), and the suite's identity chunk forms
    no four-index tensor: none of its einsum operands carries four indices."""
    for name, function in (("chart.py", "_decomp_coords"), ("suite.py", "_identity_chunk"),
                           ("algebra.py", "quadratic_form")):
        assert "curvature_action" in called_names(SRC / name, function), function
    for name, function in (("chart.py", "identity_residual_report"),
                           ("models.py", "symmetric_space_identity_report")):
        called = called_names(SRC / name, function)
        assert "bochner_curvature_term" in called, function
        assert not called & {"cubic_parts", "kn_g_pairing"}, function
    assert max(einsum_index_counts(SRC / "suite.py", "_identity_chunk"), default=0) < 4


def test_suite_draws_weyl_samples_only_through_the_sampler():
    assert "weyl_matrix" not in called_names(SRC / "suite.py")


def frame_changes(path: Path) -> list[str]:
    """``scope kind`` of each frame change in a file: every ``tensordot`` call, and every
    ``@`` with the frame ``F`` or ``F.T`` as an operand."""
    def is_frame(node):
        return (isinstance(node, ast.Name) and node.id == "F") or (
            isinstance(node, ast.Attribute) and node.attr == "T" and is_frame(node.value))
    out = []

    def visit(node: ast.AST, scope: tuple) -> None:
        for child in ast.iter_child_nodes(node):
            where = ".".join(scope)
            if isinstance(child, ast.Call) and _called_name(child) == "tensordot":
                out.append(f"{where} tensordot")
            elif (isinstance(child, ast.BinOp) and isinstance(child.op, ast.MatMult)
                  and (is_frame(child.left) or is_frame(child.right))):
                out.append(f"{where} @")
            named = isinstance(child, (ast.FunctionDef, ast.ClassDef))
            visit(child, scope + (child.name,) if named else scope)

    visit(ast.parse(path.read_text(encoding="utf-8"), str(path)), ())
    return out


def test_guard_sees_frame_changes(tmp_path):
    probe = tmp_path / "probe.py"
    probe.write_text("def f(F, v, T):\n    def g(T):\n        return np.tensordot(T, F, 1)\n"
                     "    return F.T @ v, v @ F, L @ v, g(T)\n")
    assert frame_changes(probe) == ["f.g tensordot", "f @", "f @"]


#: (file, function) pairs that split or multiply on pair matrices alone
PAIR_MATRIX_WEYL_STAGES = (("chart.py", "_decomp_coords"), ("chart.py", "_w_norm_sq_at"),
                           ("dim4.py", "_berger_frame_matrix"), ("algebra.py", "kulkarni_nomizu"))


def test_frame_weyl_split_runs_on_pair_matrices():
    assert not called_names(SRC / "suite.py", "_identity_chunk") & {
        "kn_four", "four_tensor_to_pair_matrix"}
    assert "four" not in called_names(SRC / "algebra.py", "decompose")
    assert "kn_four" not in called_names(SRC / "chart.py", "_assemble")
    for function in ("_assemble", "_Lattice.nabla"):  # R and W stay pair matrices
        assert not called_names(SRC / "chart.py", function) & {
            "four_tensor_to_pair_matrix", "pair_matrix_to_four_tensor", "from_four_tensor",
            "four"}, function
    # one frame change: the tensordot of _assemble's to_frame, for vector and pair slots
    assert frame_changes(SRC / "chart.py") == ["_assemble.to_frame tensordot"]
    for name, function in PAIR_MATRIX_WEYL_STAGES:
        assert not called_names(SRC / name, function) & {
            "kn_four", "four", "pair_matrix_to_four_tensor"}, function
    assert not called_names(SRC / "models.py") & {
        "from_operator", "kn_four", "from_four_tensor", "four"}


def test_chart_splits_weyl_once_per_assembly():
    splits = [c.lineno for c in _calls(SRC / "chart.py") if _called_name(c) == "weyl_split"]
    assert len(splits) == 1, splits
    assert "weyl_split" in called_names(SRC / "chart.py", "_Lattice.__init__")
    assert "weyl_split" not in called_names(SRC / "chart.py", "_decomp_coords")


def imported_names(path: Path) -> set[str]:
    """Names a file imports, by ``import x.y`` or ``from x import y``."""
    tree = ast.parse(path.read_text(encoding="utf-8"), str(path))
    return {a.name.rsplit(".", 1)[-1] for node in ast.walk(tree)
            if isinstance(node, (ast.Import, ast.ImportFrom)) for a in node.names}


def test_guard_sees_imports(tmp_path):
    probe = tmp_path / "probe.py"
    probe.write_text("import numpy.linalg\nfrom .algebra import (kn_four,\n    tri)\n"
                     "def f():\n    from .basis import full5_to_triple_pair\n")
    assert imported_names(probe) == {"linalg", "kn_four", "tri", "full5_to_triple_pair"}


def test_chart_imports_no_four_index_expander():
    assert not imported_names(SRC / "chart.py") & {"four_tensor_to_pair_matrix",
                                                   "pair_matrix_to_four_tensor"}


def test_suite_runs_the_second_bianchi_families_without_five_index_kernels():
    assert not imported_names(SRC / "suite.py") & {
        "second_bianchi_full", "circ_prime_full", "full5_to_triple_pair", "kn_four"}


def test_suite_reads_derivative_draws_straight_to_pair_matrices():
    assert not imported_names(SRC / "suite.py") & {
        "four_tensor_to_pair_matrix", "curvature_derivative_from_uniform"}


def kn_kernel_sites(path: Path) -> list[str]:
    """The places in a file that form Kulkarni-Nomizu entries, in source order: ``file:scope``
    of each reference to ``_kn_positions`` (a name or an attribute; its own definition is
    neither) and ``file:def name`` of each function named ``kn_identity*``, at any depth."""
    out = []

    def visit(node: ast.AST, scope: tuple) -> None:
        for child in ast.iter_child_nodes(node):
            if isinstance(child, ast.FunctionDef) and child.name.startswith("kn_identity"):
                out.append(f"{path.name}:def {child.name}")
            if getattr(child, "id", getattr(child, "attr", None)) == "_kn_positions":
                out.append(f"{path.name}:{'.'.join(scope) or '<module>'}")
            named = isinstance(child, (ast.FunctionDef, ast.ClassDef))
            visit(child, scope + (child.name,) if named else scope)

    visit(ast.parse(path.read_text(encoding="utf-8"), str(path)), ())
    return out


def test_guard_sees_kn_kernel_sites(tmp_path):
    probe = tmp_path / "probe.py"
    probe.write_text("def kn_matrix(h, k):\n    return _kn_positions(4)\n"
                     "def kn_identity(h):\n    return a._kn_positions(4)[0]\n"
                     "class T:\n    def kn_identity_square(self):\n        return 2\n"
                     "table = _kn_positions\ndef _kn_positions(n):\n    return n\n")
    assert kn_kernel_sites(probe) == [
        "probe.py:kn_matrix", "probe.py:def kn_identity", "probe.py:kn_identity",
        "probe.py:def kn_identity_square", "probe.py:<module>"]


def test_kulkarni_nomizu_has_one_kernel():
    """Only ``algebra.kn_matrix`` forms Kulkarni-Nomizu entries: it alone reads the
    ``_kn_positions`` table, and no package function is named ``kn_identity*`` (h o g with
    g = I is ``kn_matrix(h, I)``)."""
    sites = [hit for path in sorted(SRC.glob("*.py")) for hit in kn_kernel_sites(path)]
    assert sites == ["algebra.py:kn_matrix"]


#: the steps of the feasible projection (sort, cumulative sum, cap)
PROJECTION_STEPS = {"sort", "argsort", "partition", "cumsum", "accumulate", "clip"}


def projection_uses(path: Path, function: str) -> list[str]:
    """How the top-level ``function`` of a file reaches ``_project_feasible``, in source
    order: ``call`` or ``loop call`` (inside a ``while`` or ``for``) for a direct call by that
    name, ``alias`` for any other reference, which a patched module attribute would miss."""
    tree = ast.parse(path.read_text(encoding="utf-8"), str(path))
    scope = next(node for node in tree.body
                 if isinstance(node, ast.FunctionDef) and node.name == function)
    out = []

    def visit(node: ast.AST, looped: bool) -> None:
        for child in ast.iter_child_nodes(node):
            if (isinstance(child, ast.Call) and isinstance(child.func, ast.Name)
                    and child.func.id == "_project_feasible"):
                out.append("loop call" if looped else "call")
                for arg in child.args + child.keywords:
                    visit(arg, looped)
                continue
            if isinstance(child, ast.Name) and child.id == "_project_feasible":
                out.append("alias")
            visit(child, looped or isinstance(child, (ast.While, ast.For)))

    visit(scope, False)
    return out


def test_guard_sees_projection_uses(tmp_path):
    probe = tmp_path / "probe.py"
    probe.write_text("def f(x, p=_project_feasible):\n    y = _project_feasible(x, 1.0)\n"
                     "    while x:\n        y = _project_feasible(g(_project_feasible), 1.0)\n"
                     "    return np.sort(y)\n")
    assert projection_uses(probe, "f") == ["alias", "call", "loop call", "alias"]
    assert "sort" in called_names(probe, "f") & PROJECTION_STEPS


def test_oracle_projects_only_through_the_one_projection():
    assert projection_uses(SRC / "bounds.py", "wcubic_ascents") == ["call", "loop call"]
    assert not called_names(SRC / "bounds.py", "wcubic_ascents") & PROJECTION_STEPS
    assert projection_uses(SRC / "bounds.py", "wcubic_oracle") == []


#: the chart's contractions with g^-1: metric traces, not norm-convention pairings
EINSUM_EXCEPTIONS = {("chart.py", "_decomp_coords"), ("chart.py", "_assemble")}


def _is_pairing_einsum(call: ast.Call) -> bool:
    """An einsum of two operands with one subscript, summed over one or more indices."""
    if not (_called_name(call) == "einsum" and len(call.args) == 3
            and isinstance(call.args[0], ast.Constant)):
        return False
    inputs, _, out = call.args[0].value.replace(" ", "").partition("->")
    a, _, b = inputs.partition(",")
    return a == b and len(a.replace("...", "")) - len(out.replace("...", "")) >= 1


def _is_product_or_square(node: ast.AST) -> bool:
    return isinstance(node, ast.BinOp) and (isinstance(node.op, ast.Mult) or (
        isinstance(node.op, ast.Pow) and ast.unparse(node.right) == "2"))


def pairing_sites(path: Path) -> list[tuple[str, str, str]]:
    """(file:line, scope, kind) of each inner product or norm a file takes by a route of
    its own: ``np.linalg.norm``, a pairing einsum, or a whole-array ``sum`` of ``x * y``
    or ``x ** 2`` (one with ``axis`` reduces a product formed in place, as ``cubic_parts``
    does)."""
    out = []
    for call, scope in scoped_calls(path):
        if (_called_name(call) == "norm" and isinstance(call.func, ast.Attribute)
                and ast.unparse(call.func.value).endswith("linalg")):
            kind = "linalg.norm"
        elif _is_pairing_einsum(call):
            kind = "einsum"
        elif (_called_name(call) == "sum" and len(call.args) == 1 and not call.keywords
              and _is_product_or_square(call.args[0])):
            kind = "sum"
        else:
            continue
        out.append((f"{path.name}:{call.lineno}", scope, kind))
    return out


def test_guard_sees_pairing_sites(tmp_path):
    probe = tmp_path / "probe.py"
    probe.write_text("def f(a, b, d):\n    x = np.linalg.norm(a) + numpy.linalg.norm(b)\n"
                     "    y = np.einsum('...ij,...ij->...', a, b) + np.einsum('ab, ab', a, b)\n"
                     "    z = np.sum(a * b) + np.sum(a ** 2) + np.sum(a * b, axis=-1)\n"
                     "    return np.einsum('ij,ij->i', d, d), np.einsum('ij,jk->ik', a, b), "
                     "np.sum(a ** 3), d.norm()\n")
    assert pairing_sites(probe) == [
        ("probe.py:2", "f", "linalg.norm"), ("probe.py:2", "f", "linalg.norm"),
        ("probe.py:3", "f", "einsum"), ("probe.py:3", "f", "einsum"),
        ("probe.py:4", "f", "sum"), ("probe.py:4", "f", "sum"), ("probe.py:5", "f", "einsum")]


def test_norms_and_pairings_go_through_frobenius():
    hits = [(path.name, hit) for path in sorted(SRC.glob("*.py")) if path.name != "tensors.py"
            for hit in pairing_sites(path)]
    assert [hit for name, hit in hits
            if hit[2] != "einsum" or (name, hit[1]) not in EINSUM_EXCEPTIONS] == []
    assert {(name, hit[1]) for name, hit in hits} == EINSUM_EXCEPTIONS


#: optional parameters (defaults) over the package's functions
MAX_OPTIONAL_PARAMETERS = 25


def optional_parameters(path: Path) -> list[str]:
    """``file:line`` of each function, once per parameter with a default."""
    out = []
    for node in ast.walk(ast.parse(path.read_text(encoding="utf-8"), str(path))):
        if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef, ast.Lambda)):
            count = len(node.args.defaults) + sum(d is not None for d in node.args.kw_defaults)
            out += [f"{path.name}:{node.lineno}"] * count
    return out


def test_guard_counts_optional_parameters(tmp_path):
    probe = tmp_path / "probe.py"
    probe.write_text("def f(a, b=1, *, c, d=None):\n    return lambda x=0: x\n")
    assert optional_parameters(probe) == ["probe.py:1", "probe.py:1", "probe.py:2"]


def test_optional_parameters_do_not_grow():
    found = [hit for path in sorted(SRC.glob("*.py")) for hit in optional_parameters(path)]
    assert len(found) <= MAX_OPTIONAL_PARAMETERS, found


def stepped_ranges(path: Path) -> list[str]:
    """``file:line scope`` of every ``range(start, stop, step)`` call in a file
    (``scoped_calls``): the mark of a pass loop written by hand."""
    return [f"{path.name}:{call.lineno} {scope}" for call, scope in scoped_calls(path)
            if _called_name(call) == "range" and len(call.args) == 3]


def test_guard_sees_stepped_ranges(tmp_path):
    probe = tmp_path / "probe.py"
    probe.write_text("def f(n):\n    for i in range(0, n, 64):\n        pass\n"
                     "    return range(n), range(1, n)\n"
                     "class K:\n    def g(self, n):\n        return list(range(0, n, self.k))\n")
    assert stepped_ranges(probe) == ["probe.py:2 f", "probe.py:7 K.g"]


def test_passes_are_planned_by_the_one_planner():
    found = [hit for path in sorted(SRC.glob("*.py")) for hit in stepped_ranges(path)]
    assert [hit.split(" ", 1)[1] for hit in found] == ["audit_cubic_bounds"], found


def fresh_gather_products(path: Path) -> list[str]:
    """``file:line`` of each ``x * y`` whose operand is a fresh gather: a ``_take_trailing(...)``
    call, or a name the enclosing function binds to one (``t = _take_trailing(...)``)."""
    tree = ast.parse(path.read_text(encoding="utf-8"), str(path))

    def gather(node: ast.AST) -> bool:
        return isinstance(node, ast.Call) and _called_name(node) == "_take_trailing"

    out = set()
    for scope in [tree] + [node for node in ast.walk(tree) if isinstance(node, ast.FunctionDef)]:
        fresh = set() if scope is tree else {
            t.id for node in ast.walk(scope) if isinstance(node, ast.Assign)
            and gather(node.value) for t in node.targets if isinstance(t, ast.Name)}
        out |= {f"{path.name}:{node.lineno}" for node in ast.walk(scope)
                if isinstance(node, ast.BinOp) and isinstance(node.op, ast.Mult)
                and any(gather(x) or isinstance(x, ast.Name) and x.id in fresh
                        for x in (node.left, node.right))}
    return sorted(out)


def test_guard_sees_fresh_gather_products(tmp_path):
    probe = tmp_path / "probe.py"
    probe.write_text("def f(x, s):\n    return _take_trailing(x, 2, p) * s\n"
                     "def g(x, s):\n    t = b._take_trailing(x, 2, p)\n    u = 2.0 * t[0]\n"
                     "    t *= s\n    return s * t\n"
                     "def h(x, t):\n    return _take_times(x, 2, p, s) * t + x * t\n")
    assert fresh_gather_products(probe) == ["probe.py:2", "probe.py:7"]


def test_gathers_are_multiplied_in_their_own_buffers():
    """A gathered stack times a factor goes through ``basis._take_times``, which forms the
    product in the gather's buffer where the dtype allows, so no second stack is held."""
    assert [hit for path in sorted(SRC.glob("*.py")) for hit in fresh_gather_products(path)] == []


def fn_call_sites(path: Path) -> list[str]:
    """``file:line scope`` of every ``x.fn(...)`` call in a file (``scoped_calls``)."""
    return [f"{path.name}:{call.lineno} {scope}" for call, scope in scoped_calls(path)
            if isinstance(call.func, ast.Attribute) and call.func.attr == "fn"]


def test_guard_sees_fn_calls(tmp_path):
    probe = tmp_path / "probe.py"
    probe.write_text("class M:\n    def table(self, x):\n        return [self.fn(r) for r in x]\n"
                     "def use(m):\n    return m.fn(0) + fn(1)\n"
                     "y = metric.fn(2)\n")
    assert fn_call_sites(probe) == ["probe.py:3 M.table", "probe.py:5 use", "probe.py:6 <module>"]


def test_metric_evaluator_is_called_only_in_the_table():
    found = [hit for path in sorted(SRC.glob("*.py")) for hit in fn_call_sites(path)]
    assert [(hit.split(":")[0], hit.split(" ", 1)[1]) for hit in found] == [
        ("chart.py", "ChartMetric.table")], found


TRACING = SRC.parent.parent / "benchmarks" / "tracing.py"
#: helpers for building inputs and writing files, kept for scripts and tests
UNREACHED_ALLOWED = {"random_operator", "random_curvature", "random_weyl",
                     "random_traceless_symmetric", "dump_grid_file", "operator_to_dict"}


def freeze_sites(path: Path) -> set[str]:
    """Top-level definitions of a file (``<module>`` outside them) that touch an array's
    ``flags.writeable`` or call ``setflags``."""
    out = set()
    for top in ast.parse(path.read_text(encoding="utf-8"), str(path)).body:
        for node in ast.walk(top):
            if ((isinstance(node, ast.Attribute) and node.attr == "writeable"
                 and isinstance(node.value, ast.Attribute) and node.value.attr == "flags")
                    or (isinstance(node, ast.Call) and _called_name(node) == "setflags")):
                out.add(getattr(top, "name", "<module>"))
    return out


def test_guard_sees_freezes(tmp_path):
    probe = tmp_path / "probe.py"
    probe.write_text("def table(n):\n    def build():\n        a.setflags(write=False)\n"
                     "def other():\n    return b.flags.writeable\n"
                     "c.flags.writeable = False\nd.flags.c_contiguous\n")
    assert freeze_sites(probe) == {"table", "other", "<module>"}


def test_arrays_are_frozen_only_by_the_read_only_helpers():
    found = {(path.name, site) for path in sorted(SRC.glob("*.py")) for site in freeze_sites(path)}
    assert found == {("basis.py", "read_only_cache"), ("basis.py", "pair_basis"),
                     ("basis.py", "triple_basis"), ("tensors.py", "_frozen")}


def traced_function_pairs() -> list[tuple[str, str]]:
    """(module, function) of every name ``benchmarks/tracing.py`` traces."""
    spec = importlib.util.spec_from_file_location("weylbench_bench_tracing", TRACING)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module.TRACED_FUNCTIONS


def traced_functions() -> set[str]:
    return {name for _, name in traced_function_pairs()}


def unreached_functions(files: list[Path]) -> list[str]:
    """``file:name`` of each top-level function that ``__init__.py`` does not import and
    no code in the files refers to outside the function's own body."""
    trees = {path: ast.parse(path.read_text(encoding="utf-8"), str(path)) for path in files}
    exported = imported_names(next(path for path in files if path.name == "__init__.py"))

    def refs(node: ast.AST) -> list[str]:
        return [n.id if isinstance(n, ast.Name) else n.attr for n in ast.walk(node)
                if isinstance(n, (ast.Name, ast.Attribute))]

    seen = Counter(name for tree in trees.values() for name in refs(tree))
    return [f"{path.name}:{node.name}" for path, tree in trees.items() for node in tree.body
            if isinstance(node, ast.FunctionDef) and node.name not in exported
            and seen[node.name] == refs(node).count(node.name)]


def test_guard_sees_unreached_functions(tmp_path):
    (tmp_path / "__init__.py").write_text("from .a import api\n")
    (tmp_path / "a.py").write_text("def api():\n    return helper()\n"
                                   "def helper():\n    return 1\n"
                                   "def loop(k):\n    return loop(k - 1) if k else 0\n"
                                   "def orphan():\n    return api()\n")
    assert unreached_functions(sorted(tmp_path.glob("*.py"))) == ["a.py:loop", "a.py:orphan"]


def test_package_functions_are_reached():
    unreached = [hit for hit in unreached_functions(sorted(SRC.glob("*.py")))
                 if hit.split(":")[1] not in traced_functions()]
    assert [hit for hit in unreached if hit.split(":")[1] not in UNREACHED_ALLOWED] == []



def cli_option_mismatches(path: Path) -> dict[str, list[str]]:
    """For each ``p = command(name, cmd_*, tolerance names, summary)`` in ``build_parser``:
    the settings it declares that its ``cmd_*`` does not read, and those it reads without
    declaring them.  A ``--seed`` added in a loop counts for every command, and a ``tols``
    used other than as ``tols["name"]`` is reported."""
    tree = ast.parse(path.read_text(encoding="utf-8"), str(path))
    funcs = {node.name: node for node in tree.body if isinstance(node, ast.FunctionDef)}
    declared: dict[str, dict] = {}
    for stmt in funcs["build_parser"].body:
        for call in (node for node in ast.walk(stmt) if isinstance(node, ast.Call)):
            if _called_name(call) == "command":
                name = ast.literal_eval(call.args[0])
                declared[name] = {"func": call.args[1].id, "seed": False,
                                  "tols": set(ast.literal_eval(call.args[2]))}
            elif _called_name(call) == "add_argument" and ast.literal_eval(call.args[0]) == "--seed":
                for command in declared.values() if isinstance(stmt, ast.For) else [declared[name]]:
                    command["seed"] = True
    out = {}
    for name, command in declared.items():
        func, nodes = command["func"], list(ast.walk(funcs[command["func"]]))
        reads = [n.slice.value for n in nodes if isinstance(n, ast.Subscript)
                 and isinstance(n.value, ast.Name) and n.value.id == "tols"
                 and isinstance(n.slice, ast.Constant)]
        uses = sum(isinstance(n, ast.Name) and n.id == "tols" for n in nodes)
        reads_seed = any(isinstance(n, ast.Attribute) and n.attr == "seed"
                         and isinstance(n.value, ast.Name) and n.value.id == "args" for n in nodes)
        out[name] = (
            [f"declares tolerance {k!r} that {func} does not read"
             for k in sorted(command["tols"] - set(reads))]
            + [f"{func} reads tolerance {k!r} that it does not declare"
               for k in sorted(set(reads) - command["tols"])]
            + [f"{func} uses tols other than as tols[name]"] * (uses > len(reads))
            + [f"declares --seed that {func} does not read"] * (command["seed"] > reads_seed)
            + [f"{func} reads args.seed without --seed"] * (reads_seed > command["seed"]))
    return out


def test_guard_sees_unread_and_undeclared_options(tmp_path):
    probe = tmp_path / "probe.py"
    probe.write_text(
        "def cmd_a(args, tols, report):\n    report[0] = tols['eps_alg'] + args.seed\n"
        "def cmd_b(args, tols, report):\n    report[0] = tols['chart_zero'] + args.seed\n"
        "def cmd_c(args, tols, report):\n    report[0] = helper(tols)\n"
        "def build_parser():\n"
        "    def command(name, func, tols, summary):\n        return sub.add_parser(name)\n"
        "    p = command('a', cmd_a, ('eps_alg', 'eps_nf'), 'a')\n"
        "    p.add_argument('--seed', type=int, default=0)\n"
        "    p = command('b', cmd_b, (), 'b')\n"
        "    p = command('c', cmd_c, (), 'c')\n"
        "    p.add_argument('--seed', type=int, default=0)\n"
        "    for p in sub.choices.values():\n        p.add_argument('--format')\n")
    assert cli_option_mismatches(probe) == {
        "a": ["declares tolerance 'eps_nf' that cmd_a does not read"],
        "b": ["cmd_b reads tolerance 'chart_zero' that it does not declare",
              "cmd_b reads args.seed without --seed"],
        "c": ["cmd_c uses tols other than as tols[name]", "declares --seed that cmd_c does not read"]}
    probe.write_text(probe.read_text().replace("'--format'", "'--seed'"))
    assert cli_option_mismatches(probe)["b"] == [
        "cmd_b reads tolerance 'chart_zero' that it does not declare"]


def test_every_cli_option_is_read():
    found = cli_option_mismatches(SRC / "cli.py")
    assert sorted(found) == sorted(["identities", "model", "dim4", "bounds", "constants",
                                    "pinch", "gap", "chart"])
    assert {name: hits for name, hits in found.items() if hits} == {}
