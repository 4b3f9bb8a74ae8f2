"""weylbench: numerical verification workbench for curvature-operator algebra.

Implements algebraic curvature tensors and their quadratic products, the
orthogonal decomposition into Weyl / traceless-Ricci / scalar parts, the
divergence-versus-gradient identities of the second Bianchi map, the
four-dimensional self-dual subsystem with its Berger normal form, dimensional
rigidity constants with pinch verdicts, and a finite-difference chart
calculus that checks the differential identities to discretization order.
"""

__version__ = "0.1.0"

from .algebra import (
    bianchi_project,
    circ_prime,
    decompose,
    dot_product,
    kulkarni_nomizu,
    pure_cubics,
    quadratic_forms,
    ricci_contraction,
    second_bianchi,
    sharp_product,
    tri,
    u_contraction,
    weyl_sectional_split,
)
from .bounds import (
    ConstantsTable,
    PinchVerdict,
    berger_component_bound,
    constants,
    cubic_bound_eval,
    eigen_bound,
    gap_verdict_integral,
    integral_rigidity_d,
    pinch_verdict_dim4,
    pinch_verdict_norm,
    pinch_verdict_pointwise,
    spectral_extremes,
    wcubic_ascents,
    wcubic_closed_form,
    wcubic_oracle,
)
from .chart import (
    ChartCurvatureField,
    ChartMetric,
    GridSpec,
    curvature_field,
    grid_file_metric,
    identity_residual_report,
    preset_metric,
    weyl_derivative_pack,
)
from .dim4 import (
    BergerNormalForm,
    SelfDualSplit,
    berger_normal_form,
    det_identities,
    e_circ_g_orthogonality,
    pinched_lemma_check,
    split_self_dual,
)
from .models import (
    CurvaturePackage,
    ModelSpec,
    model_curvature,
    package_consistency,
    parse_model_spec,
    symmetric_space_identity_report,
)
from .suite import run_identity_suite
from .tensors import (
    EPS_ALG,
    EPS_NF,
    CovDerivCurvature,
    CurvatureDecomposition,
    CurvatureTensor,
    Operator2Form,
    PureCurvatureMatrix,
    ThreeTwoTensor,
    TwoFormOneForm,
    inner,
    norm,
)
