"""mgrid: vector-valued Poincare series, Zagier-duality grids of harmonic
weak Maass forms, and regularized twisted L-functions on Gamma_0(N).

The public surface mirrors the layer structure: special functions with
certified truncation (specialfn), group enumeration (groups), multiplier
systems and cusp parameters (automorphy), Poincare coefficients (poincare),
the dual grid and its operator images (gridforms), Eichler integrals and
period polynomials (eichler), and twisted L-values with the period pairing
(lfun).
"""

from .automorphy import (
    AutomorphyData,
    CompositeMultiplier,
    DiagonalRepresentation,
    DirichletMultiplier,
    EtaPowerMultiplier,
    TrivialMultiplier,
    chi_eval,
    conjugate,
    dedekind_sum,
    kappa_vector,
    n_prime,
    trivial_representation,
)
from .eichler import (
    SAMPLE_POINTS,
    PeriodPolynomial,
    c_weight,
    check_supplementary_identity,
    eichler_E,
    eichler_EH,
    eichler_EN,
    period_r,
    period_r_parabolic,
    period_r_quadrature,
    period_rH,
    period_rN,
    slash_poly_value,
    supplementary,
)
from .gridforms import (
    DualityReport,
    GridPair,
    HarmonicForm,
    apply_Dk1,
    apply_xi,
    build_G,
    build_f,
    build_pair,
    check_main2_symmetry,
    verify_duality,
)
from .groups import (
    S,
    T,
    GroupElement,
    GroupSpec,
    enumerate_cplus,
    gamma0,
    generators,
    moebius,
    sl2z,
)
from .lfun import (
    LValue,
    PairingMatrix,
    TwistSpec,
    fit_pairing,
    lvalue_integral,
    lvalue_series,
    period_feature_vector,
    petersson_poincare,
    predict_gram,
)
from .poincare import (
    coefficient_envelope,
    constant_term_cf,
    kloosterman_layer,
    poincare_coefficient,
    poincare_series,
)
from .precision import (
    DEFAULT_CONTEXT,
    ConvergenceError,
    PrecisionContext,
    compensated_sum,
)
from .series import FourierSeries, TruncationParams
from .specialfn import bessel_i, bessel_j, gamma_upper, h_function

__version__ = "0.1.0"
