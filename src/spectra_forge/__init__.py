"""spectra-forge: delay equations with prescribed imaginary eigenvalues.

Build scalar and ring-coupled linear delay-differential equations whose
characteristic functions vanish at a prescribed set of rationally
independent frequencies, then verify the construction by direct residuals
and argument-principle root counts.
"""
from .errors import (
    BadIndex,
    BadParity,
    BoundaryRoot,
    InputError,
    LeftDomain,
    NoConvergence,
    NumericFailure,
    SearchExhausted,
    SingularB,
    SingularIB,
    SingularJacobian,
    SpectraForgeError,
    TooManyRoots,
    ZeroAmplitude,
    ZeroWeight,
)
from .quasipoly import (
    CharProduct,
    ScalarFactor,
    Term,
    evaluate,
    evaluate_derivative,
    evaluate_product,
    residual_on_targets,
)
from .realization import (
    BasePoint,
    FrequencyTarget,
    RealizationResult,
    RealizeConfig,
    WeightTable,
    base_point,
    cal_I,
    cal_I_B,
    continue_realization,
    delay_candidates,
    det_cal_I_B_lemma,
    index_vectors,
    newton_refine,
    realize,
)
from .dn_ring import (
    ConnectionList,
    CouplingProfile,
    Edge,
    RingSpec,
    build_B,
    characteristic_factorization,
    det_B_two_factor,
    detect_even_degeneracy,
    factor_weights,
    realize_ring,
    validate_equivariance,
)
from .spectrum import (
    Region,
    SpectrumReport,
    count_roots,
    locate_roots,
    polish_root,
    verify_realization,
)

__version__ = "0.1.0"
