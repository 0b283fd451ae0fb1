"""teneig: eigenvalues of complex tensors.

Numeric pipeline (total-degree homotopy continuation), exact 2x2x2
certificates (resultants, hyperdeterminant), and the projective dynamics
of the induced self-map.
"""

from .tensor import (
    EigenClass,
    EigenPair,
    PolyForm,
    ProjPoint,
    Tensor,
    apply_power,
    canonicalize,
    equivalent,
    expected_count,
    form_from_tensor,
    normalized_eigenvalues,
    scalar_form,
    tensor_from_form,
)
from .polysys import PolySystem, build_eigen_system, build_shifted_system
from .homotopy import (
    PathOutcome,
    TrackerConfig,
    group_into_classes,
    track_all,
)
from .spectra import (
    CharPolyNumeric,
    ProbeResult,
    SpectralReport,
    ZeroLocus,
    characteristic_polynomial_numeric,
    diagonal_classes,
    eigenclasses,
    is_positive_semidefinite,
    real_classes,
    real_representative,
    shifted_singularity_check,
    singular_probe,
    value_multiplicities,
    zero_eigenvectors,
)
from .dynamics import (
    BaseLocusHit,
    NilpotencyVerdict,
    Orbit,
    base_locus,
    nilpotency,
    orbit,
    psi,
)
from .exact import (
    ExactCharPoly,
    GaussianRational,
    charpoly_exact_2_3,
    hyperdeterminant_222,
    is_singular_222,
    resultant_quadratics_2,
    sylvester_resultant,
)
from .tensorio import load_tensor, parse_tensor_json, report_to_json

__version__ = "0.1.0"
