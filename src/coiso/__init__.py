"""Numerics for coisotropic subspace geometry in flat complex space.

The library computes winding-number indices of loops of coisotropic
subspaces of (R^{2n}, omega_0) and of disc-boundary maps on coisotropic
hypersurfaces, together with the pointwise extrinsic geometry of such
hypersurfaces (second fundamental form blocks, leafwise mean curvature,
Levi form, transverse symplectic curvature, leaf minimality).  Every
quantity is paired with an independent numerical oracle and the test suite
cross-checks them.
"""

__version__ = "0.1.0"

from .config import DEFAULT, Tolerances, rng
from .errors import (
    AliasingError,
    ClassificationError,
    ClosureError,
    CoisoError,
    ContinuityLossError,
    DiscontinuousLoopError,
    ExtensionQualityError,
    FrameDegeneracyError,
    InternalConsistencyError,
    NumericalQualityError,
    OffSurfaceError,
    SpecError,
    UnnormalizedDefiningFunctionError,
)
from .symplin import (
    AdaptedFrame,
    CoisotropicSubspace,
    Subspace,
    adapted_frame,
    classify_coisotropic,
    complex_coords,
    grassmannian_dim,
    largest_principal_angles,
    measured_grassmannian_dim,
    principal_angles,
    random_coisotropic,
    random_unitary,
    real_coords,
    realify,
    standard_model,
    symplectic_complement,
    transport_phases,
)
from .grassmann import (
    CoisotropicLoop,
    LOOP_FAMILIES,
    SymplecticMatrixLoop,
    constant_family,
    diag_unitary_family,
    lagrangian_rotation_family,
    loop_from_family,
    pushforward,
    random_symplectic_matrix_loop,
    random_unitary_matrix_loop,
    random_unitary_orbit_family,
    unitary_matrix_loop,
)
from .maslov import (
    BOUNDARY_FAMILIES,
    LeafwiseSpecial,
    MaslovSection,
    WindingDetail,
    canonical_section,
    connection_integral_index,
    disc_index_detail,
    is_leafwise_special,
    maslov_index,
    pushforward_section,
    tangent_boundary_loop,
    winding,
    winding_detail,
)
from .hypergeo import (
    FIXTURES,
    LagrangianGraphProduct,
    LevelSetHypersurface,
    LeviForm,
    MeanCurvature,
    Minimality,
    PointGeometry,
    SFFBlocks,
    TangentSplitting,
    TransverseCurvature,
    cylinder,
    ellipsoid,
    from_polynomial,
    hyperplane,
    is_integrable_prekahler,
    leaf_minimality,
    leafwise_mean_curvature,
    levi_form,
    point_geometry,
    random_graph_product,
    second_fundamental_form,
    sphere,
    tangent_splitting,
    transverse_curvature_bracket,
    transverse_curvature_sff,
)
