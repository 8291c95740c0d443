"""Certificates for h-vectors of simplicial complexes.

Construct and verify partition extenders, Cohen-Macaulay extenders, and
shelling orders, so that the h-vector or h-triangle of an arbitrary
complex is witnessed as a difference of interval counts of two verified
partitionings.
"""

from .complexes import (
    Face,
    FaceFamily,
    SimplicialComplex,
    adjoin_face,
    build_complex,
    f_from_h,
    f_triangle,
    f_vector,
    face_of,
    facet_depth,
    format_face,
    glue,
    h_from_f,
    h_triangle,
    h_vector,
    link,
    relative_family,
    skeleton,
)
from .construct import (
    ExtenderResult,
    MarkedComplex,
    PieceAttachment,
    extender_for_complex,
    h_decomposition,
    nonpure_extender_for_complex,
    partition_extender,
    prepartition_extender,
    prepartition_h_profile,
    size_estimate,
    total_size_estimate,
)
from .errors import (
    AlreadyPresent,
    ExtendersError,
    FaceNotPresent,
    InconsistentIdentification,
    InternalCheckError,
    InvalidParameters,
    InvalidPartitioning,
    InvalidResult,
    NotAPermutation,
    NotASubcomplex,
    NotPure,
    SizeLimitExceeded,
    VoidComplex,
)
from .homology import (
    ChainComplexData,
    CmExtender,
    FieldSpec,
    HomologyProfile,
    NoExtender,
    RATIONALS,
    chain_complex,
    cm_extender,
    depth,
    homology_report,
    is_cohen_macaulay,
    is_relative_cm,
    reduced_betti,
    relative_betti,
)
from .partitions import (
    IntervalPartition,
    PartitionReport,
    check_shelling_order,
    find_partitioning,
    find_shelling,
    h_from_partitioning,
    is_h_compatible,
    is_layer_compatible,
    verify_partitioning,
)

__version__ = "0.1.0"
