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
    build_complex,
    f_triangle,
    f_vector,
    face_of,
    format_face,
    h_from_f,
    h_triangle,
    h_vector,
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
    size_estimate,
    total_size_estimate,
)
from .errors import (
    ExtendersError,
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
    CmExtender,
    FieldSpec,
    HomologyProfile,
    NoExtender,
    RATIONALS,
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
