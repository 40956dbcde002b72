"""sparselab: sparse-operator laboratory on finite spaces of homogeneous type."""

__version__ = "0.1.0"

from .domination import (
    DominationCertificate,
    augment_sparse,
    cz_construct,
    verify_domination,
)
from .dyadic import (
    AdjacentSystems,
    DyadicLattice,
    SparseFamily,
    adjacent_cover,
    build_hk_lattice,
    build_shifted_adjacent,
    build_standard_lattice,
    select_witnesses,
    verify_sparse,
)
from .operators import MultiIndexPair
from .space import (
    Ball,
    DiscreteSpace,
    build_explicit_space,
    build_grid_space,
    doubling_constant,
    space_from_descriptor,
    space_from_json,
    space_to_descriptor,
    space_to_json,
)
from .verify import CheckReport, CheckSpec, registry_ids, run_check

__all__ = [
    "__version__",
    "AdjacentSystems",
    "Ball",
    "CheckReport",
    "CheckSpec",
    "DiscreteSpace",
    "DominationCertificate",
    "DyadicLattice",
    "MultiIndexPair",
    "SparseFamily",
    "adjacent_cover",
    "augment_sparse",
    "build_explicit_space",
    "build_grid_space",
    "build_hk_lattice",
    "build_shifted_adjacent",
    "build_standard_lattice",
    "cz_construct",
    "doubling_constant",
    "registry_ids",
    "run_check",
    "select_witnesses",
    "space_from_descriptor",
    "space_from_json",
    "space_to_descriptor",
    "space_to_json",
    "verify_domination",
    "verify_sparse",
]
