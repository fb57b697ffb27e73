"""Exact stable Albanese homology of the IA and IO automorphism groups.

The package computes, as explicit direct sums of irreducible algebraic
GL(n,Q)-representations indexed by bipartitions:

* the degree-i stable Albanese homology tables W_i (and the outer variant),
  their dimension polynomials in the rank, and related structure checks;
* the corolla/wheel forest counts giving stable twisted cohomology
  dimensions of Aut(F_n);
* an independent brute-force oracle (exact invariant dimensions, traceless
  subspaces, and weight-multiset decompositions at small rank);
* free-group machinery for the degree-one Johnson invariant.
"""

from .errors import CapacityError, ConsistencyError, InputError
from .forests import (
    ForestStructure,
    StableTwistedDim,
    count_nonunital_prop,
    count_wheeled_prop,
    cross_check_invariants,
    enumerate_structures,
    stable_aut_cohomology_dim,
)
from .homology import (
    GeneratorMultiset,
    albanese_dim_polynomial,
    albanese_w,
    conjectural_cohomology_dim,
    constituent_support,
    corolla_shape,
    generator_multisets,
    generator_u,
    generator_u_out,
    primitive_part,
    verify_io_splitting,
    wheel_shape,
)
from .johnson import (
    FreeEndomorphism,
    JohnsonValue,
    apply_endo,
    commutator_move,
    compose,
    conjugation_move,
    is_ia,
    johnson_tau,
    magnus_generators,
    pairing_eval,
    parse_word,
    reduce_word,
    tau_cochain,
    tau_span_dim,
    word_str,
)
from .oracle import (
    DUAL,
    STD,
    ExactLinearMap,
    ExactTensorRep,
    build_rep,
    character_decompose,
    cross_traceless_invariant_dim,
    invariant_dim,
    mixed,
    omega_matrix,
    omega_prime_rank,
    omega_prime_verify,
    schur_functor,
    sym,
    tensor,
    traceless_subspace,
    wedge,
    weights_of,
)
from .partitions import (
    Bipartition,
    Partition,
    bipartition,
    lr_coefficient,
    parse_bipartition,
    parse_partition,
    partition_str,
    partitions_of,
    schur_product,
    specht_dim,
    symmetric_group_character,
)
from .schur import (
    Decomposition,
    DimensionPolynomial,
    decompose_mixed_tensor,
    decompose_traceless,
    dim_irrep,
    dim_polynomial,
    evaluate_at_rank,
    graded_symmetric_power,
    multiplicity_pairing,
    plethysm_schur,
    tensor_by_standard,
    traceless_product,
)

__version__ = "0.1.0"
