"""focklift: passive linear optics on Fock sectors.

Mode unitaries, their permanent lifts to photon-number sectors, the
composite two-mode gate on single-rail qubits, and numerical certificates
that decoupling the bunched states forbids entangling two-qubit gates.
"""

__version__ = "0.1.0"

from .errors import (
    InvalidInputError,
    LeakyGateError,
    ResourceLimitError,
)
from .fock import (
    FockBasis,
    LiftedUnitary,
    OccupationPolynomial,
    basis_enumerate,
    basis_monomial,
    basis_to_jsonable,
    lift_unitary,
    lift_via_substitution,
    lifted_to_csv,
    lifted_to_jsonable,
    poly_to_vector,
)
from .linalg import (
    exp_i_hermitian,
    haar_random_unitary,
    hermitian_eig,
)
from .modes import (
    CompositeGateParams,
    OpticalElement,
    beam_splitter,
    composite_gate_mode_matrix,
    element_matrix,
    elements_from_jsonable,
    elements_to_jsonable,
    reck_decompose,
    recompose,
)
from .permanent import permanent
from .singlerail import (
    BASIS_SIX,
    SWAP,
    LeakageReport,
    assemble_from_mode_matrix,
    composite_gate_fock,
    computational_block,
    decoupled_form_even,
    decoupled_form_odd,
    entangling_measure,
    extract_computational,
    leakage,
    nearest_unitary_block,
)
from .nogo import (
    AncillaCheckReport,
    SearchConfig,
    SearchResult,
    block_diagonality_defect,
    block_lemma_check,
    bunched_partition,
    dont_cause_errors_residuals,
    nogo_search_ancilla,
    nogo_search_two_mode,
)

__all__ = [
    "__version__",
    "InvalidInputError",
    "ResourceLimitError",
    "LeakyGateError",
    "hermitian_eig",
    "exp_i_hermitian",
    "haar_random_unitary",
    "permanent",
    "FockBasis",
    "basis_enumerate",
    "LiftedUnitary",
    "lift_unitary",
    "OccupationPolynomial",
    "basis_monomial",
    "lift_via_substitution",
    "poly_to_vector",
    "basis_to_jsonable",
    "lifted_to_jsonable",
    "lifted_to_csv",
    "CompositeGateParams",
    "beam_splitter",
    "composite_gate_mode_matrix",
    "OpticalElement",
    "element_matrix",
    "reck_decompose",
    "recompose",
    "elements_to_jsonable",
    "elements_from_jsonable",
    "BASIS_SIX",
    "SWAP",
    "composite_gate_fock",
    "assemble_from_mode_matrix",
    "LeakageReport",
    "leakage",
    "decoupled_form_even",
    "decoupled_form_odd",
    "computational_block",
    "nearest_unitary_block",
    "extract_computational",
    "entangling_measure",
    "SearchConfig",
    "SearchResult",
    "AncillaCheckReport",
    "bunched_partition",
    "dont_cause_errors_residuals",
    "block_diagonality_defect",
    "block_lemma_check",
    "nogo_search_two_mode",
    "nogo_search_ancilla",
]
