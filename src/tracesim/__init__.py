"""tracesim: simultaneous similarity of matrix tuples, decided through
intertwiner spaces.

Decides whether two d-tuples of n x n matrices are simultaneously similar
(conjugate by one invertible P) or simultaneously orthogonally/unitarily
similar from the space of intertwiners, produces certified witnesses, and
exposes the supporting machinery: exact rational and float linear
algebra, canonical trace words and fingerprints, matrix-unit recognition
with the induced embedding, center/commutant extraction, and a trace-only
unique-solvability test for Sylvester's equation.
"""

from .corpus import Expected, Fixture, FixtureResult, load_corpus, run_corpus, run_fixture
from .errors import (BudgetExceededError, KindMismatchError, LetterIndexError,
                     MissingUnitsError, NonCentralCoefficientError, NonFiniteError,
                     ShapeError, SingularMatrixError, TracesimError, TupleFileError,
                     WitnessConstructionError, ZeroPolynomialError)
from .fields import Field, Kind, StarMode
from .intertwiner import GLVerdict, IntertwinerBasis, gl_similar, intertwiner_basis
from .matrices import (Matrix, MatrixTuple, det, inverse, nullspace, rank, solve_linear,
                       star, trace)
from .matrix_units import (SubringReport, UnitSystem, check_delta, check_epsilon,
                           coeff_product, commutant, extract_subring_coefficients,
                           theta_embedding)
from .orthogonal import (OrthogonalWitness, OrthVerdict, SpechtReport, orthogonal_witness,
                         specht_equivalent, specht_property_check)
from .sylvester import (Polynomial, char_poly_from_traces, resultant, sylvester_solve,
                        sylvester_unique)
from .tupleio import dump_tuple, load_tuple, save_tuple, tuple_from_dict, tuple_to_dict
from .words import (Fingerprint, FingerprintDiff, Letter, Word, canonicalize,
                    enumerate_canonical, eval_word, fingerprint, fingerprints_equal)

__version__ = "0.1.0"

__all__ = [
    "__version__",
    # fields / matrices
    "Field", "Kind", "StarMode", "Matrix", "MatrixTuple",
    "star", "trace", "det", "rank", "inverse", "nullspace", "solve_linear",
    # words
    "Letter", "Word", "Fingerprint", "FingerprintDiff", "canonicalize",
    "enumerate_canonical", "eval_word", "fingerprint", "fingerprints_equal",
    # intertwiners / similarity
    "IntertwinerBasis", "GLVerdict", "intertwiner_basis", "gl_similar",
    # orthogonal
    "OrthogonalWitness", "OrthVerdict", "SpechtReport", "specht_equivalent",
    "orthogonal_witness", "specht_property_check",
    # matrix units
    "UnitSystem", "SubringReport", "check_epsilon", "check_delta", "theta_embedding",
    "coeff_product", "commutant", "extract_subring_coefficients",
    # sylvester
    "Polynomial", "sylvester_solve", "char_poly_from_traces", "resultant",
    "sylvester_unique",
    # corpus
    "Fixture", "Expected", "FixtureResult", "load_corpus", "run_fixture", "run_corpus",
    # io
    "load_tuple", "save_tuple", "dump_tuple", "tuple_from_dict", "tuple_to_dict",
    # errors
    "TracesimError", "KindMismatchError", "ShapeError", "SingularMatrixError",
    "BudgetExceededError", "LetterIndexError", "NonCentralCoefficientError",
    "MissingUnitsError", "WitnessConstructionError", "ZeroPolynomialError", "TupleFileError",
    "NonFiniteError",
]
