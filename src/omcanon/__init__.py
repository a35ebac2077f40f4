"""Exact canonical forms of oriented-matroid topes in Orlik-Solomon algebras.

Everything is computed over exact rationals: oriented matroids from
chirotopes, the Orlik-Solomon algebra in NBC coordinates, canonical forms
of topes by one residue solve per antipodal pair of topes or by a placing
triangulation, the canonical-form bases of the reduced algebra, and the
bounded-tope basis of the top Aomoto cohomology.
"""

from .bases import (AomotoReport, Flag, FlagStage, aomoto,
                    aomoto_degree_ranks, bounded_extension,
                    build_flag, expand_in_basis, graded_basis,
                    perturbation_signature, sample_weight_vectors,
                    simplex_identity_check, structure_constants,
                    transport_to_base, tq_basis)
from .chirotope import (Chirotope, InvalidChirotope, chirotope_diagnostic,
                        validate_chirotope)
from .forms import (algebra_of, canonical_form_from_triangulation,
                    canonical_form_om, canonical_form_tope,
                    check_residue_axioms, nonreduced_canonical_form,
                    nonreduced_from_triangulation, oriented_matroid_for)
from .matroid import UnderlyingMatroid, tutte_eval
from .om import Extension, NotATope, OrientedMatroid
from .osalg import LinearMap, OSAlgebra, OSElement, os_algebra_for
from .realization import (RationalMatrix, acyclicity_witness, chamber_of,
                          chirotope_from_matrix, interior_point,
                          placing_triangulation)
from .signvec import SignVector

__version__ = "0.1.0"

__all__ = [
    "AomotoReport", "Chirotope", "Extension", "Flag", "FlagStage",
    "InvalidChirotope", "LinearMap", "NotATope", "OSAlgebra", "OSElement",
    "OrientedMatroid", "RationalMatrix", "SignVector", "UnderlyingMatroid",
    "acyclicity_witness", "algebra_of", "aomoto", "aomoto_degree_ranks",
    "bounded_extension",
    "build_flag", "canonical_form_from_triangulation", "canonical_form_om",
    "canonical_form_tope", "chamber_of", "check_residue_axioms",
    "chirotope_diagnostic", "chirotope_from_matrix", "expand_in_basis",
    "graded_basis", "interior_point", "nonreduced_canonical_form",
    "nonreduced_from_triangulation", "oriented_matroid_for",
    "os_algebra_for", "perturbation_signature", "placing_triangulation",
    "sample_weight_vectors", "simplex_identity_check", "structure_constants",
    "transport_to_base", "tq_basis", "tutte_eval", "validate_chirotope",
]
