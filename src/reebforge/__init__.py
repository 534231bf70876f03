"""Realize prescribed level-set graphs by explicit real algebraic maps.

Pipeline: a graph spec (cycle of parallel-edge classes, or a path for maps
to a line) is validated, realized as a certified disjoint circle
arrangement, converted to a product of quadratic factors whose zero set is
a closed surface or higher-dimensional hypersurface, and swept to recover
the quotient graph of the projection, which must match the spec.
Independent oracles (dense sampling, sign-versus-membership tests) recheck
the certified pipeline from outside.
"""

from .errors import (CountMismatch, DegenerateEvent, EulerMismatch,
                     ExpansionTooLarge, HeightFailure, MarginViolation,
                     MissingSingularAngle, ModelMismatch, NoFactors,
                     PackingFailure, ResolutionTooCoarse, SpecValidationError,
                     Violation)
from .graphs import (EmbeddedEdge, EmbeddedGraphDescription, EmbeddingReport,
                     GraphSpec, ValidatedSpec, canonical_cyclic_form,
                     check_embedded_graph, embedded_graph_from_json,
                     graph_spec_from_json, graph_spec_to_json,
                     path_isomorphic, reeb_isomorphic, validate_spec,
                     validated)
from .layout import (CircleArrangement, DisjointnessReport, PlacedCircle,
                     TangencyEvent, build_arrangement, certify_disjointness,
                     choose_annulus_halfwidth, tangency_events)
from .numbers import TurnAngle, decimal_string, format_rational
from .oracle import (MembershipReport, brute_oracle_reeb, membership_check,
                     results_match, smooth_degree_two)
from .poly import (ExtensionArtifact, Factor, FactoredPolynomial,
                   SurfaceModel, degree, eval_and_gradient, evaluate_floats,
                   expand, fiber_word, nonsingular_extension,
                   region_polynomial, render_text, synthesize)
from .svgplot import arrangement_svg
from .sweep import (EulerReport, FiberTable, ReebEdge, ReebGraphResult,
                    ReebVertex, SweepCertificate, euler_check,
                    fiber_counts_check, sweep_reeb, verify_morse)

__version__ = "0.1.0"
