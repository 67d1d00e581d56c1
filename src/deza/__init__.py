"""Deza graph and divisible design graph toolkit."""
__version__ = "0.1.0"

from .graphs import (Graph, GraphError, InternalInvariantError, MAX_VERTICES,
                     cartesian_product, complement, complete_graph,
                     cycle_graph, disjoint_union, empty_graph, fano_incidence,
                     fano_lines, fano_non_incidence, hypercube, make_graph,
                     permute_graph, petersen)
from .canon import CanonicalCertificate, canonical_certificate, are_isomorphic
from .graph6 import Graph6Error, decode_graph6, encode_graph6
from .classify import (ClassificationReport, ZeroLambdaAudit, beta_formula,
                       classify, common_neighbour_count, zero_lambda_audit)
from .spectra import (A2Violation, DdgSpectrum, SpectrumFactors,
                      SpectrumMismatch, adjacency_square_identity, char_poly,
                      ddg_spectrum_check, factor_adjacency_poly,
                      squarefree_part)
from .ddg import (ClassAudit, DdgDetection, DdgResult, class_audits,
                  ddg_detect, equitable_check, rho_closure_shortcut)
from .sieve import (RuleResult, SieveVerdict, ddg_sieve, deza_sieve,
                    quadratic_residue, scan_n2_tuples, scan_small_n_tuples)
from .census import (AuditReport, CensusRecord, PruneSpec, audit_theorem,
                     build_record, census, generate_regular, parse_filter)
from .catalog import (CatalogEntry, catalog, catalog_names, construct,
                      verify_catalog, verify_entry)
