"""Deza graph and divisible design graph toolkit."""
__version__ = "0.1.0"

from .graphs import (Graph, GraphError, InternalInvariantError, MAX_VERTICES,
                     cartesian_product, complement, complete_graph,
                     cycle_graph, disjoint_union, empty_graph, fano_incidence,
                     fano_lines, fano_non_incidence, hypercube, make_graph,
                     permute_graph, petersen)
from .canon import CanonicalCertificate, canonical_certificate
from .graph6 import Graph6Error, decode_graph6, encode_graph6
from .classify import ClassificationReport, beta_formula, classify
from .spectra import (A2Violation, DdgSpectrum, SpectrumFactors,
                      SpectrumMismatch, adjacency_square_identity, char_poly,
                      ddg_spectrum_check, factor_adjacency_poly,
                      squarefree_part)
from .ddg import (ClassAudit, DdgDetection, DdgResult, class_audits,
                  ddg_detect, equitable_check)
from .sieve import (RuleResult, SieveVerdict, ddg_sieve, deza_sieve,
                    scan_n2_tuples, scan_small_n_tuples)
# the functions census() and catalog() are not re-exported: the package
# attributes deza.census and deza.catalog are their modules
from .census import (AuditReport, CensusRecord, audit_theorem, build_record,
                     generate_regular, parse_filter)
from .catalog import (CatalogEntry, catalog_names, construct, verify_catalog,
                      verify_entry)
