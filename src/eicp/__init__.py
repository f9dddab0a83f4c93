"""Exact solver, code constructor, and verification workbench for embedded index coding."""

from .codes import (
    DecodeReport,
    EmbeddedIndexCode,
    Transmission,
    can_decode,
    decodable_from,
    decode_coeffs,
    message_support,
    parse_code,
    serialize_code,
    uncoded_scheme,
    unit_vector,
    verify_code,
)
from .covers import CoverPlan, biclique_cover, demand_relabeling, tree_cover
from .errors import (
    ConsistencyError,
    EicpError,
    FieldError,
    GenerationError,
    GuardExceededError,
    InstanceFormatError,
    InvalidCodeError,
    InvalidInstanceError,
    NotDecodableError,
    NotSingleUnicastError,
    OracleExhaustedError,
)
from .experiments import compare_schemes
from .gf import EchelonBasis, FieldOrder, GfVector, basis_insert, field_inv, in_span, rank
from .graphs import (
    SideInfoBipartiteGraph,
    StructureWitness,
    build_problem_graph,
    build_side_info_graph,
    canonical_form,
    is_connected,
    prune_degree_one,
    verify_structure,
)
from .minrank import (
    CandidateSet,
    MinrankResult,
    build_candidates,
    complexity_report,
    extract_code,
    graph_candidate_supports,
    minrank_bnb,
    minrank_oracle,
)
from .model import (
    EicpInstance,
    InstanceClass,
    classify,
    enumerate_demands,
    gen_random,
    gen_vanet,
    parse_instance,
    require_valid,
    serialize_instance,
    validate,
)

__version__ = "0.1.0"

__all__ = [name for name in dir() if not name.startswith("_")]
