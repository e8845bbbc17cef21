"""Exact tools for 0/1-polytope families: enumeration, adjacency and
face certificates, affine reductions between families, and the
equal-sum pair witness construction on stable-set polytopes.

The package namespace re-exports the names the README, the tests and
the benchmark use; everything else is imported from its module."""

from .errors import Defect, FormatError, InputError, PolytopeError
from .formats import (
    format_graph,
    format_matrix,
    format_pairs,
    format_vertex,
    format_vertex_list,
    parse_graph,
    parse_matrix,
    parse_pairs,
    parse_vertex,
    parse_vertex_list,
    rat_str,
)
from .hull import (
    HullCertificate,
    SegmentCertificate,
    are_adjacent,
    enumerate_vertices,
    in_convex_hull,
    in_convex_hull_bruteforce,
    verify_face_certificate,
    verify_hull_certificate,
)
from .matsui import matsui_check
from .model import BinaryMatrix, Bits, Graph, dcp, stable
from .witness import pair_extension_oracle, refute_face

__version__ = "0.1.0"
