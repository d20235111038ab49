"""Ehrhart polynomials of equilateral lattice triangles in Z^3."""

from .catalog import CatalogRow, VerificationRecord, e_of_d, table1_row, verify_campaign
from .ehrhart import (
    EhrhartPoly,
    SideDecomposition,
    c0_doubled,
    c1_aeqb,
    c1_general,
    ehrhart_poly,
    frame_system,
    side_divisors,
)
from .frame import (
    AlphaBeta,
    Frame,
    aeqb_generate,
    build_frame,
    check_frame_vectors,
    enumerate_triples,
    find_rs,
    solve_alpha_beta,
    triangle_vertices,
)
from .intmath import Vec3, sqrt_exact
from .lattice import (
    BasisPair,
    GeneratorSet,
    Triple,
    coordinates_in_basis,
    generators,
    membership,
    plane_basis,
)
from .oracle import CountReport, count, pick_check

__version__ = "0.1.0"

__all__ = [
    "AlphaBeta",
    "BasisPair",
    "CatalogRow",
    "CountReport",
    "EhrhartPoly",
    "Frame",
    "GeneratorSet",
    "SideDecomposition",
    "Triple",
    "Vec3",
    "VerificationRecord",
    "aeqb_generate",
    "build_frame",
    "c0_doubled",
    "c1_aeqb",
    "c1_general",
    "check_frame_vectors",
    "coordinates_in_basis",
    "count",
    "e_of_d",
    "ehrhart_poly",
    "enumerate_triples",
    "find_rs",
    "frame_system",
    "generators",
    "membership",
    "pick_check",
    "plane_basis",
    "side_divisors",
    "solve_alpha_beta",
    "sqrt_exact",
    "table1_row",
    "triangle_vertices",
    "verify_campaign",
    "__version__",
]
