"""Orbits, rotation numbers, return maps and piecewise-conic invariant
circles of the two-slope piecewise-linear area-preserving plane map
(x, y) -> (a*x - y, x) for x >= 0, (b*x - y, x) for x < 0."""

from . import errors
from .builder import (
    InvariantCircle,
    build_invariant_circle,
    circle_to_polyline,
    residual_report,
)
from .circle import (
    RotationEstimate,
    lift_displacement,
    rotation_number,
    s_step,
    snap_rational,
)
from .conics import (
    ConicArc,
    ConicClass,
    QuadraticForm,
    arc_in_sector,
    eigenrays,
    invariant_form,
    level_through,
)
from .core import (
    Mat2,
    Params,
    difference_step,
    inverse_step,
    iterate,
    step,
    swap_conjugate,
    word_matrix,
)
from .families import (
    FamilyId,
    SpectralData,
    VerificationReport,
    alpha0,
    closed_rotation,
    curve_find,
    family_b,
    family_params,
    verify_family,
)
from .output import PlotSpec, emit_orbit_csv, emit_scan_csv, emit_svg
from .returnmap import (
    OrbitRelation,
    Ray,
    ReturnMap,
    ReturnPiece,
    Sector,
    commutator_residual,
    distinguished_sectors,
    distinguished_set,
    first_preimage_in,
    orbit_relation,
    return_map,
)
from .scanner import ClassRecord, Evidence, ScanConfig, Verdict, classify, scan

__all__ = [
    "ClassRecord",
    "ConicArc",
    "ConicClass",
    "Evidence",
    "FamilyId",
    "InvariantCircle",
    "Mat2",
    "OrbitRelation",
    "Params",
    "PlotSpec",
    "QuadraticForm",
    "Ray",
    "ReturnMap",
    "ReturnPiece",
    "RotationEstimate",
    "ScanConfig",
    "Sector",
    "SpectralData",
    "Verdict",
    "VerificationReport",
    "alpha0",
    "arc_in_sector",
    "build_invariant_circle",
    "circle_to_polyline",
    "classify",
    "closed_rotation",
    "commutator_residual",
    "curve_find",
    "difference_step",
    "distinguished_sectors",
    "distinguished_set",
    "eigenrays",
    "emit_orbit_csv",
    "emit_scan_csv",
    "emit_svg",
    "errors",
    "family_b",
    "family_params",
    "first_preimage_in",
    "invariant_form",
    "inverse_step",
    "iterate",
    "level_through",
    "lift_displacement",
    "orbit_relation",
    "residual_report",
    "return_map",
    "rotation_number",
    "s_step",
    "scan",
    "snap_rational",
    "step",
    "swap_conjugate",
    "verify_family",
    "word_matrix",
]

__version__ = "0.1.0"
