"""Orbits, rotation numbers, return maps and piecewise-conic invariant
circles of the two-slope piecewise-linear area-preserving plane map
(x, y) -> (a*x - y, x) for x >= 0, (b*x - y, x) for x < 0.

Load rule: ``import pwlin`` runs only :mod:`pwlin.errors`.  The eight
layer modules (``core``, ``circle``, ``conics``, ``returnmap``,
``builder``, ``families``, ``scanner``, ``output``) are registered in
``sys.modules`` and as attributes of this package through
:class:`importlib.util.LazyLoader`, and each runs on the first access to
one of its attributes: ``pwlin.core.Params``, ``from pwlin.core import
Params``, or a public name of this package such as ``pwlin.Params``,
which is looked up in its layer on every access.  The first access is
not thread-safe on Python 3.11; pwlin is single-threaded, so a
threaded caller touches each layer it needs once before it starts its
threads.
"""

import importlib.util
import sys

from . import errors

#: The public names, by the layer module that defines them.
_PUBLIC = {
    "builder": "InvariantCircle build_invariant_circle circle_to_polyline "
               "residual_report",
    "circle": "RotationEstimate rotation_number snap_rational",
    "conics": "ConicArc ConicClass QuadraticForm arc_in_sector eigenrays "
              "invariant_form level_through",
    "core": "Mat2 Params difference_step inverse_step iterate step "
            "word_matrix",
    "families": "FamilyId SpectralData VerificationReport alpha0 "
                "closed_rotation curve_find family_b verify_family",
    "output": "PlotSpec emit_orbit_csv emit_scan_csv emit_svg",
    "returnmap": "OrbitRelation Ray ReturnMap ReturnPiece Sector "
                 "commutator_residual distinguished_sectors distinguished_set "
                 "first_preimage_in orbit_relation return_map",
    "scanner": "ClassRecord Evidence ScanConfig Verdict classify scan",
}
_LAYER_OF = {name: layer for layer, names in _PUBLIC.items()
             for name in names.split()}

__all__ = sorted([*_LAYER_OF, "errors"])
__version__ = "0.1.0"


def _register(layer: str):
    """Put the layer module in ``sys.modules`` without running it."""
    spec = importlib.util.find_spec(f"{__name__}.{layer}")
    spec.loader = importlib.util.LazyLoader(spec.loader)
    module = importlib.util.module_from_spec(spec)
    sys.modules[spec.name] = module
    spec.loader.exec_module(module)
    return module


globals().update({layer: _register(layer) for layer in _PUBLIC})


def __getattr__(name: str):
    if name in _LAYER_OF:
        return getattr(globals()[_LAYER_OF[name]], name)
    raise AttributeError(f"module {__name__!r} has no attribute {name!r}")


def __dir__():
    return sorted({*globals(), *_LAYER_OF})
