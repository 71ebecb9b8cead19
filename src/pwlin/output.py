"""Deterministic CSV and SVG emitters.

Outputs carry no timestamps or environment data: identical inputs give
byte-identical files.
"""
from __future__ import annotations

import math
from dataclasses import dataclass
from functools import cache
from itertools import starmap

from .core import Params, Point, check_escape, mpf_pair, orbit_chain
from .errors import ArgumentError


def _fmt17(v) -> str:
    """Decimal with 17 significant digits (round-trips doubles) for a
    float or an mpmath float; ``mpmath.nstr(v, 17)``, which is ``str(v)``
    for other types, such as a ``Fraction``'s exact ``p/q``."""
    if isinstance(v, float):
        return f"{v:.17g}"
    raw = getattr(v, "_mpf_", None)
    if raw is not None and raw[3] >= 0:  # finite: nan and +-inf have bc < 0
        return _fmt17_pair(*mpf_pair(v))
    import mpmath

    return mpmath.nstr(v, 17)


#: mpmath's ``to_str(s, 17)`` asks ``to_digits_exp`` for 17 + 3 digits,
#: which it computes at ``int(20 * math.log(10, 2)) + 10`` bits.
_DIGIT_BITS = int(20 * math.log(10, 2)) + 10


@cache
def _digit_plan(top: int) -> tuple[int, int, int]:
    """``(fixprec, fixdps, 10**fixdps)`` of ``to_digits_exp`` at 20 digits
    for a value in ``[2**(top - 1), 2**top)``."""
    fixprec = max(_DIGIT_BITS - top, 0)
    fixdps = int(fixprec / math.log(10, 2) + 0.5)
    return fixprec, fixdps, 10 ** fixdps


def _fmt17_pair(m: int, e: int) -> str:
    """``mpmath.libmp.to_str(from_man_exp(m, e), 17)``, what
    ``mpmath.nstr(v, 17)`` gives for the mpf ``v = m * 2**e``, in integer
    arithmetic.

    As ``to_str`` does: the fixed-point digits of ``|v|``, floored, at
    the bit and digit counts that ``to_digits_exp`` derives from ``top
    = e + m.bit_length()`` (which normalizing ``(m, e)`` does not
    change), rounded half up on the 18th digit, then written in fixed
    layout when the decimal exponent is in (-5, 17) and in scientific
    layout otherwise, trailing zeros stripped.  Beyond ``|top| > 3500``,
    where ``to_digits_exp`` first divides by a power of ten, ``to_str``
    itself formats the value.
    """
    if not m:
        return "0.0"
    top = e + m.bit_length()
    if abs(top) > 3500:
        from mpmath.libmp import from_man_exp, to_str

        return to_str(from_man_exp(m, e), 17)
    fixprec, fixdps, scale = _digit_plan(top)
    sign, m = ("-", -m) if m < 0 else ("", m)
    shift = e + fixprec
    fixed = m << shift if shift >= 0 else m >> -shift
    digits = str(fixed * scale >> fixprec)
    exponent = len(digits) - fixdps - 1
    if len(digits) > 17 and digits[17] >= "5":
        digits = str(int(digits[:17]) + 1)
        if len(digits) > 17:  # 99...9 carried: its 18th digit, 0, is stripped
            exponent += 1
    else:
        digits = digits[:17]
    if -5 < exponent < 17:
        if exponent < 0:
            digits, split = "0" * -exponent + digits, 1
        else:
            split = exponent + 1
        suffix = ""
    else:
        split, suffix = 1, f"e{exponent:+d}"
    text = (digits[:split] + "." + digits[split:]).rstrip("0")
    if text[-1] == ".":
        text += "0"
    return sign + text + suffix


def emit_orbit_csv(params: Params, start: Point, n: int, path) -> None:
    """Write the orbit of ``|n|`` steps (backward when ``n < 0``) as
    ``n,x,y`` rows, ``|n| + 2`` lines with the header.

    Floats and mpmath floats get 17 significant digits, as
    ``mpmath.nstr(v, 17)`` gives them; other types are written as
    ``str`` gives them, so ``Fraction``s exactly, as ``p/q``.  The rows
    need only :func:`~pwlin.core.orbit_chain`'s x-chain, whose mpf pairs
    are formatted without making an mpf.  An escaping orbit raises
    :func:`~pwlin.core.check_escape`'s error before the file is opened.
    """
    chain, ctx, escape = orbit_chain(params, start, n)
    check_escape(escape)
    cells = list(starmap(_fmt17_pair, chain) if ctx else map(_fmt17, chain))
    pairs = zip(cells[1:], cells) if n >= 0 else zip(cells, cells[1:])
    lines = ["n,x,y"]
    lines.extend(f"{i},{x},{y}" for i, (x, y) in enumerate(pairs))
    with open(path, "w", newline="") as fh:
        fh.write("\n".join(lines) + "\n")


_SCAN_COLUMNS = ("a", "b", "rotation_value", "rotation_steps",
                 "rotation_error_bound", "rotation_snap_p", "rotation_snap_q",
                 "verdict", "periodic_q", "norm_growth",
                 "near_return_residual", "period_matrix_residual",
                 "radius_ratio", "error")


def _csv_cell(v) -> str:
    if v is None:
        return ""
    return _fmt17(v) if isinstance(v, float) else str(v)


def emit_scan_csv(records, path) -> None:
    """Write scan records (``ClassRecord``) as CSV, one row per cell.

    Floats carry 17 significant digits; absent values are empty cells.
    """
    lines = [",".join(_SCAN_COLUMNS)]
    for rec in records:
        row = rec.to_dict()
        lines.append(",".join(_csv_cell(row[c]) for c in _SCAN_COLUMNS))
    with open(path, "w", newline="") as fh:
        fh.write("\n".join(lines) + "\n")


@dataclass(frozen=True)
class PlotSpec:
    """What to draw: an orbit, and optionally a certified-circle overlay."""

    params: Params
    start: Point
    n: int
    path: str
    size: tuple[int, int] = (800, 800)
    overlay: list[Point] | None = None

    def __post_init__(self):
        if abs(self.n) > 10_000_000:
            raise ArgumentError("iteration count capped at 1e7")


def emit_svg(spec: PlotSpec) -> None:
    """Render orbit points (0.5 px dots) and the optional overlay.

    The view window is the 1%-99% quantile bounding box of all plotted
    points with a 5% margin; the axes are drawn through the origin when
    it is inside the window.  An escaping orbit is drawn up to its
    escape.  Pixels are computed in doubles, rounded from an mpf chain's
    integer mantissas as ``float(v)`` rounds the mpf ``v``.
    """
    import numpy as np

    chain, ctx, _ = orbit_chain(spec.params, spec.start, spec.n)
    if ctx is not None:
        from mpmath.libmp import from_man_exp, to_float

        chain = [to_float(from_man_exp(m, e), rnd="n") for m, e in chain]
    xs = np.array(chain, dtype=float)
    xs, ys = (xs[:-1], xs[1:]) if spec.n < 0 else (xs[1:], xs[:-1])
    _write_svg(spec, xs, ys)


#: Dots per block that the SVG writer formats and writes at a time.
SVG_BLOCK = 2048
_DOT_PIECES = (b'<circle cx="', b'" cy="', b'" r="0.5" fill="#1f4e79"/>\n')
#: ``rint(|v| * 100)`` is ``%.2f``'s rounding of v below this product...
_CENTS_LIMIT = 2.0 ** 42
#: ...and more than this away from a .5 tie (its rounding error is at
#: most 2**-11 there).
_TIE_MARGIN = 2.0 ** -10


def _write_svg(spec: PlotSpec, xs: np.ndarray, ys: np.ndarray) -> None:
    """:func:`emit_svg` with the orbit already computed, as float64 x and
    y arrays.

    Each pixel coordinate is the per-point ``(x - x_lo) * width /
    x_span`` (and ``(y_hi - y) * height / y_span``) evaluated on the
    arrays, the same operations in the same order, and is formatted as
    ``%.2f`` does (the formatter of ``f"{v:.2f}"`` for floats) by
    :func:`_format_rows`.  A point is drawn when it lies within one
    pixel of the canvas; NaN and infinite coordinates pass through the
    arithmetic silently and never do.  The dots are written in blocks
    of ``SVG_BLOCK``.
    """
    import numpy as np

    overlay = np.array(spec.overlay or [], dtype=float).reshape(-1, 2)
    all_x = np.concatenate([xs, overlay[:, 0]])
    all_y = np.concatenate([ys, overlay[:, 1]])
    width, height = spec.size
    if all_x.size:
        with np.errstate(invalid="ignore"):  # inf - inf between quantiles
            x_lo, x_hi = (float(v) for v in np.percentile(all_x, [1.0, 99.0]))
            y_lo, y_hi = (float(v) for v in np.percentile(all_y, [1.0, 99.0]))
    else:
        x_lo = y_lo = -1.0
        x_hi = y_hi = 1.0
    x_span = x_hi - x_lo or 1.0
    y_span = y_hi - y_lo or 1.0
    x_lo -= 0.05 * x_span
    x_hi += 0.05 * x_span
    y_lo -= 0.05 * y_span
    y_hi += 0.05 * y_span
    # beyond 2**49 the margin can round away: keep the window nonempty
    x_span = x_hi - x_lo or 1.0
    y_span = y_hi - y_lo or 1.0
    with np.errstate(over="ignore", invalid="ignore"):
        px = (all_x - x_lo) * width / x_span
        py = (y_hi - all_y) * height / y_span

    parts = [
        f'<svg xmlns="http://www.w3.org/2000/svg" width="{width}" '
        f'height="{height}" viewBox="0 0 {width} {height}">',
        f'<rect width="{width}" height="{height}" fill="#ffffff"/>',
    ]
    if x_lo < 0.0 < x_hi:
        cx = (0.0 - x_lo) * width / x_span
        parts.append(
            f'<line x1="{cx:.2f}" y1="0" x2="{cx:.2f}" y2="{height}" '
            'stroke="#999999" stroke-width="1"/>')
    if y_lo < 0.0 < y_hi:
        cy = (y_hi - 0.0) * height / y_span
        parts.append(
            f'<line x1="0" y1="{cy:.2f}" x2="{width}" y2="{cy:.2f}" '
            'stroke="#999999" stroke-width="1"/>')
    n = xs.size
    dx, dy = px[:n], py[:n]
    # a non-finite coordinate never gives a pixel inside the window
    drawn = (dx >= -1) & (dx <= width + 1) & (dy >= -1) & (dy <= height + 1)
    dx, dy = dx[drawn], dy[drawn]
    with open(spec.path, "wb") as fh:
        fh.write("".join(f"{part}\n" for part in parts).encode())
        for lo in range(0, dx.size, SVG_BLOCK):
            fh.write(_format_rows(_DOT_PIECES, dx[lo:lo + SVG_BLOCK],
                                  dy[lo:lo + SVG_BLOCK]))
        if spec.overlay:
            coords = _format_rows((b"", b",", b" "), px[n:], py[n:])[:-1]
            fh.write(b'<polyline points="' + coords + b'" fill="none" '
                     b'stroke="#d7301f" stroke-width="1"/>\n')
        fh.write(b"</svg>\n")


def _format_rows(pieces: tuple[bytes, ...], *columns: np.ndarray) -> bytes:
    """One row per element, concatenated: ``pieces[0]``, then each
    column's element as ``%.2f`` formats it followed by the next piece.

    The rows are cells of a byte matrix, fixed pieces and right-aligned
    numbers, and a mask of the cells in use picks the output.
    """
    import numpy as np

    count = len(columns[0])
    cells, used = [], []
    for i, piece in enumerate(pieces):
        cells.append(np.broadcast_to(np.frombuffer(piece, np.uint8),
                                     (count, len(piece))))
        used.append(np.ones((count, len(piece)), bool))
        if i < len(columns):
            chars, keep = _fixed2(np.asarray(columns[i], dtype=float))
            cells.append(chars)
            used.append(keep)
    return np.hstack(cells)[np.hstack(used)].tobytes()


def _fixed2(v: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """``"%.2f" % x`` for each x of ``v``: a byte matrix with one
    right-aligned row per element, and the mask of the cells in use.

    Where ``|x| * 100`` is below ``_CENTS_LIMIT`` and more than
    ``_TIE_MARGIN`` from a .5 tie, its float product rounds to the
    integer that the exact product rounds to, so the digits are
    ``rint(|x| * 100)``'s; the sign comes from ``signbit``, so -0.0 and
    small negatives give "-0.00" as ``%`` does.  The other elements
    (near ties, non-finite, large) are formatted by ``%`` itself.
    """
    import numpy as np

    with np.errstate(over="ignore", invalid="ignore"):
        t = np.abs(v) * 100.0
        fast = (t < _CENTS_LIMIT) & (np.abs(t - np.floor(t) - 0.5)
                                     > _TIE_MARGIN)
    whole, cents = np.divmod(np.rint(np.where(fast, t, 0.0)).astype(np.int64),
                             100)
    slow = np.flatnonzero(~fast).tolist()
    texts = ["%.2f" % x for x in v[slow].tolist()]
    digits = len(str(int(whole.max()))) if v.size else 1
    width = max([digits + 4] + [len(s) for s in texts])
    chars = np.zeros((v.size, width), np.uint8)
    keep = np.zeros((v.size, width), bool)
    dot = width - 3
    chars[:, dot] = ord(".")
    chars[:, dot + 1] = cents // 10 + ord("0")
    chars[:, dot + 2] = cents % 10 + ord("0")
    keep[:, dot:] = True
    place = 1
    for col in range(dot - 1, dot - 1 - digits, -1):
        chars[:, col] = whole // place % 10 + ord("0")
        keep[:, col] = whole >= place
        place *= 10
    keep[:, dot - 1] = True  # the units digit, 0 included
    chars[:, dot - 1 - digits] = ord("-")
    keep[:, dot - 1 - digits] = np.signbit(v)
    for k, text in zip(slow, texts):
        keep[k] = False
        keep[k, width - len(text):] = True
        chars[k, width - len(text):] = np.frombuffer(text.encode(), np.uint8)
    return chars, keep
