"""Dataset ingestion, preprocessing, and per-point fairness radii.

A :class:`Dataset` is an immutable array of d-dimensional points with implicit
ids ``0..n-1``.  The fairness radius of a point is the distance to its
``ceil(n/k)``-th nearest neighbour (the point itself counts as the first), so
the closed ball of that radius always holds at least ``n/k`` points.  For
large inputs the same rank statistic can be taken over a fixed random sample
instead of the full dataset.
"""

from __future__ import annotations

import csv
import functools
import math
import operator
import re
import warnings
from dataclasses import dataclass
from pathlib import Path
from typing import Sequence

import numpy as np

from ._dist import Boxes, Lift, box_layout, lift_points, ranked_sq_dist, sq_dist_blocks

# Exact radii estimate all n**2 pairwise distances (kernel values only for
# the pairs that can decide a radius, at d > 2); above this size the sampled
# mode is the documented path.
EXACT_RADII_RECOMMENDED_MAX = 50_000


@dataclass(frozen=True)
class Dataset:
    """Immutable collection of points with stable integer ids.

    Parameters
    ----------
    points : array-like of shape (n, d)
        Finite coordinates; one row per point.  Ids are the row indices.

    Distinct points so close that every squared distance underflows (the
    largest per-dimension spread squared is below the smallest normal
    float64) are a ValueError: every radius, cost and ratio would read 0.
    Identical points pass.  So no entry can be handed such points, and
    :func:`load_points`, :func:`subsample` and :func:`normalize` raise the
    same error through this constructor.

    The points are copied (:func:`as_floats`) and the copy is made
    read-only, so the caller's array stays writable and later changes to it
    do not reach the dataset.  ``lift`` is the points' filter lift for the
    search's candidate pass (``_dist.lift_points`` of the points; None where
    the filter declines), and ``boxes`` their box layout
    (``_dist.box_layout``; None at d > 2), which the radii's box cut and the
    search's candidate pass share at d <= 2.  Each is built on first read
    and kept: it depends on the points alone.
    """

    points: np.ndarray

    def __post_init__(self):
        pts = as_floats("points", self.points)
        if pts.ndim == 1:
            pts = pts.reshape(-1, 1)
        if pts.ndim != 2:
            raise ValueError("points must be a 2-dimensional array")
        if pts.shape[0] < 1 or pts.shape[1] < 1:
            raise ValueError("dataset needs at least one point and one dimension")
        if not np.all(np.isfinite(pts)):
            raise ValueError("coordinates must be finite (no NaN or infinity)")
        # column by column, as the axis-0 reductions are slower on tall
        # arrays, and in Python floats, which overflow to inf without a warning
        spread = max(float(col.max()) - float(col.min()) for col in pts.T)
        if 0 < spread and spread * spread < np.finfo(np.float64).tiny:
            raise ValueError(
                f"squared distances underflow float64 (coordinate spread {spread:.3g}); "
                "rescale the points, e.g. divide them by their largest coordinate spread"
            )
        pts.setflags(write=False)
        object.__setattr__(self, "points", pts)

    @property
    def n(self) -> int:
        return self.points.shape[0]

    @property
    def d(self) -> int:
        return self.points.shape[1]

    @functools.cached_property
    def lift(self) -> Lift | None:
        return lift_points(self.points)

    @functools.cached_property
    def boxes(self) -> Boxes | None:
        return box_layout(self.points)


@dataclass(frozen=True)
class RadiusBounds:
    """Per-point fairness radii ``delta``, one finite nonnegative value per
    point (:func:`check_radius_values`), from :func:`compute_radii` or
    supplied by the user.  Stored as a read-only copy, as
    :class:`Dataset` stores its points."""

    delta: np.ndarray

    def __post_init__(self):
        d = as_floats("delta", self.delta)
        if d.ndim != 1:
            raise ValueError("delta must be a 1-dimensional array")
        check_radius_values(d)
        d.setflags(write=False)
        object.__setattr__(self, "delta", d)

    def __len__(self) -> int:
        return self.delta.shape[0]


def load_points(
    path: str | Path,
    columns: Sequence[int] | None = None,
    header: bool = False,
) -> Dataset:
    """Load a CSV file of numeric coordinates.

    Parameters
    ----------
    path : str or Path
        Comma-separated file.
    columns : sequence of int, optional
        Column indices to keep, counted from 0; all columns when omitted.
        A negative index is a ValueError, a non-integer one a TypeError.
    header : bool
        Skip the first non-blank row, the one the column names are on.
        Blank rows (no field, or one field of whitespace) are skipped
        anywhere in the file, so blank rows before the header are too.

    Row order is preserved as point ids.  Parse failures report the
    1-based file row and column of the offending value.

    The reference reader is a per-value loop over ``csv.reader``
    (:func:`_read_rows`): it decides every doubtful file and is the one
    source of the named errors.  numpy's C parser (``np.loadtxt``) reads
    the file first, all columns, and hands it back to the loop unchanged
    when the file holds a ``"`` byte (quoting is the only way ``csv``
    splits fields or records differently from a plain split), when
    ``header`` is set and the first line may be blank (numpy would skip it
    in place of the header), when some line is longer than
    ``csv.field_size_limit()`` (the loop rejects such a field, numpy does
    not), when numpy raises or warns, when it finds no rows, when a
    selected column is missing, or when a selected value is not finite.
    Where it is kept, its result equals the loop's bit for bit, sign of
    zero included.
    """
    path = Path(path)
    cols = list(columns) if columns is not None else None
    for c in cols or ():
        _check_integer("column", c, -math.inf)
        if c < 0:
            raise ValueError(f"column {c} is negative; columns count from 0")
    points = _read_fast(path, cols, header)
    return Dataset(_read_rows(path, cols, header) if points is None else points)


def _read_fast(path: Path, cols: list[int] | None, header: bool) -> np.ndarray | None:
    """:func:`load_points`' values from ``np.loadtxt``, or None where the
    loop must decide.  The two checks run on the raw bytes: ``"``, CR and
    LF are one byte each in any ASCII-compatible encoding and every other
    char is at least one, so the byte length of a line bounds its length
    in chars.  A first line without a printable ASCII byte may be blank to
    the loop, whose ``str.strip`` also removes non-ASCII whitespace."""
    try:
        data = path.read_bytes()
        if b'"' in data or _has_long_line(data, csv.field_size_limit()):
            return None
        if header and re.match(rb"[^!-~\r\n]*(?:[\r\n]|\Z)", data):
            return None
        del data
        # any exception or warning declines: the loop then raises its own
        # named error or reads what numpy could not
        with open(path, newline="") as fh, warnings.catch_warnings():
            warnings.simplefilter("error")
            points = np.loadtxt(
                fh, delimiter=",", comments=None, skiprows=int(header), ndmin=2, dtype=np.float64
            )
        if cols is not None:
            points = points[:, cols]
    except Exception:
        return None
    if points.shape[0] == 0 or not np.all(np.isfinite(points)):
        return None
    return points


def _has_long_line(data: bytes, limit: int) -> bool:
    """True when some line of ``data`` holds more than ``limit`` bytes; a
    CR or LF ends a line, as it ends a csv record.  Each step looks for the
    last line end in the next ``limit + 1`` bytes, so two steps advance by
    at least ``limit`` bytes."""
    start = 0
    while len(data) - start > limit:
        stop = start + limit + 1
        end = max(data.rfind(b"\n", start, stop), data.rfind(b"\r", start, stop))
        if end < 0:
            return True
        start = end + 1
    return False


def _read_rows(path: Path, cols: list[int] | None, header: bool) -> np.ndarray:
    """:func:`load_points`' reference reader: one ``float`` per selected
    value, each fault a ValueError naming the file row (the csv record,
    counted from 1) and, for a value, its column."""
    rows: list[list[float]] = []
    arity: int | None = None
    lineno = 0
    with open(path, newline="") as fh:
        reader = csv.reader(fh)
        try:
            for lineno, raw in enumerate(reader, start=1):
                if not raw or (len(raw) == 1 and raw[0].strip() == ""):
                    continue
                if header:
                    header = False
                    continue
                if arity is None:
                    arity = len(raw)
                elif len(raw) != arity:
                    raise ValueError(
                        f"{path}: row {lineno} has {len(raw)} fields, expected {arity}"
                    )
                use = cols if cols is not None else range(len(raw))
                parsed = []
                for c in use:
                    if c >= len(raw):
                        raise ValueError(f"{path}: row {lineno} has no column {c}")
                    text = raw[c].strip()
                    try:
                        val = float(text)
                    except ValueError:
                        raise ValueError(
                            f"{path}: row {lineno}, column {c}: "
                            f"could not parse {text!r} as a number"
                        ) from None
                    if not math.isfinite(val):
                        raise ValueError(
                            f"{path}: row {lineno}, column {c}: value {text!r} is not finite"
                        )
                    parsed.append(val)
                rows.append(parsed)
        except csv.Error as exc:
            # csv's own faults, such as a field over csv.field_size_limit()
            raise ValueError(f"{path}: row {lineno + 1}: {exc}") from None
    if not rows:
        raise ValueError(f"{path}: no data rows")
    return np.array(rows, dtype=np.float64)


def normalize(ds: Dataset) -> Dataset:
    """Shift and scale every dimension to zero mean and unit population std.

    A dimension that cannot be scaled raises a ValueError naming it: one
    whose mean or std overflows float64, one whose std underflows to 0
    although its values differ, and a constant one.
    """
    if ds.n < 2:
        raise ValueError("normalization needs at least 2 points")
    with np.errstate(over="ignore", invalid="ignore"):
        mean = ds.points.mean(axis=0)
        std = ds.points.std(axis=0)
    wide = np.flatnonzero(~(np.isfinite(mean) & np.isfinite(std)))
    if wide.size:
        raise ValueError(
            f"dimension {int(wide[0])} spans too wide a range to normalize (its mean "
            "or std overflows float64); rescale it, e.g. divide it by its largest magnitude"
        )
    flat = np.flatnonzero(std == 0)
    if flat.size:
        dim = int(flat[0])
        if np.ptp(ds.points[:, dim]) > 0:
            raise ValueError(
                f"dimension {dim} spans too narrow a range to normalize (its std "
                "underflows to 0); rescale it, e.g. divide it by its coordinate spread"
            )
        raise ValueError(f"dimension {dim} is constant and cannot be normalized")
    return Dataset((ds.points - mean) / std)


def subsample(ds: Dataset, m: int, seed: int) -> Dataset:
    """Uniform sample of ``m`` points without replacement.

    Deterministic for a given seed.  The rows keep their original order and
    are re-indexed ``0..m-1``.  With ``m == n`` the dataset is copied
    unchanged.
    """
    _check_integer("m", m, 1, ds.n)
    _check_integer("seed", seed, 0)
    rng = np.random.default_rng(seed)
    idx = np.sort(rng.choice(ds.n, size=m, replace=False))
    return Dataset(ds.points[idx])


def compute_radii(
    ds: Dataset,
    k: int,
    mode: str = "exact",
    sample_size: int = 1000,
    seed: int = 0,
) -> RadiusBounds:
    """Fairness radius of every point.

    Parameters
    ----------
    ds : Dataset
    k : int
        Number of clusters the radii are relative to.
    mode : {"exact", "sampled"}
        ``exact``: delta(p) is the ``ceil(n/k)``-th smallest distance from p
        to all n points, self-distance included.  Quadratic in n, through
        ``_dist.ranked_sq_dist``'s filters: at d > 2 every pair gets a
        dot-product estimate, at d <= 2 each block of nearby points gets
        bounds against every point (the box cut), and only the pairs that
        can decide a radius get kernel distances (in row chunks either
        way); fine up to ~50k points.
        ``sampled``: the same rank statistic over one fixed uniform sample of
        ``s = min(sample_size, n)`` points shared by every p, at rank
        ``ceil(s / k)``.  With ``sample_size >= n`` the sample is the whole
        dataset and the radii equal the exact ones.
    sample_size, seed : int
        Sampled mode only.

    Raises a ValueError when squared distances overflow float64 and leave
    a radius infinite (:func:`check_distance_overflow`); rescale the points
    first.  Points whose squared distances underflow never get here: the
    :class:`Dataset` constructor rejects them.
    """
    _check_integer("k", k, 1, ds.n)
    X = ds.points
    if mode == "exact":
        ref, rank = X, -(-ds.n // k)
    elif mode == "sampled":
        _check_integer("sample_size", sample_size, 1)
        _check_integer("seed", seed, 0)
        rng = np.random.default_rng(seed)
        s = min(sample_size, ds.n)
        sample_ids = rng.choice(ds.n, size=s, replace=False)
        ref, rank = X[sample_ids], -(-s // k)
    else:
        raise ValueError(f"unknown radius mode {mode!r}")
    sq = ranked_sq_dist(X, ref, rank, ds.boxes)
    check_distance_overflow(sq)
    return RadiusBounds(np.sqrt(sq))


def check_distance_overflow(sq) -> None:
    """ValueError when some squared distance in ``sq`` overflowed float64
    to inf.  With the :class:`Dataset` constructor's underflow test and
    :func:`check_cost_scale`, one of the three checks that distances and
    costs stay in float64's range; no other module raises such an error.
    Run on :func:`compute_radii`'s ranked distances, on
    :func:`aspect_ratio`'s largest one, when no subset is feasible on
    ``brute_force_opt``'s pairwise matrix, and on each point's squared
    distance to its nearest center in ``refine.assign`` and in
    ``metrics._score`` (so ``cost``, ``bound_ratio`` and the harness's
    scores): where that distance overflows, the labels and scores read
    inf for every far center alike."""
    if not np.all(np.isfinite(sq)):
        raise ValueError(
            "squared distances overflow float64 (coordinates too large); "
            "rescale the points, e.g. divide them by their largest magnitude"
        )


def check_cost_scale(total: float) -> None:
    """ValueError when a total cost (a sum of squared distances to the
    nearest center) overflowed float64: every cost compared with it would
    read inf, and the search and refinement would stall on it.  Run on the
    ``Solution`` constructor's total, on the Lloyd loop's entry cost and on
    the D² draw's total weight (the search's and k-means++ seeding's), which
    is the total cost of the centers drawn from."""
    if not math.isfinite(total):
        raise ValueError(
            "the total cost (sum of squared distances to the nearest center) "
            "overflows float64; rescale the points, e.g. divide them by their "
            "largest magnitude"
        )


def _check_integer(name: str, value, low: int, high: float = math.inf) -> None:
    """The one check of a count: TypeError naming ``name`` unless ``value``
    is an integer, Python's or numpy's, other than a bool (numpy would reject
    a float or bool count deep inside with a message that names neither), and
    ValueError unless it lies in ``[low, high]``."""
    try:
        operator.index(value)
        if isinstance(value, bool):  # operator.index(True) is 1
            raise TypeError
    except TypeError:
        raise TypeError(f"{name} must be an integer, got {value!r}") from None
    if not low <= value <= high:
        span = f"at least {low}" if high == math.inf else f"in [{low}, {high}]"
        raise ValueError(f"{name}={value} must be {span}")


def _rng(seed) -> np.random.Generator:
    """The one check of a seed that may be a generator: a numpy Generator
    passes through, anything else must be a non-negative integer
    (:func:`_check_integer`) and seeds a fresh one."""
    if isinstance(seed, np.random.Generator):
        return seed
    _check_integer("seed", seed, 0)
    return np.random.default_rng(seed)


def as_floats(name: str, values) -> np.ndarray:
    """The one conversion of outside values to floats: a fresh C-ordered
    float64 array, never the caller's own, so that freezing or writing it
    leaves theirs alone.  Complex values and text, in a string array or as
    ``str`` or ``bytes`` entries of an object array, are a TypeError naming
    ``name``: numpy would drop the imaginary parts behind a ComplexWarning,
    and would parse numeric text as numbers but fail on other text with a
    message that names no input.  Ragged rows are a ValueError naming
    ``name``, where numpy's names none."""
    try:
        arr = np.asarray(values)
    except ValueError:
        raise ValueError(f"{name} must be a rectangular array; its rows differ in length") from None
    text = arr.dtype.kind in "US" or (
        arr.dtype == object and any(isinstance(v, (str, bytes)) for v in arr.flat)
    )
    if np.iscomplexobj(arr) or text:
        raise TypeError(f"{name} must be real numbers, got {arr.dtype}")
    return np.array(arr, dtype=np.float64, order="C")


def check_radius_values(radii: np.ndarray) -> None:
    """The one rule for radii: ValueError unless every value is finite and
    nonnegative (a NaN radius fails every comparison, an infinite one
    passes every one)."""
    if not np.all(np.isfinite(radii)) or np.any(radii < 0):
        raise ValueError("radii must be finite and nonnegative")


def check_radii(ds: Dataset, delta: RadiusBounds) -> None:
    """The one check that radii match the points: ValueError unless
    ``delta`` holds one radius per point (numpy would broadcast a single
    radius over every point)."""
    if len(delta) != ds.n:
        raise ValueError("radius bounds do not match the dataset")


def point_ids(ds: Dataset, ids) -> np.ndarray:
    """The one check of a list of point ids: a nonempty 1-D integer array,
    each id in ``[0, n)`` (numpy indexing would wrap a negative id around to
    a point from the end).  Returns a fresh int64 array; anything else is a
    ValueError that names the fault."""
    arr = np.asarray(ids)
    if arr.size == 0:
        raise ValueError("center set is empty")
    if arr.ndim != 1 or not np.issubdtype(arr.dtype, np.integer):
        raise ValueError(
            f"center ids must be a 1-D integer array, got {arr.dtype} of shape {arr.shape} "
            "(a center set is an integer id list or a (k, d) array of positions)"
        )
    bad = arr[(arr < 0) | (arr >= ds.n)]
    if bad.size:
        raise ValueError(f"center id {int(bad[0])} is outside [0, {ds.n})")
    return arr.astype(np.int64)


def check_positions(positions, d: int) -> np.ndarray:
    """The one check of a set of positions: a nonempty (k, d) array of
    finite values, d columns as the points have (the kernel does not check
    it: at d <= 2 it reads only the first d columns of wider positions, and
    narrower ones fail without naming the cause; a NaN center's distances
    are NaN, which argmin picks as nearest and no comparison rejects).
    Returns a fresh float64 array (:func:`as_floats`); anything else is a
    ValueError that names the fault."""
    arr = np.asarray(positions)
    if arr.size == 0:
        raise ValueError("center set is empty")
    if arr.ndim != 2:
        raise ValueError(f"positions must be a (k, d) array, got {arr.dtype} of shape {arr.shape}")
    if arr.shape[1] != d:
        raise ValueError(f"centers have {arr.shape[1]} columns but the points have {d}")
    arr = as_floats("positions", arr)
    if not np.isfinite(arr).all():
        raise ValueError("positions hold non-finite coordinates (NaN or inf)")
    return arr


def center_positions(ds: Dataset, centers) -> np.ndarray:
    """The one check of a center set on a dataset: a 1-D array is point ids
    (:func:`point_ids`), anything else positions (:func:`check_positions`).
    Returns a fresh float64 (k, d) array; each fault, such as float ids, is
    a ValueError that names it.  Points whose squared distances underflow
    never reach a center set: the :class:`Dataset` constructor rejects
    them."""
    arr = np.asarray(centers)
    if arr.ndim == 1:
        return ds.points[point_ids(ds, arr)]
    return check_positions(arr, ds.d)


def aspect_ratio(ds: Dataset) -> float:
    """Ratio of the largest pairwise distance to the smallest positive one,
    at least 1 by construction.

    Duplicate points are skipped in the minimum.  All-identical points have
    no positive distance and raise a ValueError, and so does a largest
    squared distance that overflows (:func:`check_distance_overflow`: the
    ratio would read inf, or the points identical).  Distinct points whose
    squared distances underflow are rejected by the :class:`Dataset`
    constructor.  Quadratic in n.
    """
    if ds.n < 2:
        raise ValueError("aspect ratio needs at least 2 points")
    X = ds.points
    max_sq = 0.0
    min_pos = np.inf
    # whole rows, so every pair is seen twice; both orders give the same bits
    for _, sq in sq_dist_blocks(X, X):
        max_sq = max(max_sq, float(sq.max()))
        pos = sq[sq > 0]
        if pos.size:
            min_pos = min(min_pos, float(pos.min()))
    check_distance_overflow(max_sq)
    if not np.isfinite(min_pos):
        raise ValueError("all points are identical; aspect ratio undefined")
    return float(np.sqrt(max_sq / min_pos))

