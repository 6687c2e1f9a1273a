"""Gridded field containers, CSV and artifact I/O, anomalies, and synthetic data.

A field is a dense (n_loc, n_time) matrix of one variable on a fixed set
of lon/lat points at strictly increasing integer time steps.  All loaders
normalize ordering (rows by lon then lat, columns by time) so downstream
results do not depend on file row order.

Every CSV table and JSON sidecar the package reads or writes goes through
``read_table``, ``parse_rows`` and ``read_meta``, or ``write_table`` and
``write_json``, which replace files atomically.
"""

from __future__ import annotations

import csv
import io
import json
import math
import os
from dataclasses import dataclass, field

import numpy as np

from .errors import ConfigError, DataError

# Longest delay-embedding extent supported by the default search range
# (lag 1, up to 24 embedding columns).  Synthetic series must comfortably
# exceed it so a training window plus hold-out fits.
MAX_EMBED_EXTENT = 24

_LATENT_RANK = 4


@dataclass(frozen=True)
class FieldSeries:
    """One variable on fixed locations over time.

    values : (n_loc, n_time) float array, all entries finite.
    coords : (n_loc, 2) array of (lon, lat).
    times  : (n_time,) strictly increasing integer time steps.
    """

    values: np.ndarray
    coords: np.ndarray
    times: np.ndarray

    def __post_init__(self):
        values = np.asarray(self.values, dtype=float)
        coords = np.asarray(self.coords, dtype=float)
        times = np.asarray(self.times, dtype=int)
        if values.ndim != 2:
            raise DataError("field values must be a 2-d (n_loc, n_time) array")
        if coords.shape != (values.shape[0], 2):
            raise DataError(
                f"coords shape {coords.shape} does not match {values.shape[0]} locations"
            )
        if times.shape != (values.shape[1],):
            raise DataError(
                f"times length {times.shape} does not match {values.shape[1]} columns"
            )
        if not np.all(np.isfinite(values)):
            raise DataError("field values contain non-finite entries")
        if times.size > 1 and not np.all(np.diff(times) > 0):
            raise DataError("times must be strictly increasing")
        object.__setattr__(self, "values", values)
        object.__setattr__(self, "coords", coords)
        object.__setattr__(self, "times", times)

    @property
    def n_loc(self) -> int:
        return self.values.shape[0]

    @property
    def n_time(self) -> int:
        return self.values.shape[1]


def _parse_time_label(label: str) -> int:
    """Accept either a bare integer or a 't'-prefixed integer column label."""
    s = label.strip()
    if s[:1] in ("t", "T") and s[1:].lstrip("-").isdigit():
        return int(s[1:])
    try:
        return int(s)
    except ValueError:
        raise DataError(f"cannot parse time label {label!r}") from None


def _check_finite(path: str, pairs: list, values: np.ndarray) -> None:
    bad = ~np.isfinite(values).all(axis=1)
    if bad.any():
        raise DataError(f"{path}:{pairs[int(bad.argmax())][0]}: non-finite value")


def _reject_duplicates(path: str, pairs: list, keys: list, what: str) -> None:
    seen = set()
    for (line_no, _), key in zip(pairs, keys):
        if key in seen:
            raise DataError(f"{path}:{line_no}: duplicate {what} {key}")
        seen.add(key)


def read_table(path: str) -> tuple[list[str], list[tuple[int, list[str]]]]:
    """Read a CSV file as (header, [(line number, row), ...]), skipping blank
    lines.  A missing or empty file, or a row whose field count differs from
    the header's, raises DataError."""
    try:
        fh = open(path, newline="")
    except FileNotFoundError:
        raise DataError(f"{path}: file not found") from None
    with fh:
        try:
            reader = csv.reader(fh)
            header = next(reader, None)
            pairs = [(line_no, row) for line_no, row in enumerate(reader, start=2) if row]
        except (csv.Error, UnicodeDecodeError) as e:
            raise DataError(f"{path}: unreadable CSV ({e})") from None
    if header is None:
        raise DataError(f"{path}: empty file")
    for line_no, row in pairs:
        if len(row) != len(header):
            raise DataError(f"{path}:{line_no}: expected {len(header)} fields, got {len(row)}")
    return header, pairs


def parse_rows(path: str, pairs: list[tuple[int, list[str]]], parse) -> list:
    """Apply ``parse`` to every row from ``read_table``; a cell it cannot
    convert (ValueError) raises DataError naming the file and line."""
    out = []
    for line_no, row in pairs:
        try:
            out.append(parse(row))
        except ValueError as e:
            raise DataError(f"{path}:{line_no}: {e}") from None
    return out


def read_meta(path: str) -> dict:
    """Read the JSON sidecar ``path + ".meta.json"`` of the table at ``path``."""
    sidecar = path + ".meta.json"
    try:
        with open(sidecar) as fh:
            meta = json.load(fh)
    except FileNotFoundError:
        raise DataError(f"{path}: missing sidecar {sidecar}") from None
    except ValueError as e:  # JSONDecodeError and UnicodeDecodeError
        raise DataError(f"{sidecar}: invalid JSON ({e})") from None
    if not isinstance(meta, dict):
        raise DataError(f"{sidecar}: sidecar must hold a JSON object")
    return meta


def write_table(path: str, header: list[str], rows, meta: dict | None = None) -> None:
    """Write a CSV table, floats as ``repr(float(v))`` and other cells as
    ``csv`` formats them (None as an empty cell), plus the JSON sidecar
    ``path + ".meta.json"`` when ``meta`` is given.  Each file is replaced
    atomically, so a failed write leaves the previous file (or none)."""
    buf = io.StringIO()
    w = csv.writer(buf)
    w.writerow(header)
    for row in rows:
        w.writerow([repr(float(v)) if isinstance(v, (float, np.floating)) else v for v in row])
    _replace_text(path, buf.getvalue())
    if meta is not None:
        write_json(path + ".meta.json", meta)


def write_json(path: str, obj) -> None:
    """Atomically write ``obj`` as key-sorted JSON, indent 2, trailing newline."""
    _replace_text(path, json.dumps(obj, indent=2, sort_keys=True) + "\n")


def _replace_text(path: str, text: str) -> None:
    tmp = f"{path}.{os.getpid()}.tmp"
    try:
        with open(tmp, "w", newline="") as fh:
            fh.write(text)
        os.replace(tmp, path)
    finally:
        if os.path.exists(tmp):
            os.remove(tmp)


def _sorted_field(values, coords, times) -> FieldSeries:
    coords = np.asarray(coords, dtype=float)
    values = np.asarray(values, dtype=float)
    times = np.asarray(times, dtype=int)
    col_order = np.argsort(times, kind="stable")
    # lexsort: last key is primary, so this is (lat, lon) lexicographic.
    row_order = np.lexsort((coords[:, 0], coords[:, 1]))
    return FieldSeries(
        values=values[np.ix_(row_order, col_order)],
        coords=coords[row_order],
        times=times[col_order],
    )


def load_field(path: str, fmt: str = "wide-csv") -> FieldSeries:
    """Load a field from ``wide-csv`` (lon,lat,t1..tK) or ``long-csv``.

    Ordering in the file is irrelevant: rows are sorted by (lat, lon) and
    columns by time, so a shuffled file loads to the identical series.
    """
    if fmt == "wide-csv":
        return _load_wide(path)
    if fmt == "long-csv":
        return _load_long(path)
    raise ConfigError(f"unknown field format {fmt!r} (use wide-csv or long-csv)")


def _load_wide(path: str) -> FieldSeries:
    header, pairs = read_table(path)
    if len(header) < 3 or header[0].strip().lower() != "lon" or header[1].strip().lower() != "lat":
        raise DataError(f"{path}:1: header must start with lon,lat followed by time columns")
    times = [_parse_time_label(h) for h in header[2:]]
    if len(set(times)) != len(times):
        raise DataError(f"{path}:1: duplicate time columns")
    if not pairs:
        raise DataError(f"{path}: no data rows")
    values = np.asarray(parse_rows(path, pairs, lambda row: [float(v) for v in row]))
    _check_finite(path, pairs, values)
    _reject_duplicates(path, pairs, list(map(tuple, values[:, :2].tolist())), "location")
    return _sorted_field(values[:, 2:], values[:, :2], times)


def _load_long(path: str) -> FieldSeries:
    header, pairs = read_table(path)
    want = ["lon", "lat", "time", "value"]
    if [h.strip().lower() for h in header] != want:
        raise DataError(f"{path}:1: header must be {','.join(want)}")
    if not pairs:
        raise DataError(f"{path}: no data rows")
    rows = parse_rows(path, pairs, lambda r: (float(r[0]), float(r[1]), int(r[2]), float(r[3])))
    _check_finite(path, pairs, np.asarray(rows)[:, [0, 1, 3]])
    _reject_duplicates(path, pairs, [row[:3] for row in rows], "cell")
    cells: dict[tuple[float, float], dict[int, float]] = {}
    for lon, lat, t, v in rows:
        cells.setdefault((lon, lat), {})[t] = v
    time_sets = {frozenset(d) for d in cells.values()}
    if len(time_sets) != 1:
        raise DataError(f"{path}: ragged rows, locations do not share one time set")
    times = sorted(next(iter(time_sets)))
    coords = list(cells)
    rows = [[cells[c][t] for t in times] for c in coords]
    return _sorted_field(rows, coords, times)


def save_field(f: FieldSeries, path: str) -> None:
    """Write a field as wide-csv with full-precision (round-trip exact) floats."""
    write_table(
        path,
        ["lon", "lat"] + [f"t{t}" for t in f.times],
        np.column_stack([f.coords, f.values]).tolist(),
    )


def to_anomalies(
    f: FieldSeries,
    clim_start: int | None = None,
    clim_end: int | None = None,
    by_period: int = 1,
) -> FieldSeries:
    """Subtract per-location climatological means computed on a base window.

    With ``by_period`` > 1, time steps are grouped into calendar classes
    ``time % by_period`` and each class gets its own mean (e.g. 12 for a
    monthly seasonal cycle).  Means come only from columns inside
    [clim_start, clim_end] but are removed from every column of the class.
    """
    if by_period < 1:
        raise ConfigError(f"by_period must be >= 1, got {by_period}")
    lo = f.times[0] if clim_start is None else clim_start
    hi = f.times[-1] if clim_end is None else clim_end
    clim_mask = (f.times >= lo) & (f.times <= hi)
    if not clim_mask.any():
        raise DataError(f"empty climatology window [{lo}, {hi}]")
    out = f.values.copy()
    classes = f.times % by_period
    for c in np.unique(classes):
        in_class = classes == c
        base = in_class & clim_mask
        if not base.any():
            raise DataError(
                f"climatology window [{lo}, {hi}] has no columns for period class {c}"
            )
        out[:, in_class] -= out[:, base].mean(axis=1, keepdims=True)
    return FieldSeries(values=out, coords=f.coords, times=f.times)


@dataclass(frozen=True)
class SynthSpec:
    """Parameters of the coupled synthetic system.

    The forcing field is a smooth low-rank latent process observed on
    n_loc_forcing points (plus faint observation noise, 0.1 * noise_sd).
    The response at time t is a fixed linear-plus-quadratic map of the
    latent state at time t - lag, plus N(0, noise_sd^2) noise, so analog
    methods can beat linear ones once ``nonlinearity`` > 0.
    """

    n_loc_forcing: int = 36
    n_loc_response: int = 108
    n_time: int = 160
    lag: int = 6
    nonlinearity: float = 1.0
    noise_sd: float = 0.1
    seed: int = 0

    def __post_init__(self):
        if min(self.n_loc_forcing, self.n_loc_response) < 1:
            raise ConfigError("synthetic fields need at least one location")
        if self.lag < 0:
            raise ConfigError(f"coupling lag must be >= 0, got {self.lag}")
        if self.noise_sd < 0:
            raise ConfigError("noise_sd must be >= 0")
        if self.n_time <= self.lag + 3 * MAX_EMBED_EXTENT:
            raise ConfigError(
                f"n_time={self.n_time} too short: need more than "
                f"lag + {3 * MAX_EMBED_EXTENT} = {self.lag + 3 * MAX_EMBED_EXTENT} steps"
            )


@dataclass(frozen=True)
class SynthData:
    """Generator output: coupled fields plus the latent states for diagnostics."""

    forcing: FieldSeries
    response: FieldSeries
    latents: np.ndarray = field(repr=False)  # (rank, n_time + lag)


def _grid_coords(n: int, lon0: float) -> np.ndarray:
    """Lay n points on a near-square integer lon/lat grid starting at lon0."""
    nx = int(math.ceil(math.sqrt(n)))
    pts = [(lon0 + i % nx, float(i // nx)) for i in range(n)]
    return np.asarray(pts, dtype=float)


def generate_synthetic(spec: SynthSpec) -> SynthData:
    """Simulate the coupled forcing/response system; both fields are anomalies."""
    rng = np.random.default_rng(spec.seed)
    k = _LATENT_RANK
    n_steps = spec.n_time + spec.lag  # latent runs from time 1 - lag through n_time

    # Latent dynamics: two fixed-amplitude stochastic oscillators with
    # incommensurate mean periods.  All variability lives in the phases,
    # which drift a little every step, so the amplitude statistics are the
    # same in every window (train and hold-out share one regime) while the
    # joint phase keeps sweeping the torus and the library keeps revisiting
    # each recent-history signature.
    per_fast = rng.uniform(8.0, 10.0)
    per_slow = rng.uniform(18.0, 26.0)
    phase_sd = 0.1
    th = 2.0 * math.pi * rng.random() + np.cumsum(
        2.0 * math.pi / per_fast + phase_sd * rng.normal(size=n_steps)
    )
    ph = 2.0 * math.pi * rng.random() + np.cumsum(
        2.0 * math.pi / per_slow + phase_sd * rng.normal(size=n_steps)
    )
    z = np.vstack([np.cos(th), np.sin(th), 0.9 * np.cos(ph), 0.9 * np.sin(ph)])

    load_f = rng.normal(size=(spec.n_loc_forcing, k)) / math.sqrt(k)
    # Forcing at step s (1-based) reads latent column s + lag - 1.
    x = load_f @ z[:, spec.lag:]
    x = x + rng.normal(0.0, 0.1 * spec.noise_sd, size=x.shape)

    iu = np.triu_indices(k)
    quad = z[iu[0]] * z[iu[1]]  # pairwise latent products, (k*(k+1)/2, n_steps)
    load_lin = rng.normal(size=(spec.n_loc_response, k)) / math.sqrt(k)
    load_quad = rng.normal(size=(spec.n_loc_response, len(iu[0]))) / math.sqrt(len(iu[0]))
    # Response at step s reads the latent at s - lag, i.e. column s - 1.
    # The linear share is kept small so the quadratic coupling dominates
    # once nonlinearity is on.
    y = 0.35 * (load_lin @ z[:, : spec.n_time]) + spec.nonlinearity * (
        load_quad @ quad[:, : spec.n_time]
    )
    y = y + rng.normal(0.0, spec.noise_sd, size=y.shape)

    times = np.arange(1, spec.n_time + 1)
    forcing = FieldSeries(x, _grid_coords(spec.n_loc_forcing, 0.0), times)
    response = FieldSeries(y, _grid_coords(spec.n_loc_response, 200.0), times)
    return SynthData(
        forcing=to_anomalies(forcing),
        response=to_anomalies(response),
        latents=z,
    )


@dataclass(frozen=True)
class RegionPartition:
    """Assignment of every location to one region, ids contiguous from 1."""

    region_of: np.ndarray  # (n_loc,) int

    def __post_init__(self):
        arr = np.asarray(self.region_of, dtype=int)
        if arr.ndim != 1 or arr.size == 0:
            raise DataError("region assignment must be a non-empty 1-d array")
        ids = np.unique(arr)
        if ids[0] != 1 or not np.array_equal(ids, np.arange(1, ids.size + 1)):
            raise DataError(
                f"region ids must be contiguous from 1, got {ids.tolist()}"
            )
        object.__setattr__(self, "region_of", arr)

    @property
    def n_regions(self) -> int:
        return int(self.region_of.max())


def make_grid_partition(coords: np.ndarray, nx: int, ny: int) -> RegionPartition:
    """Split locations into nx lon-bands times ny lat-bands of grid lines."""
    coords = np.asarray(coords, dtype=float)
    lon_bands = _band_index(coords[:, 0], nx)
    lat_bands = _band_index(coords[:, 1], ny)
    region = lon_bands * ny + lat_bands + 1
    if np.unique(region).size != nx * ny:
        raise DataError(f"grid partition {nx}x{ny} left some regions empty")
    return RegionPartition(region)


def _band_index(vals: np.ndarray, n_bands: int) -> np.ndarray:
    uniq = np.unique(vals)
    if uniq.size < n_bands:
        raise DataError(f"cannot form {n_bands} bands from {uniq.size} grid lines")
    chunks = np.array_split(uniq, n_bands)
    band_of = {}
    for b, chunk in enumerate(chunks):
        for v in chunk:
            band_of[v] = b
    return np.asarray([band_of[v] for v in vals], dtype=int)


def load_regions(path: str, coords: np.ndarray) -> RegionPartition:
    """Load a lon,lat,region file and align it with the given coordinates."""
    header, pairs = read_table(path)
    if [h.strip().lower() for h in header] != ["lon", "lat", "region"]:
        raise DataError(f"{path}:1: header must be lon,lat,region")
    rows = parse_rows(path, pairs, lambda r: (float(r[0]), float(r[1]), int(r[2])))
    _check_finite(path, pairs, np.asarray(rows, dtype=float).reshape(-1, 3)[:, :2])
    _reject_duplicates(path, pairs, [row[:2] for row in rows], "location")
    table = {(lon, lat): rid for lon, lat, rid in rows}
    region = []
    for lon, lat in np.asarray(coords, dtype=float):
        try:
            region.append(table[(lon, lat)])
        except KeyError:
            raise DataError(f"{path}: no region for location ({lon}, {lat})") from None
    return RegionPartition(np.asarray(region, dtype=int))


def save_regions(part: RegionPartition, coords: np.ndarray, path: str) -> None:
    coords = np.asarray(coords, dtype=float).tolist()
    rows = [c + [rid] for c, rid in zip(coords, part.region_of.tolist())]
    write_table(path, ["lon", "lat", "region"], rows)


def restrict_to_region(f: FieldSeries, part: RegionPartition, region_id: int) -> FieldSeries:
    """Keep only the rows of one region, preserving row order."""
    if part.region_of.shape[0] != f.n_loc:
        raise DataError("partition length does not match field locations")
    mask = part.region_of == region_id
    if not mask.any():
        raise DataError(f"region {region_id} not present in partition")
    return FieldSeries(values=f.values[mask], coords=f.coords[mask], times=f.times)
