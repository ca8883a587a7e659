"""Dataset storage, variable sets, normalization, solar forcing, and the
synthetic spherical reference climate used for desk-scale experiments.

On-disk layout (format "RSL-DS-1"):
    <dir>/manifest.json      grid, variable names, time axis (6-hourly,
                             proleptic Gregorian), generator provenance
    <dir>/stats.json         per-variable mean/std with the range they cover
    <dir>/constants.bin      (K_c, H, W) float32 little-endian
    <dir>/<var>/<year>.bin   (steps_in_year, H, W) float32 little-endian
"""

from __future__ import annotations

import math
import os
import warnings
from dataclasses import dataclass, field
from datetime import datetime, timedelta
from pathlib import Path

import numpy as np
from scipy.linalg import expm

from .atomic import read_json, write_json_atomic
from .errors import ConfigError, ShapeError
from .grid import GridSpec, make_grid
from .spectral import plan_sht, sht_inverse, synthesize_random

FORMAT_VERSION = "RSL-DS-1"
STEP = timedelta(hours=6)      # the store's time axis: 00, 06, 12 and 18 UTC
CALENDAR = "proleptic_gregorian"
SOLAR_CONSTANT = 1361.0       # W/m^2, constant total solar irradiance
STD_FLOOR = 1e-6

PRESSURE_LEVELS_33 = (925, 850, 700, 600, 500, 250)
DEFAULT_EVAL_SUBSET = ("tas", "uas", "vas", "ta850", "zg500")
TISR_SUBSTEP_MINUTES = 10     # quadrature step of the 6 h mean insolation

# Dynamics of the synthetic climate; the first four go into each manifest's
# generator provenance.
BAND_LIMIT = 10               # spectral band limit of the generated fields
DAMPING = 0.25                # per-step OU memory of the banded modes
ROTATION_STEPS = 128          # solid-body rotation period, in 6 h steps
COUPLING = 0.08               # rotation angle mixing neighboring variables
SEASONAL_FRAC = 0.45          # share of variability driven by the season
SLOW_AMP = 0.25               # amplitude of the interannual (slow) modes
SLOW_BAND = 3                 # band limit of the slow modes
SLOW_TAU_YEARS = 1.0          # e-folding time of the slow modes


# ---------------------------------------------------------------- variables

@dataclass(frozen=True)
class VariableSet:
    name: str
    prognostic: tuple[str, ...]
    constants: tuple[str, ...] = ("lsm", "orog", "lat", "lon")
    forcings: tuple[str, ...] = ("tisr",)
    evaluation_subset: tuple[str, ...] = DEFAULT_EVAL_SUBSET

    def __post_init__(self):
        missing = [v for v in self.evaluation_subset if v not in self.prognostic]
        if missing:
            raise ConfigError(
                f"evaluation subset variables {missing} not in prognostic set")

    @property
    def n_prognostic(self) -> int:
        return len(self.prognostic)


def variable_set(name: str, n_prognostic: int | None = None) -> VariableSet:
    """Paper presets 'vars33'/'vars8', or 'custom' with an explicit count."""
    if name == "vars33":
        prog = ["tas", "uas", "vas"]
        for var in ("ta", "zg", "hus", "ua", "va"):
            prog += [f"{var}{p}" for p in PRESSURE_LEVELS_33]
        return VariableSet("vars33", tuple(prog))
    if name == "vars8":
        prog = ("tas", "uas", "vas", "ta850", "zg1000", "zg700", "zg500", "zg300")
        return VariableSet("vars8", prog)
    if name == "custom":
        if not n_prognostic or n_prognostic < 1:
            raise ConfigError("custom variable set needs n_prognostic >= 1")
        # Keep the standard evaluation names when there is room for them.
        if n_prognostic >= 5:
            prog = list(DEFAULT_EVAL_SUBSET)
            prog += [f"v{i:02d}" for i in range(n_prognostic - 5)]
            return VariableSet("custom", tuple(prog))
        prog = tuple(f"v{i:02d}" for i in range(n_prognostic))
        return VariableSet("custom", prog, evaluation_subset=prog)
    raise ConfigError(f"unknown variable set {name!r}")


def parse_variable_set(spelled: str) -> VariableSet:
    """The variable set a flag or config names: 'vars8', 'vars33' or 'custom:K'."""
    name, colon, count = spelled.partition(":")
    if not colon:
        return variable_set(spelled)
    if name != "custom" or not count.isdecimal():
        raise ConfigError(f"bad variable set {spelled!r}: expected vars8, vars33 or custom:K")
    return variable_set("custom", int(count))


def spell_variable_set(vs: VariableSet) -> str:
    """The spelling parse_variable_set reads back as `vs`'s variables."""
    return f"custom:{vs.n_prognostic}" if vs.name == "custom" else vs.name


# ---------------------------------------------------------------- time axis

def parse_date(s: str, key: str = "date") -> datetime:
    """`s` as YYYY-MM-DD; ConfigError names `key` and `s` otherwise."""
    try:
        return datetime.strptime(s, "%Y-%m-%d")
    except ValueError as exc:
        raise ConfigError(f"{key} {s!r} is not a YYYY-MM-DD date ({exc})") from exc


def parse_timestamp(s: str, key: str = "timestamp") -> datetime:
    """`s` as an ISO timestamp without a UTC offset (the time axis is naive
    UTC); ConfigError names `key` and `s` otherwise."""
    try:
        t = datetime.fromisoformat(s)
    except ValueError as exc:
        raise ConfigError(f"{key} {s!r} is not an ISO timestamp ({exc})") from exc
    if t.tzinfo is not None:
        raise ConfigError(f"{key} {s!r} has a UTC offset; timestamps are UTC without one")
    return t


def range_end(end_date: datetime) -> datetime:
    """Last 6-hourly timestamp of an inclusive date range (one addition, so
    that 9999-12-31 does not pass through year 10000)."""
    return end_date + (timedelta(days=1) - STEP)


def sample_index(start_date: datetime, end_date: datetime, m_steps: int = 0,
                 data_end: datetime | None = None) -> list[datetime]:
    """Initial-condition timestamps: every STEP from the first day's 00 UTC
    through the last day's range_end.

    Samples whose m_steps-step horizon extends past `data_end` are dropped.
    """
    if end_date < start_date:
        raise ConfigError("end date before start date")
    last = range_end(end_date)
    if data_end is not None:
        last = min(last, data_end - m_steps * STEP)
    return [start_date + i * STEP for i in range((last - start_date) // STEP + 1)]


# ---------------------------------------------------------------- solar flux

def _solar_declination(doy, day_frac):
    """Low-precision sinusoidal declination (Cooper formula), radians.

    Purely sinusoidal, so insolation is antisymmetric under
    (lat, day) -> (-lat, day + half year) up to the half-day pairing offset."""
    d = np.asarray(doy, np.float64) + day_frac
    return np.deg2rad(23.44) * np.sin(2.0 * np.pi * (284.0 + d) / 365.0)


def compute_tisr(timestamp: datetime, grid: GridSpec) -> np.ndarray:
    """Mean top-of-atmosphere incident flux (W/m^2) over the 6 h window
    ending at `timestamp`, on the grid. Circular orbit: S0 is constant."""
    lat = np.deg2rad(grid.latitudes)
    lon = np.deg2rad(grid.longitudes)
    n_sub = STEP // timedelta(minutes=TISR_SUBSTEP_MINUTES)
    step_hours = STEP / timedelta(hours=1)
    offs = (np.arange(n_sub) + 0.5) * (step_hours / n_sub)   # hours into the window
    t0 = timestamp - STEP
    base_hours = t0.hour + t0.minute / 60.0 + t0.second / 3600.0
    doy0 = t0.timetuple().tm_yday
    hours = base_hours + offs
    doy = doy0 + np.floor(hours / 24.0)               # substeps may cross midnight
    utc = np.mod(hours, 24.0)
    dec = _solar_declination(doy, utc / 24.0)
    ha = np.pi * (utc[:, None] / 12.0 - 1.0) + lon[None, :]   # (n_sub, W)
    cosz = (np.sin(lat)[None, :, None] * np.sin(dec)[:, None, None]
            + np.cos(lat)[None, :, None] * np.cos(dec)[:, None, None]
            * np.cos(ha)[:, None, :])
    return SOLAR_CONSTANT * np.maximum(cosz, 0.0).mean(axis=0)


def daily_mean_insolation(doy: int, grid: GridSpec) -> np.ndarray:
    """Analytic daily-mean TOA insolation per latitude (length H)."""
    lat = np.deg2rad(grid.latitudes)
    dec = float(_solar_declination(doy, 0.5))
    cos_h0 = np.clip(-np.tan(lat) * np.tan(dec), -1.0, 1.0)
    h0 = np.arccos(cos_h0)
    return (SOLAR_CONSTANT / np.pi) * (
        h0 * np.sin(lat) * np.sin(dec) + np.cos(lat) * np.cos(dec) * np.sin(h0))


# ---------------------------------------------------------------- statistics

@dataclass
class NormalizationStats:
    values: dict[str, tuple[float, float]]      # name -> (mean, std)
    range: tuple[str, str] | None = None        # dates the stats cover

    def normalize(self, name: str, x: np.ndarray) -> np.ndarray:
        mu, sd = self.values[name]
        return (x - mu) / sd

    def to_json(self) -> dict:
        return {"range": list(self.range) if self.range else None,
                "values": {k: {"mean": m, "std": s}
                           for k, (m, s) in sorted(self.values.items())}}

    @staticmethod
    def from_json(d: dict) -> "NormalizationStats":
        """The stats of `d`; ConfigError naming the variable unless its mean
        is a finite number and its std a positive finite number."""
        vals = {k: (v["mean"], v["std"]) for k, v in d["values"].items()}
        for k, (mean, std) in vals.items():
            if not all(type(x) in (int, float) and math.isfinite(x) for x in (mean, std)) \
                    or std <= 0:
                raise ConfigError(f"values.{k}: mean {mean!r} and std {std!r} must be "
                                  f"finite numbers, the std positive")
        rng = tuple(d["range"]) if d.get("range") else None
        return NormalizationStats(vals, rng)


# ---------------------------------------------------------------- the store

class DatasetStore:
    """Chunked-binary gridded dataset with a uniform 6-hourly time axis."""

    def __init__(self, root: Path, manifest: dict):
        self.root = Path(root)
        self.manifest = manifest
        if manifest.get("format_version") != FORMAT_VERSION:
            raise ConfigError(
                f"unsupported dataset format {manifest.get('format_version')!r}")
        self.grid = GridSpec.from_manifest(manifest["grid"])
        axis = manifest["time"]
        for key, only in (("step_hours", STEP // timedelta(hours=1)), ("calendar", CALENDAR)):
            if axis.get(key) != only:
                raise ConfigError(f"time.{key} is {axis.get(key)!r}, but this version "
                                  f"reads only {only!r}")     # read_json names the file
        self.start = parse_timestamp(axis["start"])
        self.n_steps = int(axis["n_steps"])
        v = manifest["variables"]
        self.varset = VariableSet(v["set_name"], tuple(v["prognostic"]),
                                  tuple(v["constants"]), tuple(v["forcings"]),
                                  tuple(v["evaluation_subset"]))
        self.prognostic = self.varset.prognostic
        self.constants = self.varset.constants
        self.forcings = self.varset.forcings
        self._years = _year_chunks(self.start, self.n_steps)
        # var -> (i0, n) -> (mean, std) of the window, see window_moments
        self._moments: dict[str, dict[tuple[int, int], tuple]] = {}

    # -- construction

    @staticmethod
    def open(root) -> "DatasetStore":
        root = Path(root)
        return read_json(root / "manifest.json", lambda doc: DatasetStore(root, doc))

    @staticmethod
    def create(root, grid: GridSpec, varset: VariableSet, start: datetime,
               n_steps: int, provenance: dict | None = None) -> "DatasetStore":
        root = Path(root)
        root.mkdir(parents=True, exist_ok=True)
        manifest = {
            "format_version": FORMAT_VERSION,
            "grid": grid.to_manifest(),
            "variables": {"prognostic": list(varset.prognostic),
                          "constants": list(varset.constants),
                          "forcings": list(varset.forcings),
                          "evaluation_subset": list(varset.evaluation_subset),
                          "set_name": varset.name},
            "time": {"start": start.isoformat(), "step_hours": STEP // timedelta(hours=1),
                     "n_steps": n_steps, "calendar": CALENDAR},
        }
        if provenance:
            manifest["generator"] = provenance
        write_json_atomic(root / "manifest.json", manifest)
        return DatasetStore(root, manifest)

    # -- time axis

    @property
    def end(self) -> datetime:
        return self.start + (self.n_steps - 1) * STEP

    def steps(self, first: datetime, last: datetime, what: str) -> range:
        """The store steps of the timestamps first..last. ConfigError naming
        `what`, the span and the store's own span unless both lie on the time
        axis and `last` is not before `first`."""
        i0, off0 = divmod(first - self.start, STEP)
        i1, off1 = divmod(last - self.start, STEP)
        if off0 or off1 or not 0 <= i0 <= i1 < self.n_steps:
            raise ConfigError(
                f"{what} needs {first:%Y-%m-%d %H:%M}..{last:%Y-%m-%d %H:%M}, but the "
                f"store {self.root} spans {self.start:%Y-%m-%d %H:%M}.."
                f"{self.end:%Y-%m-%d %H:%M} in steps of {STEP // timedelta(hours=1)} h")
        return range(i0, i1 + 1)

    def time_index(self, t: datetime) -> int:
        return self.steps(t, t, "timestamp")[0]

    def non_finite(self, var: str, first: int, last: int) -> ConfigError:
        """The refusal of steps first..last of `var`, which hold a NaN or an
        infinity."""
        t0, t1 = (self.start + int(i) * STEP for i in (first, last))
        return ConfigError(f"the store {self.root} holds non-finite values of {var} "
                           f"in {t0:%Y-%m-%d %H:%M}..{t1:%Y-%m-%d %H:%M}")

    # -- binary IO

    def write_year(self, var: str, year: int, arr: np.ndarray) -> None:
        count = next(c for y, _, c in self._years if y == year)
        if arr.shape != (count,) + self.grid.shape:
            raise ShapeError(f"{var}/{year}: shape {arr.shape}, expected "
                             f"{(count,) + self.grid.shape}")
        d = self.root / var
        d.mkdir(exist_ok=True)
        np.ascontiguousarray(arr, dtype="<f4").tofile(d / f"{year}.bin")
        self._moments.pop(var, None)

    def write_constants(self, fields: dict[str, np.ndarray]) -> None:
        arr = np.stack([fields[name] for name in self.constants])
        np.ascontiguousarray(arr, dtype="<f4").tofile(self.root / "constants.bin")

    def read_steps(self, var: str, indices) -> np.ndarray:
        """Steps `indices` of `var` in the caller's order, duplicates included,
        shape indices.shape + (H, W). Each distinct step is read once."""
        idx = np.asarray(indices)
        steps = idx.ravel().tolist()
        if steps and not 0 <= min(steps) <= max(steps) < self.n_steps:
            raise ConfigError(f"{var}: steps {min(steps)}..{max(steps)} outside the "
                              f"store's time axis [0, {self.n_steps})")
        inverse = None
        if not all(a < b for a, b in zip(steps, steps[1:])):   # not sorted and distinct
            distinct, inverse = np.unique(idx.ravel(), return_inverse=True)
            steps = distinct.tolist()
        runs: list[list[int]] = []                 # [first, stop) of consecutive steps
        for i in steps:
            if runs and runs[-1][1] == i:
                runs[-1][1] = i + 1
            else:
                runs.append([i, i + 1])
        out = self._read_runs(var, runs)
        if inverse is not None:
            out = out[inverse]
        return out.reshape(idx.shape + self.grid.shape)

    def read_range(self, var: str, i0: int, i1: int) -> np.ndarray:
        """Steps [i0, i1) of `var`, shape (i1 - i0, H, W)."""
        if not 0 <= i0 <= i1 <= self.n_steps:
            raise ConfigError(f"{var}: steps [{i0}, {i1}) outside the store's "
                              f"time axis [0, {self.n_steps})")
        return self._read_runs(var, [(i0, i1)])

    def _read_runs(self, var: str, runs) -> np.ndarray:
        """Steps [a, b) of `var` for each (a, b) of `runs`, ascending and
        disjoint, stacked in order into one float32 array read straight from
        the year files: each year file touched is opened and length-checked
        once, and each run within a year is one read. Nothing is kept."""
        out = np.empty((sum(b - a for a, b in runs),) + self.grid.shape, dtype="<f4")
        step_bytes = out.strides[0]
        buf = memoryview(out.reshape(-1).view(np.uint8))
        pos = 0
        for year, first, count in self._years:
            stop = first + count
            parts = [(max(a, first), min(b, stop)) for a, b in runs if a < stop and b > first]
            if not parts:
                continue
            path = f"{self.root}/{var}/{year}.bin"
            with _open_array(path, (count,) + self.grid.shape, "<f4") as f:
                for a, b in parts:
                    f.seek((a - first) * step_bytes)
                    _read_exact(f, buf[pos * step_bytes:(pos + b - a) * step_bytes])
                    pos += b - a
        return out

    def window_sums(self, var: str, i0: int, i1: int, axis: int | None):
        """Float64 sums of `var` and of its squares over steps [i0, i1),
        streamed in 4096-step chunks and reduced over `axis` (None: all values,
        0: time). A window that holds a NaN or an infinity is a ConfigError."""
        s = s2 = 0.0
        for c0 in range(i0, i1, 4096):
            chunk = self.read_range(var, c0, min(c0 + 4096, i1)).astype(np.float64)
            s += chunk.sum(axis=axis)
            s2 += (chunk * chunk).sum(axis=axis)
        if not np.isfinite(s2).all():   # a NaN or inf; finite float32 squares stay finite
            raise self.non_finite(var, i0, i1 - 1)
        return s, s2

    def window_moments(self, var: str, i0: int, n: int) -> tuple[np.ndarray, np.ndarray]:
        """Per-gridpoint float64 temporal mean and population std of `var`
        over steps [i0, i0 + n) (see window_sums).

        Each window is reduced once per store; the caller gets its own copies.
        A window that holds a NaN or an infinity is a ConfigError."""
        if n < 1:
            raise ConfigError(f"{var}: empty window of {n} steps at step {i0}")
        memo = self._moments.setdefault(var, {})
        if (i0, n) not in memo:
            s, s2 = self.window_sums(var, i0, i0 + n, axis=0)
            mu = s / n
            memo[i0, n] = (mu, np.sqrt(np.maximum(s2 / n - mu * mu, 0.0)))
        mu, sd = memo[i0, n]
        return mu.copy(), sd.copy()

    def read_constants(self) -> np.ndarray:
        return read_array(self.root / "constants.bin",
                          (len(self.constants),) + self.grid.shape, "<f4")

    # -- stats

    def save_stats(self, stats: NormalizationStats) -> None:
        write_json_atomic(self.root / "stats.json", stats.to_json())


def _open_array(path, shape: tuple[int, ...], dtype: str):
    """An unbuffered handle on a raw array file that must hold exactly
    `shape` of `dtype`."""
    f = open(path, "rb", buffering=0)
    expected = np.dtype(dtype).itemsize * math.prod(shape)
    size = os.fstat(f.fileno()).st_size
    if size != expected:
        f.close()
        raise ConfigError(f"{path}: {size} bytes, expected {expected} for shape "
                          f"{shape} of {dtype} (truncated or written for another shape)")
    return f


def _read_exact(f, buf: memoryview) -> None:
    """Fill `buf` from the current position of `f`."""
    while buf:
        n = f.readinto(buf)
        if not n:
            raise ConfigError(f"{f.name}: ends early (truncated while being read)")
        buf = buf[n:]


def read_array(path, shape: tuple[int, ...], dtype: str) -> np.ndarray:
    """A raw array file that must hold exactly `shape` of `dtype`."""
    out = np.empty(shape, dtype=dtype)
    with _open_array(path, shape, dtype) as f:
        _read_exact(f, memoryview(out.reshape(-1).view(np.uint8)))
    return out


def _year_chunks(start: datetime, n_steps: int) -> list[tuple[int, int, int]]:
    """(year, first_global_index, step_count) triples covering the time axis."""
    out = []
    i = 0
    t = start
    while i < n_steps:
        nxt = datetime(t.year + 1, 1, 1)
        hop = min((nxt - t) // STEP, n_steps - i)
        out.append((t.year, i, hop))
        i += hop
        t = nxt
    return out


# ---------------------------------------------------------------- normalize

def compute_normalization(store: DatasetStore, start_date: datetime,
                          end_date: datetime) -> NormalizationStats:
    """Unweighted mean/std of every prognostic and forcing variable over all
    grid points of the date range (streaming, float64 accumulators). A
    variable that holds a NaN or an infinity in the range is a ConfigError."""
    span = store.steps(start_date, range_end(end_date), "normalization")
    i0, i1 = span.start, span.stop
    values = {}
    n = (i1 - i0) * math.prod(store.grid.shape)
    for var in store.prognostic + store.forcings:
        s, s2 = store.window_sums(var, i0, i1, axis=None)
        mean = s / n
        var_ = max(s2 / n - mean * mean, 0.0)
        std = np.sqrt(var_)
        if std < STD_FLOOR:
            warnings.warn(f"variable {var!r} is nearly constant; std floored")
            std = STD_FLOOR
        values[var] = (float(mean), float(std))
    return NormalizationStats(values, (start_date.strftime("%Y-%m-%d"),
                                       end_date.strftime("%Y-%m-%d")))


def normalized_constants(store: DatasetStore) -> np.ndarray:
    """Constants scaled once: lat/lon to [-1, 1], others by their own mean/std.
    A constant that holds a NaN or an infinity is a ConfigError."""
    fields = store.read_constants().astype(np.float64)
    out = np.empty_like(fields, dtype=np.float32)
    for i, name in enumerate(store.constants):
        f = fields[i]
        if not np.isfinite(f).all():
            raise ConfigError(f"the store {store.root} holds non-finite values of the "
                              f"constant {name} in constants.bin")
        if name == "lat":
            out[i] = f / 90.0
        elif name == "lon":
            out[i] = (f - 180.0) / 180.0
        else:
            sd = max(f.std(), STD_FLOOR)
            out[i] = (f - f.mean()) / sd
    return out


def normalized_fields(store: DatasetStore, stats: NormalizationStats,
                      variables, steps) -> np.ndarray:
    """Normalized float32 fields of `variables` at store steps `steps`, shape
    steps.shape + (K, H, W), from one `read_steps` call per variable. Fields
    that hold a NaN or an infinity are a ConfigError."""
    steps = np.asarray(steps)
    out = np.empty(steps.shape + (len(variables),) + store.grid.shape, np.float32)
    for k, v in enumerate(variables):
        out[..., k, :, :] = stats.normalize(v, store.read_steps(v, steps))
        if not np.isfinite(out[..., k, :, :]).all():
            raise store.non_finite(v, steps.min(), steps.max())
    return out


def load_batch(store: DatasetStore, stats: NormalizationStats, first, m_steps: int):
    """Normalized training tensors for a batch of samples whose initial
    conditions are at store steps `first` (B,).

    Returns (X_seq, F_seq): X_seq has m_steps+1 arrays (B, K_p, H, W), F_seq
    has m_steps arrays (B, K_f, H, W).
    """
    steps = np.arange(m_steps + 1)[:, None] + np.asarray(first)     # (M + 1, B)
    x = normalized_fields(store, stats, store.prognostic, steps)
    f = normalized_fields(store, stats, store.forcings, steps[:-1])
    return list(x), list(f)


def forcing_provider(store: DatasetStore, stats: NormalizationStats):
    """step_index -> normalized forcing (K_f, H, W), for rollouts."""
    def provide(i: int) -> np.ndarray:
        return normalized_fields(store, stats, store.forcings, [i])[0]
    return provide


# ---------------------------------------------------------------- generator

@dataclass
class SyntheticConfig:
    """A world's settings; the defaults are `rsl gen-data`'s."""
    seed: int = 0
    years: int = 3
    grid: GridSpec = field(default_factory=lambda: make_grid(32, 16))
    variable_set: VariableSet = field(default_factory=lambda: variable_set("vars8"))
    start_year: int = 2006


def generate_synthetic_climate(cfg: SyntheticConfig, out_dir) -> DatasetStore:
    """Band-limited stochastic dynamics on the sphere: solid-body rotation plus
    diffusion-damped spectral noise, a TISR-phased seasonal cycle, and weak
    linear coupling between variables (none with one or two prognostic
    variables, see qmix). Stationary in distribution across years and fully
    determined by the seed."""
    if cfg.years < 1:
        raise ConfigError("years must be >= 1")
    if cfg.seed < 0:
        raise ConfigError(f"seed must be >= 0, got {cfg.seed}")
    # 2: the first step's TISR window starts in the year before, and there is no year 0
    if not 2 <= cfg.start_year <= datetime.max.year - cfg.years:
        raise ConfigError(f"start_year must be in 2..{datetime.max.year - cfg.years} "
                          f"for {cfg.years} years, got {cfg.start_year}")
    grid = cfg.grid
    plan = plan_sht(grid)
    lb = min(BAND_LIMIT, plan.lmax)
    kp = cfg.variable_set.n_prognostic
    rng = np.random.default_rng(cfg.seed)

    start = datetime(cfg.start_year, 1, 1)
    end_excl = datetime(cfg.start_year + cfg.years, 1, 1)
    n_steps = (end_excl - start) // STEP

    store = DatasetStore.create(
        out_dir, grid, cfg.variable_set, start, n_steps,
        provenance={"kind": "synthetic", "seed": cfg.seed, "years": cfg.years,
                    "band_limit": lb, "damping": DAMPING,
                    "rotation_steps": ROTATION_STEPS, "coupling": COUPLING})

    # Per-degree target spectrum, shared by all variables so that the
    # orthogonal variable mixing preserves stationarity.
    ls = np.arange(plan.lmax + 1, dtype=np.float64)

    def band(amp, top):
        """The per-degree std amp / (1 + l)^1.5 on degrees 1..top (0 elsewhere),
        and the (l, m) entries of those degrees with m <= min(l, mmax)."""
        sigma = np.where((ls >= 1) & (ls <= top), amp / (1.0 + ls) ** 1.5, 0.0)
        entries = [(l, m) for l in range(1, top + 1) for m in range(min(l, plan.mmax) + 1)]
        return (sigma, *np.array(entries).T)

    gamma = DAMPING
    inj = np.sqrt(1.0 - gamma * gamma)

    # Orthogonal coupling between consecutive variables (a[i, i + 1 mod kp] = 1).
    # With one or two variables a is symmetric, so the generator a - a.T is zero
    # and qmix is exactly the identity: such worlds are uncoupled, and coupling
    # them would take a new generator version.
    a = np.roll(np.eye(kp), 1, axis=1)
    qmix = expm(COUPLING * (a - a.T))

    # The dynamics only ever touch the in-band (l, m) entries of the spectrum
    # (everything else stays exactly zero), so the state is kept as the
    # (kp, n_in_band) vector of those entries.
    sigma_l, fast_l, fast_m = band(1.0, lb)
    fast_phase = np.exp(-1j * fast_m * 2.0 * np.pi / ROTATION_STEPS)
    spec_shape = (kp, plan.lmax + 1, plan.mmax + 1)

    def band_noise(draws, sigma, l, m):
        """Complex noise on the entries (l, m) from full-spectrum standard
        normal draws of shape (..., 2, kp, lmax+1, mmax+1) (real, imaginary)."""
        re = draws[..., 0, :, :, :][..., l, m]
        im = draws[..., 1, :, :, :][..., l, m]
        im[..., m == 0] = 0.0
        z = re + 1j * im
        z[..., m > 0] /= np.sqrt(2.0)
        return z * sigma[l]

    # stationary initial condition
    state = band_noise(rng.standard_normal((2,) + spec_shape), sigma_l, fast_l, fast_m)

    # Slow interannual modes: low-degree OU with a year-scale memory. Degrees
    # l >= 1 have zero area mean, so global-mean drift diagnostics are
    # unaffected while period climatologies genuinely wander.
    sigma_slow, slow_l, slow_m = band(SLOW_AMP, min(SLOW_BAND, lb))
    gamma_slow = float(np.exp(-1.0 / (SLOW_TAU_YEARS * (timedelta(days=365.25) / STEP))))
    inj_slow = np.sqrt(1.0 - gamma_slow * gamma_slow)
    slow_state = band_noise(rng.standard_normal((2,) + spec_shape), sigma_slow,
                            slow_l, slow_m)
    base = 270.0 + 30.0 * rng.random(kp)
    amp = 5.0 + 10.0 * rng.random(kp)
    seas_amp = amp * SEASONAL_FRAC / (1.0 - SEASONAL_FRAC)

    # Band-limited zonal seasonal pattern, one profile per day of year,
    # phased by the daily-mean TISR anomaly.
    zonal_tab = plan.legendre_table[: lb + 1, 0, :]       # (lb+1, H)
    profiles = np.stack([daily_mean_insolation(d, grid) for d in range(1, 367)])
    profiles -= profiles.mean(axis=0, keepdims=True)      # anomaly vs annual mean
    profiles /= profiles.std() + 1e-12
    coefs = (profiles * plan.quadrature_weights) @ zonal_tab.T   # (366, lb+1)
    seasonal = coefs @ zonal_tab                                  # (366, H)

    # Smooth band-limited constants; lat/lon are exact coordinate grids.
    cfields = {}
    for name in cfg.variable_set.constants:
        if name == "lat":
            cfields[name] = np.tile(grid.latitudes[:, None], (1, grid.n_lon))
        elif name == "lon":
            cfields[name] = np.tile(grid.longitudes[None, :], (grid.n_lat, 1))
        else:
            c, f = synthesize_random(plan, rng, band=lb, decay=1.2)
            lo, hi = f.min(), f.max()
            f = (f - lo) / max(hi - lo, 1e-12)
            cfields[name] = f if name == "lsm" else 2000.0 * f
    store.write_constants(cfields)

    # TISR depends only on the day of year and the hour its 6 h window starts
    # at, so the table holds all 366 x 4 windows, row i being the window that
    # starts at step i of a leap year, filled once per world.
    per_day = timedelta(days=1) // STEP
    tisr_table = np.empty((366 * per_day,) + grid.shape, dtype=np.float32)
    for i in range(len(tisr_table)):                  # 2000 is a leap year
        tisr_table[i] = compute_tisr(datetime(2000, 1, 1) + (i + 1) * STEP, grid)

    # Steps run in chunks: one RNG call (the same stream as per-step draws of
    # fast re, fast im, slow re, slow im), one synthesis and one seasonal
    # expression per chunk; the per-step loop holds only the OU recurrence.
    # The chunk buffers are reused, and 32 steps keep them at a few MB.
    chunk = 32
    draws = np.empty((chunk, 2, 2) + spec_shape)       # step, fast/slow, re/im
    fast_hist = np.empty((chunk,) + state.shape, dtype=np.complex128)
    slow_hist = np.empty((chunk,) + slow_state.shape, dtype=np.complex128)
    coeffs = np.zeros((chunk,) + spec_shape, dtype=np.complex128)
    names = cfg.variable_set.prognostic
    for year, first, count in store._years:
        # The year starts at 00 UTC on 1 January: step j falls on day j // per_day,
        # and its window starts at step j - 1, for j = 0 the year before's last.
        days = np.arange(count) // per_day
        windows = np.arange(-1, count - 1)
        windows[0] = (start + (first - 1) * STEP).timetuple().tm_yday * per_day - 1
        block = np.empty((kp, count, grid.n_lat, grid.n_lon), dtype=np.float32)
        for j0 in range(0, count, chunk):
            n = min(chunk, count - j0)
            rng.standard_normal(out=draws[:n])
            fast_noise = band_noise(draws[:n, 0], sigma_l, fast_l, fast_m)
            slow_noise = band_noise(draws[:n, 1], sigma_slow, slow_l, slow_m)
            for j in range(n):
                fast_hist[j] = state
                slow_hist[j] = slow_state
                mixed = np.einsum("pq,qi->pi", qmix, state)
                state = gamma * (mixed * fast_phase) + inj * fast_noise[j]
                slow_state = gamma_slow * slow_state + inj_slow * slow_noise[j]
            c = coeffs[:n]
            c[..., fast_l, fast_m] = fast_hist[:n]
            c[..., slow_l, slow_m] += slow_hist[:n]
            # base + amp * fields + seas_amp * seasonal[day], in place
            fields = sht_inverse(c, plan)                  # (n, kp, H, W)
            fields *= amp[:, None, None]
            fields += base[:, None, None]
            fields += seas_amp[:, None, None] * seasonal[days[j0 : j0 + n]][:, None, :, None]
            block[:, j0 : j0 + n] = fields.swapaxes(0, 1)
        for k, name in enumerate(names):
            store.write_year(name, year, block[k])
        store.write_year("tisr", year, tisr_table[windows])
    return store
