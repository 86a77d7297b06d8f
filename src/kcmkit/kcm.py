"""Continuous-time KCM simulation and persistence-time statistics.

Every vertex rings at rate 1; at a ring the constraint is evaluated on the
current configuration and, when satisfied, the spin is resampled: empty with
probability q, occupied with probability p = 1 - q. Rings at constrained
vertices are discarded, which preserves the exact law. The persistence time
tau0 is the first time the tracked vertex is empty, recorded from a
stationary product-Bernoulli(p) start unless an all-empty start is asked for.
An event log is one array of kcmkit._pure.EVENT records, as the kernels
return it; its files hold the same records, little-endian.
"""

from __future__ import annotations

import itertools
import math
from dataclasses import dataclass

import numpy as np

from . import kernels
from ._pure import EVENT
from .families import UpdateFamily, tables_for
from .lattice import Configuration, Geometry, _opened, as_bits, random_bits


@dataclass(frozen=True)
class KcmParams:
    fam: UpdateFamily
    q: float
    geometry: Geometry
    t_max: float
    seed: int

    def __post_init__(self):
        if not 0.0 < self.q < 1.0:
            raise ValueError(f"q must be in (0,1), got {self.q}")
        if not 0.0 < self.t_max < math.inf:
            raise ValueError(f"t_max must be in (0, inf), got {self.t_max}")
        if self.fam.d != self.geometry.d:
            raise ValueError("family dimension does not match geometry")


@dataclass(frozen=True)
class PersistenceSample:
    tau0: float
    censored: bool
    flips_executed: int
    replica: int

    def __post_init__(self):
        if self.tau0 < 0.0:
            raise ValueError("tau0 must be nonnegative")


@dataclass
class SimResult:
    final: Configuration
    flips: int
    events: np.ndarray | None       # EVENT records


def simulate_kcm(params: KcmParams, initial: Configuration,
                 replica: int = 0, log_events: bool = False) -> SimResult:
    """One exact trajectory up to t_max; `log_events` captures every
    executed resample as an EVENT record (time, vertex, new value)."""
    geom = params.geometry
    if initial.geom != geom:
        raise ValueError("initial configuration does not match geometry")
    out = kernels.kcm_run(
        initial.bits, tables_for(geom, params.fam), params.seed, replica,
        params.q, params.t_max, log_events=log_events)
    return SimResult(Configuration(geom, out["bits"]), out["flips"],
                     out["events"])


@dataclass
class PersistenceSummary:
    mean: float
    censored_fraction: float


def sample_persistence_time(params: KcmParams, replicas: int,
                            start: str = "stationary",
                            variant: str = "first_empty"):
    """Persistence times over independent replicas.

    Each replica starts from an independent Bernoulli(p) configuration
    (`start="stationary"`) or from all empty (`start="empty"`). tau0 is the
    first time the origin, vertex 0, is empty; `variant="first_legal"`
    records instead the first time the origin's constraint is satisfied at
    one of its own rings (the first legal update of the origin). Censored
    replicas contribute t_max to the mean, making it a lower bound.

    Returns (samples, PersistenceSummary).
    """
    if replicas < 1:
        raise ValueError("replicas must be >= 1")
    if start not in ("stationary", "empty"):
        raise ValueError(f"unknown start {start!r}")
    if variant not in ("first_empty", "first_legal"):
        raise ValueError(f"unknown variant {variant!r}")
    geom = params.geometry
    t = tables_for(geom, params.fam)
    stop_on_empty = variant == "first_empty"
    if start == "stationary":
        starts = (bits for _, block in random_bits(geom, params.q, params.seed,
                                                   replicas)
                  for bits in block)
    else:
        starts = itertools.repeat(np.zeros(geom.n_sites, dtype=np.uint8),
                                  replicas)

    samples = []
    for r, bits in enumerate(starts):
        if stop_on_empty and bits[0] == 0:
            samples.append(PersistenceSample(0.0, False, 0, r))
            continue
        out = kernels.kcm_run(bits, t, params.seed, r, params.q, params.t_max,
                              target=0, stop_when_target_empty=stop_on_empty)
        t_hit = out["t_target_empty" if stop_on_empty
                    else "t_target_first_legal"]
        hit = t_hit >= 0.0
        samples.append(PersistenceSample(t_hit if hit else params.t_max,
                                         not hit, out["flips"], r))
    taus = np.array([s.tau0 for s in samples])
    return samples, PersistenceSummary(
        float(taus.mean()), sum(s.censored for s in samples) / replicas)


def empty_fraction_time_average(params: KcmParams, initial: Configuration,
                                burn_in: float, windows: int):
    """Batch-means time average of the empty fraction after burn-in.

    The run is split into `windows` equal windows on (burn_in, t_max); the
    return is (overall mean fraction, per-window means, naive batch-means
    standard error of the overall mean). The empty count is integrated from
    the event log, held in memory at 13 bytes per executed resample.
    """
    if not 0.0 <= burn_in < params.t_max:
        raise ValueError("burn_in must sit inside (0, t_max)")
    if windows < 1:
        raise ValueError("windows must be >= 1")
    edges = np.linspace(burn_in, params.t_max, windows + 1)
    ev = simulate_kcm(params, initial, log_events=True).events
    times, verts, vals = ev["t"], ev["v"], ev["s"]
    # an event overwrites its site's previous event, or the start, and adds
    # the old bit minus the new one to the empty count
    before = initial.bits[verts]
    order = np.argsort(verts, kind="stable")
    again = np.flatnonzero(np.diff(verts[order]) == 0)
    before[order[again + 1]] = vals[order[again]]
    counts = np.cumsum(np.append(np.count_nonzero(initial.bits == 0),
                                 before.astype(np.int64) - vals))
    # the empty count is counts[k] from the k-th event on; cut its pieces
    # at the window edges and sum each window's pieces in time order
    left = np.union1d(times[(times >= burn_in) & (times < params.t_max)],
                      edges[:-1])
    width = np.diff(left, append=params.t_max)
    level = counts[np.searchsorted(times, left, side="right")]
    window = np.searchsorted(edges, left, side="right") - 1
    integrals = np.bincount(window, weights=level * width, minlength=windows)
    means = integrals / (np.diff(edges) * params.geometry.n_sites)
    se = float(means.std(ddof=1) / math.sqrt(windows)) if windows > 1 else math.nan
    return float(means.mean()), means, se


# ------------------------------------------------------------- event-log IO

# the EVENT records little-endian on any host: 13 bytes of (f64 time,
# u32 vertex, u8 new value) each
_FILE_EVENT = EVENT.newbyteorder("<")


def write_event_log(events, fh) -> None:
    """Binary event log: the EVENT records, one per executed resample, as
    packed `_FILE_EVENT` records (on a little-endian host, their bytes)."""
    rec = np.ascontiguousarray(events, _FILE_EVENT)
    with _opened(fh, "wb") as fh:
        fh.write(rec.data)


def read_event_log(fh) -> np.ndarray:
    """The EVENT records a write_event_log file holds, read-only over the
    file's bytes; raises ValueError on a truncated file or a state other
    than 0 and 1."""
    with _opened(fh, "rb") as fh:
        blob = fh.read()
    if len(blob) % _FILE_EVENT.itemsize:
        raise ValueError("truncated event log")
    rec = np.frombuffer(blob, dtype=_FILE_EVENT)
    as_bits(rec["s"], "event log state")
    return rec.astype(EVENT, copy=False)
