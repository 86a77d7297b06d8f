"""Continuous-time KCM simulation and persistence-time statistics.

Every vertex rings at rate 1; at a ring the constraint is evaluated on the
current configuration and, when satisfied, the spin is resampled: empty with
probability q, occupied with probability p = 1 - q. Rings at constrained
vertices are discarded, which preserves the exact law. The persistence time
tau0 is the first time the tracked vertex is empty, recorded from a
stationary product-Bernoulli(p) start unless an all-empty start is asked for.
"""

from __future__ import annotations

import itertools
import math
from dataclasses import dataclass

import numpy as np

from . import kernels, stats
from .families import UpdateFamily, tables_for
from .lattice import Configuration, Geometry, _as_flat, _opened, random_bits


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
        if not self.t_max > 0.0:
            raise ValueError("t_max must be positive")
        if self.fam.d != self.geometry.d:
            raise ValueError("family dimension does not match geometry")

    @property
    def p(self) -> float:
        return 1.0 - self.q


@dataclass(frozen=True)
class PersistenceSample:
    tau0: float
    censored: bool
    flips_executed: int
    replica: int
    first_legal_update: float | None = None

    def __post_init__(self):
        if self.tau0 < 0.0:
            raise ValueError("tau0 must be nonnegative")


@dataclass
class SimResult:
    final: Configuration
    t_end: float
    rings: int
    legal_updates: int
    flips: int
    t_target_empty: float | None
    t_target_first_legal: float | None
    batch_integrals: np.ndarray | None
    events: tuple[np.ndarray, np.ndarray, np.ndarray] | None
    status: str


def simulate_kcm(params: KcmParams, initial: Configuration,
                 replica: int = 0, target=None,
                 stop_when_target_empty: bool = False,
                 batch_edges=None, log_events: bool = False,
                 max_events: int | None = None) -> SimResult:
    """One exact trajectory up to t_max (or a stop condition).

    `target` is a vertex whose first-empty and first-legal-update times are
    recorded; `batch_edges` requests time-window integrals of the empty-site
    count; `log_events` captures every executed resample as
    (time, vertex, new value).
    """
    geom = params.geometry
    if initial.geom != geom:
        raise ValueError("initial configuration does not match geometry")
    t = tables_for(geom, params.fam)
    tgt = -1 if target is None else _as_flat(geom, target)
    out = kernels.kcm_run(
        initial.bits, t, geom.vertex_keys(), params.seed, replica, params.q,
        params.t_max, target=tgt, stop_when_target_empty=stop_when_target_empty,
        batch_edges=batch_edges, log_events=log_events, max_events=max_events)
    return SimResult(
        final=Configuration(geom, out["bits"]),
        t_end=out["t_end"],
        rings=out["rings"],
        legal_updates=out["legal_updates"],
        flips=out["flips"],
        t_target_empty=None if out["t_target_empty"] < 0 else out["t_target_empty"],
        t_target_first_legal=(None if out["t_target_first_legal"] < 0
                              else out["t_target_first_legal"]),
        batch_integrals=out["batch_integrals"] if batch_edges is not None else None,
        events=out["events"],
        status=out["status"],
    )


@dataclass
class PersistenceSummary:
    mean: float
    mean_uncensored: float
    median: float
    censored_fraction: float
    replicas: int
    seed: int
    usable: bool
    variant: str = "first_empty"


def sample_persistence_time(params: KcmParams, replicas: int,
                            origin=None, start: str = "stationary",
                            variant: str = "first_empty"):
    """Persistence times over independent replicas.

    Each replica starts from an independent Bernoulli(p) configuration
    (`start="stationary"`) or from all empty (`start="empty"`). tau0 is the
    first time the origin is empty; `variant="first_legal"` records instead
    the first time the origin's constraint is satisfied at one of its own
    rings (the first legal update of the origin). Censored replicas
    contribute t_max to the mean, making it a lower bound.

    Returns (samples, PersistenceSummary); the summary is flagged unusable
    when every replica was censored.
    """
    if replicas < 1:
        raise ValueError("replicas must be >= 1")
    if start not in ("stationary", "empty"):
        raise ValueError(f"unknown start {start!r}")
    if variant not in ("first_empty", "first_legal"):
        raise ValueError(f"unknown variant {variant!r}")
    geom = params.geometry
    origin = (0,) * geom.d if origin is None else origin
    flat = _as_flat(geom, origin)
    t = tables_for(geom, params.fam)
    vkeys = geom.vertex_keys()
    stop_on_empty = variant == "first_empty"
    if start == "stationary":
        starts = (bits for _, block in random_bits(geom, params.q, params.seed,
                                                   replicas)
                  for bits in block)
    else:
        starts = itertools.repeat(np.zeros(geom.n_sites, dtype=np.uint8),
                                  replicas)

    samples = []
    taus = np.empty(replicas)
    censored = np.zeros(replicas, dtype=bool)
    for r, bits in enumerate(starts):
        if stop_on_empty and bits[flat] == 0:
            samples.append(PersistenceSample(0.0, False, 0, r, None))
            taus[r] = 0.0
            continue
        out = kernels.kcm_run(bits, t, vkeys, params.seed, r, params.q,
                              params.t_max, target=flat,
                              stop_when_target_empty=stop_on_empty)
        t_legal = out["t_target_first_legal"]
        if stop_on_empty:
            hit = out["t_target_empty"] >= 0.0
            tau = out["t_target_empty"] if hit else params.t_max
        else:
            hit = t_legal >= 0.0
            tau = t_legal if hit else params.t_max
        samples.append(PersistenceSample(
            tau, not hit, out["flips"], r,
            None if t_legal < 0 else t_legal))
        taus[r] = tau
        censored[r] = not hit

    n_cens = int(censored.sum())
    usable = n_cens < replicas
    unc = taus[~censored]
    summary = PersistenceSummary(
        mean=float(taus.mean()),
        mean_uncensored=float(unc.mean()) if unc.size else math.nan,
        median=stats.median(taus),
        censored_fraction=n_cens / replicas,
        replicas=replicas,
        seed=params.seed,
        usable=usable,
        variant=variant,
    )
    return samples, summary


def empty_fraction_time_average(params: KcmParams, initial: Configuration,
                                burn_in: float, windows: int,
                                replica: int = 0):
    """Batch-means time average of the empty fraction after burn-in.

    The run is split into `windows` equal windows on (burn_in, t_max); the
    return is (overall mean fraction, per-window means, naive batch-means
    standard error of the overall mean).
    """
    if not 0.0 <= burn_in < params.t_max:
        raise ValueError("burn_in must sit inside (0, t_max)")
    if windows < 1:
        raise ValueError("windows must be >= 1")
    edges = np.linspace(burn_in, params.t_max, windows + 1)
    res = simulate_kcm(params, initial, replica=replica, batch_edges=edges)
    widths = np.diff(edges)
    means = res.batch_integrals / (widths * params.geometry.n_sites)
    se = float(means.std(ddof=1) / math.sqrt(windows)) if windows > 1 else math.nan
    return float(means.mean()), means, se


# ------------------------------------------------------------- event-log IO

# packed little-endian records of (f64 time, u32 vertex, u8 new value),
# 13 bytes each
_EVENT = np.dtype([("t", "<f8"), ("v", "<u4"), ("s", "u1")])


def write_event_log(events, fh) -> None:
    """Binary event log: one packed `_EVENT` record per executed resample."""
    times, verts, vals = events
    rec = np.empty(len(times), dtype=_EVENT)
    rec["t"], rec["v"], rec["s"] = times, verts, vals
    with _opened(fh, "wb") as fh:
        fh.write(rec.tobytes())


def read_event_log(fh):
    with _opened(fh, "rb") as fh:
        blob = fh.read()
    if len(blob) % _EVENT.itemsize:
        raise ValueError("truncated event log")
    rec = np.frombuffer(blob, dtype=_EVENT)
    return (rec["t"].astype(np.float64), rec["v"].astype(np.int32),
            rec["s"].astype(np.uint8))
