"""Per-layer spans and exact counters for one `kcm` invocation.

The tracer changes nothing under src/. `install` imports every kcmkit
module the layers live in, then replaces each traced function by a wrapper,
both in its home module and in every kcmkit module that holds a reference
to it (`from .lattice import box_region` binds a second name). Internal
calls resolve module globals at call time, so they go through the wrapper
too.

A span is one call of a traced function. A layer's self time is the sum of
its spans' durations minus the parts covered by child spans. Counters are
exact integers read from arguments and return values; at a fixed seed they
repeat exactly from run to run.
"""

from __future__ import annotations

import functools
import importlib
import sys
import time

# Every public function defined in these modules is traced. Its layer is
# the module name unless LAYER_OF names a finer one.
TRACED_MODULES = ("bootstrap", "kcm", "percolation", "blocks", "paths",
                  "spectral")

# Functions outside TRACED_MODULES are traced only when listed here.
LAYER_OF = {
    "kernels.closure": "kernels.closure",
    "kernels.kcm_run": "kernels.kcm_run",
    "kernels.crossing_batch": "kernels.crossing_batch",
    "rng.uniforms_np": "rng",
    "rng.uniforms_replicas_np": "rng",
    "lattice.box_region": "lattice.box_region",
    "blocks.classify_block": "blocks.classify_block",
    "paths.sample_path_A_instance": "paths.sampler",
    "paths.sample_path_B_instance": "paths.sampler",
    "paths.path_A": "paths.builder",
    "paths.path_B": "paths.builder",
    "paths.empty_region_schedule": "paths.builder",
    "paths.chain_schedule": "paths.builder",
    "paths.slice_schedule": "paths.builder",
    "paths.cross_schedule": "paths.builder",
    "paths.gg_column_moves": "paths.builder",
    "paths.congestion_constant": "paths.congestion",
    "spectral.build_generator": "spectral.build",
    "spectral.spectral_gap": "spectral.gap",
    "spectral.relaxation_time": "spectral.gap",
}

# Eigensolver entry points, counted (not timed) while a spectral span is
# open, so their time stays in the spectral layer that called them.
EIGENSOLVERS = (("numpy.linalg", "eigvalsh"), ("numpy.linalg", "eigh"),
                ("scipy.sparse.linalg", "eigsh"), ("scipy.linalg", "eigh"))

COUNTERS = ("kernels.closure.rounds", "kernels.closure.site_rounds",
            "kernels.kcm_run.rings", "kernels.kcm_run.flips",
            "kernels.crossing_batch.sites", "rng.draws",
            "rng.max_call_draws", "paths.sampler.attempts",
            "paths.builder.path_len", "spectral.build.states",
            "spectral.eigensolves")


class Tracer:
    def __init__(self):
        self.layers: dict[str, list] = {}       # layer -> [calls, self_s]
        self.counters = dict.fromkeys(COUNTERS, 0)
        self._stack: list[list] = []            # [layer, child_s] per span
        self._open: dict[str, int] = {}         # layer -> open span count

    # -------------------------------------------------------------- spans

    def call(self, layer: str, fn, *args, **kwargs):
        """Run fn as one span of `layer`; returns its result."""
        frame = [layer, 0.0]
        stack, opened = self._stack, self._open
        stack.append(frame)
        opened[layer] = opened.get(layer, 0) + 1
        t0 = time.perf_counter()
        try:
            return fn(*args, **kwargs)
        finally:
            dur = time.perf_counter() - t0
            stack.pop()
            opened[layer] -= 1
            if stack:
                stack[-1][1] += dur
            rec = self.layers.setdefault(layer, [0, 0.0])
            rec[0] += 1
            rec[1] += dur - frame[1]

    def _spans(self, fn, layer: str, count):
        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            out = self.call(layer, fn, *args, **kwargs)
            if count is not None:
                count(self, args, kwargs, out)
            return out
        return wrapper

    def _counts_only(self, fn):
        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            if any(n for layer, n in self._open.items()
                   if layer.startswith("spectral")):
                self.counters["spectral.eigensolves"] += 1
            return fn(*args, **kwargs)
        return wrapper

    # ------------------------------------------------------------ install

    def install(self) -> None:
        """Wrap every traced function of the imported kcmkit package."""
        for name in ("kernels", "rng", "lattice") + TRACED_MODULES:
            importlib.import_module(f"kcmkit.{name}")
        targets = {}
        for qual in LAYER_OF:
            mod, attr = qual.split(".")
            fn = getattr(sys.modules[f"kcmkit.{mod}"], attr, None)
            if callable(fn):
                targets[id(fn)] = (fn, self._spans(fn, LAYER_OF[qual],
                                                   _COUNT.get(qual)))
        for name in TRACED_MODULES:
            module = sys.modules[f"kcmkit.{name}"]
            for attr, fn in vars(module).items():
                if (attr.startswith("_") or not callable(fn)
                        or isinstance(fn, type) or id(fn) in targets
                        or getattr(fn, "__module__", None) != module.__name__):
                    continue
                targets[id(fn)] = (fn, self._spans(fn, name, None))
        for mod, attr in EIGENSOLVERS:
            module = sys.modules.get(mod)
            fn = getattr(module, attr, None) if module else None
            if callable(fn):
                targets[id(fn)] = (fn, self._counts_only(fn))
                setattr(module, attr, targets[id(fn)][1])
        for modname, module in list(sys.modules.items()):
            if modname != "kcmkit" and not modname.startswith("kcmkit."):
                continue
            for attr, value in list(vars(module).items()):
                hit = targets.get(id(value))
                if hit is not None and hit[0] is value:
                    setattr(module, attr, hit[1])

    def report(self) -> dict:
        return {"layers": {k: {"calls": v[0], "self_s": v[1]}
                           for k, v in self.layers.items()},
                "counters": dict(self.counters)}


# ------------------------------------------------------------- counters

def _closure(tr, args, kwargs, out):
    rounds = int(out[1].max(initial=0))
    tr.counters["kernels.closure.rounds"] += rounds
    # one sweep per round plus the sweep that finds nothing new
    tr.counters["kernels.closure.site_rounds"] += out[1].size * (rounds + 1)


def _kcm_run(tr, args, kwargs, out):
    tr.counters["kernels.kcm_run.rings"] += int(out["rings"])
    tr.counters["kernels.kcm_run.flips"] += int(out["flips"])


def _crossing(tr, args, kwargs, out):
    tr.counters["kernels.crossing_batch.sites"] += int(args[0].size)


def _rng(tr, args, kwargs, out):
    c = tr.counters
    c["rng.draws"] += int(out.size)
    c["rng.max_call_draws"] = max(c["rng.max_call_draws"], int(out.size))
    if tr._open.get("paths.sampler"):
        c["paths.sampler.attempts"] += 1


def _builder(tr, args, kwargs, out):
    if not tr._open.get("paths.builder"):   # outermost builder only
        tr.counters["paths.builder.path_len"] += int(out.length)


def _build_generator(tr, args, kwargs, out):
    tr.counters["spectral.build.states"] += int(out.size)


_COUNT = {
    "kernels.closure": _closure,
    "kernels.kcm_run": _kcm_run,
    "kernels.crossing_batch": _crossing,
    "rng.uniforms_np": _rng,
    "rng.uniforms_replicas_np": _rng,
    "paths.path_A": _builder,
    "paths.path_B": _builder,
    "spectral.build_generator": _build_generator,
}
