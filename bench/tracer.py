"""Per-layer tracing of mcmclab from outside the package.

Each public function named in ``WRAPPED`` is replaced, wherever a caller
looks it up, by a wrapper that records its call count, total time and self
time (total minus the time of wrapped callees).  Work counters are read
from arguments and return values only, so nothing inside ``src/`` changes.
"""

import inspect
import os
import sys
from time import perf_counter

# (module, attribute) pairs.  Plain names are module-level functions and
# are rebound in every mcmclab module that imported them by name.  A
# "*.method" name is wrapped on each class of the module that defines the
# method itself, and recorded under "<module>.<method>".
WRAPPED = (
    ("targets", "*.log_density"),
    ("targets", "*.log_density_many"),
    ("mh", "run_chain"),
    ("mh", "*.propose"),
    ("ensemble", "run_ensemble"),
    ("ensemble", "ensemble_covariance"),
    ("ensemble", "ensemble_gaussian_step"),
    ("ensemble", "de_step"),
    ("ensemble", "stretch_step"),
    ("diagnostics", "integrated_autocorr_time"),
    ("diagnostics", "per_coordinate_tau"),
    ("diagnostics", "histogram_density"),
    ("diagnostics", "evidence_from_chain"),
    ("summaries", "percentile_interval"),
    ("summaries", "point_estimate"),
    ("summaries", "threshold_credible_region"),
    ("summaries", "posterior_predictive_noisy_mean"),
    ("grid", "build_grid"),
    ("grid", "grid_evidence"),
    ("importance", "draw_iid"),
    ("importance", "importance_weights"),
    ("harness", "run_scaling"),
    ("harness", "run_exercise"),
    ("harness", "config_from_sources"),
    ("harness", "write_scaling_csv"),
    ("harness", "write_exercise_csv"),
    ("seeding", "derive_rng"),
    ("cli", "main"),
)

# Counters read from arguments and return values; all start at zero so
# every workload reports the same keys.
COUNTERS = (
    "mh.steps", "mh.accepted",
    "ensemble.updates", "ensemble.accepted", "ensemble.history_bytes",
    "diagnostics.tau.lags", "diagnostics.tau.truncated",
    "diagnostics.tau.insufficient", "diagnostics.histogram.overflow_mass",
    "summaries.predictive.kernel_bytes",
    "importance.samples", "grid.cells", "harness.csv_bytes",
)


def layer_names():
    """Metric stems of the wrapped functions, in ``WRAPPED`` order."""
    return [f"{mod}.{attr.removeprefix('*.')}" for mod, attr in WRAPPED]


class Tracer:
    """Call statistics and work counters for one traced process."""

    def __init__(self):
        self.stats = {name: [0, 0.0, 0.0] for name in layer_names()}
        self.counts = dict.fromkeys(COUNTERS, 0)
        self._open = []  # child-time accumulators of the active spans

    def _wrap(self, fn, name, observe=None):
        stat = self.stats[name]
        open_spans = self._open
        signature = inspect.signature(fn) if observe else None

        def traced(*args, **kwargs):
            open_spans.append(0.0)
            t0 = perf_counter()
            try:
                result = fn(*args, **kwargs)
            finally:
                elapsed = perf_counter() - t0
                stat[0] += 1
                stat[1] += elapsed
                stat[2] += open_spans.pop()
                if open_spans:
                    open_spans[-1] += elapsed
            if observe is not None:  # outside the span: lands in the caller's self time
                call = signature.bind(*args, **kwargs)
                call.apply_defaults()
                observe(call.arguments, result)
            return result

        traced.__wrapped__ = fn
        return traced

    def install(self):
        """Wrap every function in ``WRAPPED`` in the imported package."""
        observers = {
            "mh.run_chain": self._on_chain,
            "ensemble.run_ensemble": self._on_ensemble,
            "diagnostics.integrated_autocorr_time": self._on_tau,
            "diagnostics.histogram_density": self._on_histogram,
            "summaries.posterior_predictive_noisy_mean": self._on_predictive,
            "importance.draw_iid": self._on_draws,
            "grid.build_grid": self._on_grid,
            "harness.write_scaling_csv": self._on_csv,
            "harness.write_exercise_csv": self._on_csv,
        }
        package = {
            name: mod for name, mod in list(sys.modules.items())
            if name == "mcmclab" or name.startswith("mcmclab.")
        }
        for (mod_name, attr), name in zip(WRAPPED, layer_names()):
            module = package[f"mcmclab.{mod_name}"]
            observe = observers.get(name)
            if attr.startswith("*."):
                method = attr[2:]
                for cls in vars(module).values():
                    if (inspect.isclass(cls) and cls.__module__ == module.__name__
                            and method in vars(cls)):
                        setattr(cls, method, self._wrap(vars(cls)[method], name, observe))
                continue
            original = getattr(module, attr)
            wrapped = self._wrap(original, name, observe)
            for mod in package.values():
                for key, value in list(vars(mod).items()):
                    if value is original:
                        setattr(mod, key, wrapped)

    def report(self):
        """Flat ``{metric: value}`` of calls, total_s and self_s per function."""
        out = {}
        for name, (calls, total, child) in self.stats.items():
            out[f"{name}.calls"] = calls
            out[f"{name}.total_s"] = total
            out[f"{name}.self_s"] = total - child
        out.update(self.counts)
        return out

    # -- observers: read work counts from arguments and return values ------

    def _on_chain(self, arguments, chain):
        self.counts["mh.steps"] += int(chain.accepted.size)
        self.counts["mh.accepted"] += int(chain.accepted.sum())

    def _on_ensemble(self, arguments, state):
        self.counts["ensemble.updates"] += int(state.accepted.size)
        self.counts["ensemble.accepted"] += int(state.accepted.sum())
        self.counts["ensemble.history_bytes"] += int(state.history.nbytes)

    def _on_tau(self, arguments, est):
        self.counts["diagnostics.tau.lags"] += int(est.window)
        self.counts["diagnostics.tau.truncated"] += int(est.truncated)
        self.counts["diagnostics.tau.insufficient"] += int(est.insufficient_data)

    def _on_histogram(self, arguments, hist):
        self.counts["diagnostics.histogram.overflow_mass"] += float(hist.overflow_mass)

    def _on_predictive(self, arguments, dens):
        # sigma_new == 0 interpolates the posterior; only a positive noise
        # scale builds the len(t) x grid_cells convolution kernel
        if arguments["sigma_new"] > 0:
            n_t = len(arguments["t_new"])
            self.counts["summaries.predictive.kernel_bytes"] += (
                n_t * int(arguments["grid_cells"]) * 8
            )

    def _on_draws(self, arguments, points):
        self.counts["importance.samples"] += int(points.shape[0])

    def _on_grid(self, arguments, cells):
        self.counts["grid.cells"] += int(cells.n_cells)

    def _on_csv(self, arguments, result):
        self.counts["harness.csv_bytes"] += os.path.getsize(arguments["path"])
