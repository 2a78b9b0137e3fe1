"""Span recorder that wraps the public functions of every vilenkin module.

Spans are recorded only while an op is active, so checks and set-up that
run between ops call straight through.  Each span keeps its name, start,
end, parent span and op id in parallel lists; self time is a span's
duration minus the durations of its direct children.  Work counts are
taken at the same boundaries from the call arguments and output shapes,
so they depend on the inputs alone and repeat exactly for one seed.  The
maximal-stream counts need the input's spectrum, so the workload computes
them from its inputs before the run and adds them per op (see
``Op.counts``).
"""

from __future__ import annotations

import importlib
import inspect
import io
import json
import os
import sys
import time
from collections import Counter
from typing import Any, Callable

LAYERS = (
    "group",
    "functions",
    "transform",
    "kernels",
    "hardy",
    "maximal",
    "counterexample",
    "verify",
    "cli",
)

# span name -> sub-layer metric prefix
SUBLAYERS = {
    "transform.forward": "transform.forward",
    "transform.inverse": "transform.inverse",
    "transform.character": "transform.character",
    "transform.character_samples": "transform.character",
    "transform.CharacterSampler.character": "transform.character",
    "group.nat_expand": "group.nat_expand",
    "kernels.kernel_integral_sweep": "kernels.sweep",
    "kernels.localization_sweep": "kernels.sweep",
    "kernels.all_partial_sums": "kernels.sweep",
    "kernels.riesz_kernel_abel": "kernels.sweep",
    "kernels.riesz_mean_abel": "kernels.sweep",
    "kernels.partial_sum": "kernels.means",
    "kernels.fejer_mean": "kernels.means",
    "kernels.riesz_mean": "kernels.means",
    "maximal.sigma_star": "maximal.stream",
    "maximal.riesz_star": "maximal.stream",
    "maximal.weighted_riesz_star": "maximal.stream",
    "functions.write_csv": "functions.write_csv",
}

HARNESS = "bench"


class Recorder:
    """In-memory span store plus the counters taken at span boundaries."""

    def __init__(self) -> None:
        self.names: list[str] = []
        self.starts: list[float] = []
        self.ends: list[float] = []
        self.parents: list[int] = []
        self.ops: list[int] = []
        self.failed: list[bool] = []
        self.counts: Counter = Counter()
        self.stack: list[int] = []
        self.op: int | None = None
        self._patched: list[tuple[Any, str, Any]] = []

    # -- spans ---------------------------------------------------------

    def _open(self, name: str) -> int:
        i = len(self.names)
        self.names.append(name)
        self.parents.append(self.stack[-1] if self.stack else -1)
        self.ops.append(self.op if self.op is not None else -1)
        self.failed.append(False)
        self.ends.append(0.0)
        self.stack.append(i)
        self.starts.append(time.perf_counter())
        return i

    def _close(self, i: int) -> None:
        self.ends[i] = time.perf_counter()
        self.stack.pop()

    def run_op(self, op_id: int, label: str, fn: Callable[[], Any]) -> Any:
        """Run one benchmark op as a root span; library calls nest under it."""
        self.op = op_id
        i = self._open(f"{HARNESS}.{label}")
        try:
            return fn()
        except BaseException:
            self.failed[i] = True
            raise
        finally:
            self._close(i)
            self.op = None

    def wrap(self, name: str, fn: Callable, counter: Callable | None = None) -> Callable:
        rec = self

        def traced(*args: Any, **kwargs: Any) -> Any:
            if rec.op is None:
                return fn(*args, **kwargs)
            i = rec._open(name)
            try:
                out = fn(*args, **kwargs)
            except BaseException:
                rec.failed[i] = True
                rec._close(i)
                raise
            rec._close(i)
            if counter is not None:
                # counters read arguments and output shapes only, so their
                # small cost lands in the enclosing span
                for key, value in counter(args, kwargs, out):
                    rec.counts[key] += value
            return out

        traced.__wrapped__ = fn
        traced.__name__ = getattr(fn, "__name__", name)
        return traced

    # -- installing the wrappers --------------------------------------

    def install(self) -> None:
        """Wrap every public function and public method of the nine modules.

        Names that other modules (or the package) bound at import are
        rebound too, so ``vilenkin.kernels.forward`` is traced like
        ``vilenkin.transform.forward``.
        """
        import vilenkin

        modules = {layer: importlib.import_module(f"vilenkin.{layer}") for layer in LAYERS}
        namespaces = [vilenkin, *modules.values()]
        counters = _counters()
        for layer, mod in modules.items():
            for public in mod.__all__:
                obj = getattr(mod, public)
                if getattr(obj, "__module__", None) != mod.__name__:
                    continue
                if inspect.isfunction(obj):
                    name = f"{layer}.{public}"
                    wrapped = self.wrap(name, obj, counters.get(name))
                    for ns in namespaces:
                        for attr, val in list(vars(ns).items()):
                            if val is obj:
                                self._set(ns, attr, wrapped)
                elif inspect.isclass(obj) and not issubclass(obj, BaseException):
                    self._wrap_class(layer, obj, counters)

    def _wrap_class(self, layer: str, cls: type, counters: dict[str, Callable]) -> None:
        import enum

        if issubclass(cls, enum.Enum):
            return
        for attr, val in list(vars(cls).items()):
            if attr.startswith("_") and attr != "__init__":
                continue
            name = f"{layer}.{cls.__name__}.{attr}"
            if isinstance(val, (staticmethod, classmethod)):
                self._set(cls, attr, type(val)(self.wrap(name, val.__func__, counters.get(name))))
            elif inspect.isfunction(val):
                self._set(cls, attr, self.wrap(name, val, counters.get(name)))

    def _set(self, owner: Any, attr: str, value: Any) -> None:
        self._patched.append((owner, attr, vars(owner)[attr]))
        setattr(owner, attr, value)

    def uninstall(self) -> None:
        for owner, attr, original in reversed(self._patched):
            setattr(owner, attr, original)
        self._patched.clear()

    # -- aggregation ---------------------------------------------------

    def self_times(self) -> dict[str, float]:
        """Self time per span name."""
        child = [0.0] * len(self.names)
        for i, p in enumerate(self.parents):
            if p >= 0:
                child[p] += self.ends[i] - self.starts[i]
        out: dict[str, float] = {}
        for i, name in enumerate(self.names):
            own = self.ends[i] - self.starts[i] - child[i]
            out[name] = out.get(name, 0.0) + own
        return out

    def summarize(self) -> dict[str, float]:
        """Per-layer self times, calls and failures of the recorded spans."""
        metrics: dict[str, float] = {f"{layer}.self_s": 0.0 for layer in LAYERS}
        metrics.update({f"{layer}.failed": 0 for layer in LAYERS})
        for prefix in set(SUBLAYERS.values()):
            metrics[f"{prefix}.self_s"] = 0.0
            metrics[f"{prefix}.calls"] = 0
        harness = 0.0
        for name, own in self.self_times().items():
            layer = name.split(".", 1)[0]
            if layer == HARNESS:
                harness += own
                continue
            metrics[f"{layer}.self_s"] += own
            sub = SUBLAYERS.get(name)
            if sub:
                metrics[f"{sub}.self_s"] += own
        for i, name in enumerate(self.names):
            layer = name.split(".", 1)[0]
            if self.failed[i] and layer != HARNESS:
                metrics[f"{layer}.failed"] += 1
            sub = SUBLAYERS.get(name)
            if sub:
                metrics[f"{sub}.calls"] += 1
        metrics["trace.wall_s"] = sum(
            self.ends[i] - self.starts[i] for i, p in enumerate(self.parents) if p == -1
        )
        metrics["trace.harness_s"] = harness
        return metrics

    def write_jsonl(self, path: str) -> None:
        with open(path, "w", encoding="utf-8") as out:
            for i, name in enumerate(self.names):
                out.write(
                    json.dumps(
                        {
                            "name": name,
                            "start": self.starts[i],
                            "end": self.ends[i],
                            "parent": self.parents[i],
                            "op": self.ops[i],
                            "failed": self.failed[i],
                        }
                    )
                    + "\n"
                )


# ----------------------------------------------------------------------
# work counters, keyed by span name; each yields (metric, increment)


def _bound(fn: Callable, args: tuple, kwargs: dict) -> dict[str, Any]:
    bound = inspect.signature(fn).bind(*args, **kwargs)
    bound.apply_defaults()
    return bound.arguments


def _counters() -> dict[str, Callable]:
    from vilenkin import counterexample, kernels

    riesz_at_q = counterexample.riesz_at_q  # bound before install() wraps it

    def transform_work(args, kwargs, out):
        cells = out.base.orders[out.level]
        yield "transform.work_units", cells * sum(out.base.moduli[: out.level])
        # one complex128 read and write of the whole array per digit stage
        yield "transform.bytes_computed", 2 * 16 * cells * out.level

    def sweep(fn: Callable, steps: Callable[[dict], int]):
        def count(args, kwargs, out):
            yield "kernels.sweep.cell_steps", steps(_bound(fn, args, kwargs))

        return count

    def loc_steps(a: dict) -> int:
        level = a["level"] if a["level"] is not None else a["base"].depth
        return a["n_max"] * a["base"].orders[level]

    def martingale(args, kwargs, out):
        yield "hardy.martingale.cells", sum(out.base.orders[: out.top_level + 1])

    def probe(args, kwargs, out):
        a = _bound(riesz_at_q, args, kwargs)
        inst = a["inst"]
        yield "counterexample.probe.cell_steps", inst.base.orders[2 * a["s"]] * inst.base.orders[inst.f.level]

    def suite(args, kwargs, out):
        yield "verify.checks_failed", sum(1 for c in out.checks if not c.passed)

    def cli_main(args, kwargs, out):
        argv = list(args[0]) if args else list(kwargs.get("argv") or [])
        written = 0
        if "--out" in argv:
            path = argv[argv.index("--out") + 1]
            if os.path.exists(path):
                written += os.path.getsize(path)
        if isinstance(sys.stdout, io.StringIO):
            written += len(sys.stdout.getvalue().encode("utf-8"))
        yield "cli.bytes_out", written

    return {
        "transform.forward": transform_work,
        "transform.inverse": transform_work,
        "kernels.kernel_integral_sweep": sweep(
            kernels.kernel_integral_sweep, lambda a: a["n_max"] * a["base"].orders[a["level"]]
        ),
        "kernels.localization_sweep": sweep(kernels.localization_sweep, loc_steps),
        "kernels.riesz_kernel_abel": sweep(
            kernels.riesz_kernel_abel, lambda a: a["n"] * a["base"].orders[a["level"]]
        ),
        "kernels.riesz_mean_abel": sweep(
            kernels.riesz_mean_abel, lambda a: a["n"] * a["f"].base.orders[a["f"].level]
        ),
        "kernels.all_partial_sums": sweep(
            kernels.all_partial_sums, lambda a: a["f"].base.orders[a["f"].level] ** 2
        ),
        "hardy.martingale_from_function": martingale,
        "counterexample.riesz_at_q": probe,
        "verify.run_suite": suite,
        "cli.main": cli_main,
    }
