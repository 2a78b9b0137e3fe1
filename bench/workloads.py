"""The four benchmark workloads: seeded inputs, a fixed op list, per-op checks.

Every op calls vilenkin only through its public API or ``vilenkin.cli.main``
and is looked up on the module at call time, so the tracer's wrappers see
it.  In the rounds that worker.checked_round picks, each op's output is
checked right after it runs, outside the timed region, against an oracle
or an invariant that holds for any seed.  A check returns ``None`` when
the output is right and a message otherwise.

Why these four (see BENCHMARK.json for the one-line reasons):
  sweep-dense      streaming ``d += psi_n; cum += d`` loops over full arrays
                   with a dense spectrum (kernel, localization, Abel and
                   blow-up sweeps)
  atom-maximal     per-step overhead of the truncated maximal stream over
                   small arrays with a sparse spectrum
  transform-large  staged transforms and spectral means at 2^16 and 2^18 cells,
                   no streaming
  dump-io          row formatting and file output of the dump commands
"""

from __future__ import annotations

import contextlib
import csv
import dataclasses
import io
import json
import math
from collections import Counter
from dataclasses import dataclass, field
from pathlib import Path
from typing import Any, Callable

import numpy as np

import vilenkin
from vilenkin import cli, kernels, maximal, transform

Check = Callable[[Any], "str | None"]


@dataclass
class Op:
    label: str
    run: Callable[[], Any]
    check: Check
    counts: dict[str, int] = field(default_factory=dict)  # work counts from the inputs, for the trace


class Workload:
    """Inputs come from the seed in ``__init__``; ``warm`` is the rest of
    set-up; ``prepare_checks`` computes untimed check references."""

    name = ""

    def warm(self) -> None:
        pass

    def prepare_checks(self) -> None:
        pass

    def ops(self) -> list[Op]:
        raise NotImplementedError


def run_cli(argv: list[str]) -> tuple[int, str]:
    """Run the CLI in-process; returns (exit code, captured stdout)."""
    buf = io.StringIO()
    with contextlib.redirect_stdout(buf):
        code = cli.main(argv)
    return code, buf.getvalue()


def _off(got: float, want: float, tol: float, what: str) -> str | None:
    if not (math.isfinite(got) and abs(got - want) <= tol):
        return f"{what}: got {got!r}, want {want!r} (tol {tol:.3g})"
    return None


def _first(*problems: str | None) -> str | None:
    return next((p for p in problems if p), None)


def _harmonic(n: int) -> np.ndarray:
    """l_0..l_n with l_0 = 0, computed independently of the library."""
    return np.concatenate([[0.0], np.cumsum(1.0 / np.arange(1, n + 1))])


# ----------------------------------------------------------------------


class TransformLarge(Workload):
    """Forward / inverse transforms, partial sums, Fejer and Riesz means and
    Hardy quasi-norms of random functions at 2^16 and 2^18 cells and on
    two non-dyadic bases."""

    name = "transform-large"
    GEOMETRIES = (((2,), 16), ((2,), 18), ((2, 3), 12), ((3,), 10))
    TINY = (((2,), 8), ((2, 3), 5), ((3,), 4))
    NAIVE_CELLS = 256  # largest level slice checked against forward_naive

    def __init__(self, seed: int, tiny: bool, workdir: Path):
        rng = np.random.default_rng(seed)
        self.cases = []
        for i, (moduli, depth) in enumerate(self.TINY if tiny else self.GEOMETRIES):
            base = vilenkin.make_base(moduli, depth)
            m = base.size
            f = vilenkin.LevelFunction(base, depth, rng.standard_normal(m) + 1j * rng.standard_normal(m))
            s = vilenkin.Spectrum(base, depth, rng.standard_normal(m) + 1j * rng.standard_normal(m))
            ns = [int(v) for v in rng.integers(1, m + 1, size=3)]
            # fixed per geometry, not drawn: numpy's power is faster at 0.5 and 1
            p = (0.5, 0.75, 1.0)[i % 3]
            self.cases.append({"base": base, "f": f, "s": s, "ns": ns, "p": p})

    def warm(self) -> None:
        for case in self.cases:  # DFT-matrix cache and first touch
            transform.forward(case["f"])

    def prepare_checks(self) -> None:
        for case in self.cases:
            f, base = case["f"], case["base"]
            case["power"] = np.abs(transform.forward(f).coeffs) ** 2
            case["energy"] = float(np.mean(np.abs(f.values) ** 2))
            level = max(l for l in range(f.level + 1) if base.orders[l] <= self.NAIVE_CELLS)
            case["naive"] = transform.forward_naive(f.conditional_expectation(level)).coeffs
            case["hardy"] = _hardy_oracle(f, case["p"])

    def ops(self) -> list[Op]:
        ops = []
        for case in self.cases:
            f, s, p = case["f"], case["s"], case["p"]
            n1, n2, n3 = case["ns"]
            tag = f"{case['base'].moduli[:2]}x{case['base'].depth}"
            ops += [
                Op(f"forward/{tag}", lambda f=f: vilenkin.forward(f), _check_forward(case)),
                Op(f"inverse/{tag}", lambda s=s: vilenkin.inverse(s), _check_inverse(case)),
                Op(
                    f"partial_sum/{tag}",
                    lambda f=f, n=n1: vilenkin.partial_sum(f, n),
                    _check_mean(case, np.ones(n1)),
                ),
                Op(
                    f"fejer_mean/{tag}",
                    lambda f=f, n=n2: vilenkin.fejer_mean(f, n),
                    _check_mean(case, (n2 - np.arange(n2)) / n2),
                ),
                Op(
                    f"riesz_mean/{tag}",
                    lambda f=f, n=n3: vilenkin.riesz_mean(f, n),
                    _check_mean(case, 1.0 - _harmonic(n3)[:n3] / _harmonic(n3)[n3]),
                ),
                Op(
                    f"hardy/{tag}",
                    lambda f=f, p=p: vilenkin.hardy_quasinorm(vilenkin.martingale_from_function(f), p),
                    lambda got, case=case: _off(got, case["hardy"], 1e-9 * case["hardy"], "hardy quasi-norm"),
                ),
            ]
        return ops


def _hardy_oracle(f: Any, p: float) -> float:
    """L_p norm of the martingale maximal function by block averages."""
    base = f.base
    vals = f.values
    sup = np.abs(vals)
    for n in reversed(range(f.level)):
        vals = vals.reshape(-1, base.moduli[n]).mean(axis=1)
        sup = np.maximum(sup.reshape(vals.size, -1), np.abs(vals)[:, None]).ravel()
    return float(np.mean(sup**p) ** (1.0 / p))


def _check_forward(case: dict) -> Check:
    def check(spec: Any) -> str | None:
        c = spec.coeffs
        if c.shape != case["power"].shape:
            return f"forward: shape {c.shape}"
        naive = case["naive"]
        scale = max(float(np.max(np.abs(naive))), math.sqrt(case["energy"]))
        return _first(
            _off(float(np.sum(np.abs(c) ** 2)), case["energy"], 1e-9 * case["energy"], "forward Parseval"),
            _off(float(np.max(np.abs(c[: naive.size] - naive))), 0.0, 1e-9 * scale, "forward vs forward_naive"),
        )

    return check


def _check_inverse(case: dict) -> Check:
    def check(g: Any) -> str | None:
        s = case["s"].coeffs
        if g.values.shape != s.shape:
            return f"inverse: shape {g.values.shape}"
        back = transform.forward(g).coeffs
        scale = float(np.max(np.abs(s)))
        energy = float(np.sum(np.abs(s) ** 2))
        return _first(
            _off(float(np.mean(np.abs(g.values) ** 2)), energy, 1e-9 * energy, "inverse Parseval"),
            _off(float(np.max(np.abs(back - s))), 0.0, 1e-9 * scale, "forward(inverse(s)) round trip"),
        )

    return check


def _check_mean(case: dict, weights: np.ndarray) -> Check:
    """A mean with spectral weights w has <out, f> = sum w|c|^2 and
    ||out||^2 = sum w^2 |c|^2 (Parseval)."""

    def check(g: Any) -> str | None:
        power = case["power"][: weights.size]
        tol = 1e-9 * case["energy"]
        cross = complex(np.mean(g.values * np.conj(case["f"].values)))
        return _first(
            _off(cross.real, float(weights @ power), tol, "mean <out, f>"),
            _off(cross.imag, 0.0, tol, "mean <out, f> imaginary part"),
            _off(float(np.mean(np.abs(g.values) ** 2)), float(weights**2 @ power), tol, "mean ||out||^2"),
        )

    return check


# ----------------------------------------------------------------------


class AtomMaximal(Workload):
    """Truncated maximal operators of a seeded atom corpus: Hardy-norm
    ratios of the weighted (log) Riesz and the Fejer operator per atom,
    plus the CLI table on a prefix of the corpus, cross-checked against
    the per-atom rows, and the atoms verify suite."""

    name = "atom-maximal"
    P = 0.5
    CLI_ATOMS = 2
    # an atom's conditional expectations above its support are zero up to
    # roundoff of about 1e-13 |f|, which adds (1e-13)^p to the L_p average
    # when p < 1, so the block-average Hardy oracle agrees to this share
    HP_RTOL = 1e-9 + 1e-13**P

    def __init__(self, seed: int, tiny: bool, workdir: Path):
        # the same number of atoms at every support level, so that the
        # cost of the op list does not depend on the seed
        depth, per_level, levels = (8, 2, (1, 2, 3)) if tiny else (9, 13, (1, 2, 3, 4))
        self.seed = seed
        rng = np.random.default_rng(seed)
        specs = [
            vilenkin.CorpusSpec((2,), depth, self.P, per_level, int(s), level, level)
            for s, level in zip(rng.integers(2**31, size=len(levels)), levels)
        ]
        # the CLI table runs on the first atoms of the first level's corpus
        prefix = dataclasses.replace(specs[0], count=self.CLI_ATOMS)
        self.prefix_path = workdir / "corpus-prefix.json"
        self.table_path = workdir / "table.csv"
        self.prefix_path.write_text(prefix.to_json(), encoding="utf-8")
        self.base = specs[0].base()
        self.atoms = [atom for spec in specs for atom in spec.generate()]
        self.fs = [a.values.at_level(self.base.depth) for a in self.atoms]
        self.n_max = self.base.size
        self.operators = {
            "riesz-log": vilenkin.OperatorSpec("weighted_riesz", self.n_max, vilenkin.WeightSpec.log()),
            "sigma": vilenkin.OperatorSpec("sigma", self.n_max),
        }
        self.spots = [int(v) for v in rng.integers(0, self.base.size, size=len(self.fs))]
        self.refs: dict[tuple[str, int], Any] = {}
        self.rows: dict[tuple[str, int], list[float]] = {}
        self.counts: list[dict[str, int]] = [{} for _ in self.fs]  # filled by prepare_checks

    def warm(self) -> None:
        maximal.sigma_star(self.fs[0], 8)

    def prepare_checks(self) -> None:
        """Apply each operator once, check R* itself, keep the expected row."""
        self.counts = [_stream_counts(f, self.n_max) for f in self.fs]
        for key, operator in self.operators.items():
            for i, f in enumerate(self.fs):
                report = operator.apply(f)
                hp = _hardy_oracle(f, self.P)
                problem = self._check_star(key, i, report)
                out = report.result
                self.refs[(key, i)] = problem or (hp, out.lp_quasinorm(self.P) / hp, out.weak_lp(self.P) / hp**self.P)

    def ops(self) -> list[Op]:
        ops = [
            Op(
                f"{key}/atom{i}",
                lambda key=key, f=f: maximal.hp_to_lp_ratio(f, self.operators[key], self.P),
                self._check_ratio(key, i),
                self.counts[i],
            )
            for key in self.operators
            for i, f in enumerate(self.fs)
        ]
        suite = ["--seed", str(self.seed), "verify", "atoms", "--count", str(self.CLI_ATOMS)]
        ops.append(Op("verify/atoms", lambda: run_cli(suite), _check_suite(3)))
        prefix_counts = sum((Counter(c) for c in self.counts[: self.CLI_ATOMS]), Counter())
        for key, flags in (("riesz-log", ["--op", "riesz", "--weight", "log"]), ("sigma", ["--op", "sigma"])):
            argv = ["--out", str(self.table_path), "maximal", "table", *flags]
            argv += ["--p", str(self.P), "--input", str(self.prefix_path)]
            ops.append(Op(f"cli-table/{key}", lambda argv=argv: run_cli(argv), self._check_table(key), prefix_counts))
        return ops

    def _mean(self, key: str, f: Any, n: int) -> np.ndarray:
        """|mean_n f| / weight(n), the quantity the operator takes a sup of."""
        if key == "sigma":
            return np.abs(vilenkin.fejer_mean(f, n).values)
        return np.abs(vilenkin.riesz_mean(f, n).values) / math.log(n + 1)

    def _check_star(self, key: str, i: int, report: Any) -> str | None:
        """R* is finite, at least its n_max term, and equals its term at argmax."""
        f = self.fs[i]
        star = np.real(report.result.values)
        if not np.all(np.isfinite(star)):
            return f"{key}: non-finite operator value"
        tol = 1e-9 * float(np.max(star))
        last = self._mean(key, f, self.n_max)
        if np.any(star < last - tol):
            return f"{key} sup below its n_max term by {float(np.max(last - star)):.3g}"
        for x in (int(np.argmax(star)), self.spots[i]):
            n = int(report.argmax[x])
            problem = _off(float(star[x]), float(self._mean(key, f, n)[x]), tol, f"{key} at cell {x}, n={n}")
            if problem:
                return problem
        return None

    def _check_ratio(self, key: str, i: int) -> Check:
        def check(ratio: Any) -> str | None:
            ref = self.refs[(key, i)]
            if isinstance(ref, str):
                return ref
            row = [ratio.hardy_norm, ratio.strong, ratio.weak]
            self.rows[(key, i)] = row
            for got, want, what in zip(row, ref, ("Hardy norm", "strong ratio", "weak ratio")):
                problem = _off(got, want, self.HP_RTOL * abs(want), f"{key} {what}")
                if problem:
                    return problem
            return None

        return check

    def _check_table(self, key: str) -> Check:
        def check(out: Any) -> str | None:
            code, _ = out
            if code != 0:
                return f"maximal table exited {code}"
            lines = self.table_path.read_text(encoding="utf-8").splitlines()
            if lines[0] != "atom,support_level,hardy_norm,strong_ratio,weak_ratio":
                return f"maximal table header {lines[0]!r}"
            want = []
            for i in range(self.CLI_ATOMS):
                row = self.rows.get((key, i))
                if row is None:
                    return f"no checked API row for atom {i}"
                level = self.atoms[i].support.level
                want.append(",".join([str(i), str(level), *(f"{v:.17g}" for v in row)]))
            if lines[1:] != want:
                return "maximal table rows differ from the per-atom API rows"
            return None

        return check


def _stream_counts(f: Any, n_max: int) -> dict[str, int]:
    """Work of one truncated maximal stream over f, from the input alone.

    The stream runs at f's effective level and adds a character only at
    the indices whose coefficient is nonzero.
    """
    g = f.compress()
    cells = g.base.orders[g.level]
    coeffs = transform.forward(g).coeffs
    return {
        "maximal.stream.steps": n_max,
        "maximal.stream.coeff_steps": int(np.count_nonzero(coeffs[: min(n_max, cells)])),
        "maximal.stream.cell_steps": n_max * cells,
    }


# ----------------------------------------------------------------------


class SweepDense(Workload):
    """A kernel-integral sweep on a non-dyadic base, a localization sweep
    (the engine of the lemmas suite), the Abel routes of the Riesz mean and
    kernel (the streaming half of the identities suite) and the blow-up
    table: streaming loops over full-size arrays."""

    name = "sweep-dense"

    def __init__(self, seed: int, tiny: bool, workdir: Path):
        rng = np.random.default_rng(seed)
        # sizes and levels are fixed and the seed picks only the function
        # and the spot checks, so the cost of the op list does not depend
        # on the seed
        depth, loc_depth, abel_depth = (5, 6, 4) if tiny else (8, 10, 7)
        self.sweep_base = vilenkin.make_base((2, 3), depth)
        self.n_max = self.sweep_base.size
        self.loc_base = vilenkin.make_base((2,), loc_depth)
        self.loc_level = 2
        self.abel_base = vilenkin.make_base((2, 3), abel_depth)
        m = self.loc_base.size
        self.abel_f = vilenkin.LevelFunction(
            self.loc_base, loc_depth, rng.standard_normal(m) + 1j * rng.standard_normal(m)
        )
        self.spot_ns = sorted(int(v) for v in rng.integers(1, self.n_max + 1, size=3))
        self.loc_spots = sorted(int(v) for v in rng.integers(4, self.loc_base.size + 1, size=2))
        self.cex_depth, self.kmax = (7, 3) if tiny else (12, 5)
        self.cex_path = workdir / "blowup.csv"
        self.refs: dict[str, Any] = {}

    def warm(self) -> None:
        kernels.kernel_integral_sweep(vilenkin.make_base((2, 3), 3), 3, 6)

    def prepare_checks(self) -> None:
        """The direct routes the Abel identities must agree with."""
        self.refs["riesz_mean"] = vilenkin.riesz_mean(self.abel_f, self.loc_base.size).values
        base = self.abel_base
        self.refs["riesz_kernel"] = vilenkin.riesz_kernel(base, base.size, base.depth).values

    def ops(self) -> list[Op]:
        base, n_max = self.sweep_base, self.n_max
        loc, level = self.loc_base, self.loc_level
        f, abel = self.abel_f, self.abel_base
        argv = ["--base", "2", "--depth", str(self.cex_depth), "--out", str(self.cex_path)]
        argv += ["counterexample", "sweep", "--phi", "unit", "--p", "0.5", "--kmax", str(self.kmax)]
        return [
            Op(
                "kernel_integral_sweep",
                lambda: vilenkin.kernel_integral_sweep(base, base.depth, n_max),
                self._check_sweep,
            ),
            Op(
                "localization_sweep",
                lambda: kernels.localization_sweep(loc, level, loc.size),
                self._check_localization,
            ),
            Op(
                "riesz_mean_abel",
                lambda: kernels.riesz_mean_abel(f, loc.size),
                self._check_identity("riesz_mean"),
            ),
            Op(
                "riesz_kernel_abel",
                lambda: kernels.riesz_kernel_abel(abel, abel.size, abel.depth),
                self._check_identity("riesz_kernel"),
            ),
            Op("counterexample/sweep", lambda: run_cli(argv), self._check_blowup),
        ]

    def _check_identity(self, key: str) -> Check:
        def check(got: Any) -> str | None:
            want = self.refs[key]
            if got.values.shape != want.shape:
                return f"{key} Abel route: shape {got.values.shape}"
            scale = float(np.max(np.abs(want)))
            return _off(float(np.max(np.abs(got.values - want))), 0.0, 1e-9 * scale, f"{key} Abel identity")

        return check

    def _check_sweep(self, sweep: Any) -> str | None:
        ints = sweep.integrals
        if ints.shape != (self.n_max,) or not np.all(np.isfinite(ints)) or np.any(ints <= 0):
            return "kernel integrals not finite and positive"
        if not np.array_equal(sweep.running_max, np.maximum.accumulate(ints)):
            return "running max is not the running max of the integrals"
        base = self.sweep_base
        for n in self.spot_ns:
            want = float(np.mean(np.abs(vilenkin.fejer_kernel(base, n, base.depth).values)))
            problem = _off(float(ints[n - 1]), want, 1e-9 * want, f"integral of |K_{n}|")
            if problem:
                return problem
        return None

    def _check_localization(self, sweep: Any) -> str | None:
        """Kernel mass on each class block at spot n against |K_n| from
        fejer_kernel, over the bound shapes M_k M_l / (n M_N) (pair) and
        M_k / M_N (single); pair tail sums never decrease."""
        base = self.loc_base
        m_n = base.orders[self.loc_level]
        steps = base.size - m_n + 1
        kr, tr = sweep.kernel_ratios, sweep.tail_ratios
        if kr.shape != (len(sweep.cells), steps) or tr.shape != kr.shape:
            return f"localization ratios have shape {kr.shape}"
        if not (np.all(np.isfinite(kr)) and np.all(np.isfinite(tr)) and np.all(kr >= 0) and np.all(tr >= 0)):
            return "localization ratios not finite and non-negative"
        for i, cell in enumerate(sweep.cells):
            if cell.kind == "pair" and np.any(np.diff(tr[i]) < -1e-12 * max(float(tr[i, -1]), 1.0)):
                return f"pair tail sum decreases on cell {i}"
        for n in (n for n in self.loc_spots if n >= m_n):
            kernel = np.abs(vilenkin.fejer_kernel(base, n, base.depth).values)
            wants = []
            for cell in sweep.cells:
                mass = float(kernel[cell.block_start : cell.block_stop].sum()) / base.size
                if cell.kind == "pair":
                    wants.append(mass * n * m_n / (base.orders[cell.k] * base.orders[cell.l]))
                else:
                    wants.append(mass * m_n / base.orders[cell.k])
            # some blocks carry only roundoff, so the tolerance follows the largest ratio
            tol = 1e-9 * max(wants)
            for i, want in enumerate(wants):
                problem = _off(float(kr[i, n - m_n]), want, tol, f"cell {i} ratio at n={n}")
                if problem:
                    return problem
        return None

    def _check_blowup(self, out: Any) -> str | None:
        code, _ = out
        if code != 0:
            return f"counterexample sweep exited {code}"
        with open(self.cex_path, encoding="utf-8", newline="") as handle:
            rows = list(csv.reader(handle))
        header = ["k", "probe_indices", "hardy_norm", "numerator", "ratio", "analytic_lower_bound", "trend_flag"]
        if rows[0] != header:
            return f"blow-up header {rows[0]}"
        body = rows[1:]
        if [int(r[0]) for r in body] != list(range(1, self.kmax + 1)):
            return "blow-up stages are not 1..kmax"
        ratios = [float(r[4]) for r in body]
        if not all(math.isfinite(r) and r > 0 for r in ratios):
            return "blow-up ratios not finite and positive"
        if not all(b > a for a, b in zip(ratios, ratios[1:])):
            return "blow-up ratio column is not strictly increasing"
        if any(r[6] != "increasing" for r in body):
            return "blow-up trend flag is not 'increasing'"
        return None


def _check_suite(expected: int) -> Check:
    def check(out: Any) -> str | None:
        code, text = out
        lines = text.splitlines()
        failing = [line for line in lines if not line.startswith("[PASS] ")]
        if code != 0 or failing or len(lines) != expected:
            return f"verify exited {code} with {len(lines)} lines; first non-PASS: {failing[:1]}"
        return None

    return check


# ----------------------------------------------------------------------


class DumpIO(Workload):
    """kernel dump and spectrum dump, CSV and JSON, written to files."""

    name = "dump-io"
    GEOMETRIES = (((2,), 12), ((2, 3), 9))
    TINY = (((2,), 6), ((2, 3), 4))
    HEADERS = {"kernel": ["rank", "real", "imag"], "spectrum": ["index", "real", "imag"]}

    def __init__(self, seed: int, tiny: bool, workdir: Path):
        rng = np.random.default_rng(seed)
        self.jobs = []
        for g, (moduli, depth) in enumerate(self.TINY if tiny else self.GEOMETRIES):
            base = vilenkin.make_base(moduli, depth)
            for cmd, which in zip(("kernel", "spectrum"), ("riesz", "fejer")[:: 1 - 2 * g]):
                # the spectrum of a kernel is zero from index n on, and zero
                # rows format faster; n in the top 1/64 keeps the formatting
                # cost nearly independent of the seed
                n = int(rng.integers(base.size - base.size // 64, base.size + 1))
                for fmt in ("csv", "json"):
                    path = workdir / f"dump-{g}-{cmd}.{fmt}"
                    self.jobs.append(
                        {"base": base, "moduli": moduli, "cmd": cmd, "which": which, "n": n, "fmt": fmt, "path": path}
                    )

    def warm(self) -> None:
        for job in self.jobs:
            transform.forward(vilenkin.constant(job["base"], 1))

    def ops(self) -> list[Op]:
        ops = []
        for job in self.jobs:
            argv = ["--base", ",".join(map(str, job["moduli"])), "--depth", str(job["base"].depth)]
            argv += ["--format", job["fmt"], "--out", str(job["path"])]
            argv += [job["cmd"], "dump", "--which", job["which"], "--n", str(job["n"])]
            label = f"{job['cmd']}-dump/{job['fmt']}/{job['base'].moduli[:2]}x{job['base'].depth}"
            ops.append(Op(label, lambda argv=argv: run_cli(argv), self._check(job)))
        return ops

    def _check(self, job: dict) -> Check:
        def check(out: Any) -> str | None:
            code, _ = out
            if code != 0:
                return f"dump exited {code}"
            base, level = job["base"], job["base"].depth
            make = kernels.fejer_kernel if job["which"] == "fejer" else kernels.riesz_kernel
            kernel = make(base, job["n"], level)
            want = kernel.values if job["cmd"] == "kernel" else transform.forward(kernel).coeffs
            header, rows = self._parse(job)
            if header != self.HEADERS[job["cmd"]]:
                return f"dump header {header}"
            if len(rows) != want.size or [int(r[0]) for r in rows] != list(range(want.size)):
                return "dump row indices are not 0..M-1"
            got = np.array([float(r[1]) for r in rows]) + 1j * np.array([float(r[2]) for r in rows])
            scale = float(np.max(np.abs(want)))
            return _off(float(np.max(np.abs(got - want))), 0.0, 1e-12 * scale, "dumped values vs library")

        return check

    @staticmethod
    def _parse(job: dict) -> tuple[list[str], list[list[Any]]]:
        path = job["path"]
        if job["fmt"] == "csv":
            with open(path, encoding="utf-8", newline="") as handle:
                rows = list(csv.reader(handle))
            return rows[0], rows[1:]
        payload = json.loads(path.read_text(encoding="utf-8"))
        echo = {"moduli": list(job["moduli"]), "depth": job["base"].depth, "seed": None, "format": "json"}
        if set(payload) != {"config", "header", "rows"} or payload["config"] != echo:
            return ["<bad json envelope>"], []
        return payload["header"], payload["rows"]


WORKLOADS = {w.name: w for w in (SweepDense, AtomMaximal, TransformLarge, DumpIO)}
