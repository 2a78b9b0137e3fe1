"""Command-line front end: verification suites, kernel dumps, and sweeps.

All output is deterministic: floats print with full double precision,
JSON keys are sorted, CSV rows use comma separators with '.' decimals and
LF line endings.  Identical configuration plus seed gives byte-identical
files.  A resource guard refuses a base with more than ``group.SIZE_GUARD``
cells, the one ``verify kernels --max-a`` asks for included, since several
sweeps are quadratic.

Each command is a group word and a leaf word (``kernel dump``, ``verify
kernels``) and reads only the flags its row of ``_READS`` lists.  ``main``
resolves them once: any other flag, before or after the subcommand, and an
empty --config or --out are refused with one error line and exit code 2
before any file is read or any base is built.  Then it calls the command's
handler.  verify and atoms corpus always write JSON, so they take no
--format; verify writes its --out report before it prints a line.

The BLAS thread pools follow the BLAS library's own variables, such as
OPENBLAS_NUM_THREADS or OMP_NUM_THREADS, set before startup.
"""

from __future__ import annotations

import argparse
import csv
import json
import math
import os
import sys
from dataclasses import dataclass, replace
from json.encoder import encode_basestring_ascii
from pathlib import Path
from typing import Any, Callable, Sequence

import numpy as np

from .counterexample import blowup_table
from .functions import LevelFunction
from .group import VilenkinBase, load_base, make_base
from .hardy import CorpusSpec
from .kernels import KernelConvention, dirichlet, fejer_kernel, riesz_kernel
from .maximal import OperatorSpec, WeightSpec, hp_to_lp_ratio
from .transform import forward
from .verify import SUITES, run_suite

__all__ = ["main", "RunConfig"]

_CLI_WEIGHTS = ("unit", "log", "power_log", "power_log_sq")
# The shared flags each command reads, each verify flag mapped to the suite keyword it feeds; any other is refused.
# atoms corpus lists its own required --count, which has the dest of verify's.
_READS: dict[str, dict[str, str | None]] = {
    "verify kernels": {"max_a": "max_exponent", "out": None},
    "verify identities": {"seed": "seed", "out": None},
    "verify lemmas": {"max_a": "max_cylinder_level", "out": None},
    "verify atoms": {"seed": "seed", "count": "count", "out": None},
    "kernel dump": dict.fromkeys(("config", "base", "depth", "out", "format")),
    "spectrum dump": dict.fromkeys(("config", "base", "depth", "out", "format")),
    "atoms corpus": dict.fromkeys(("config", "base", "depth", "seed", "out", "count")),  # always JSON
    "maximal table": dict.fromkeys(("out", "format")),  # the base, depth and seed come from --input
    "counterexample sweep": dict.fromkeys(("config", "base", "depth", "out", "format")),
}
_CHECKED = {flag for reads in _READS.values() for flag in reads}


@dataclass(frozen=True)
class RunConfig:
    """Resolved run parameters: base geometry, seed, output routing."""

    moduli: tuple[int, ...]
    depth: int
    seed: int | None
    out: str | None
    format: str

    def base(self) -> VilenkinBase:
        """The base, behind the resource guard every command that builds one applies."""
        base = make_base(self.moduli, self.depth)
        base.require_size()
        return base

    def echo(self) -> dict[str, Any]:
        return {
            "moduli": list(self.moduli),
            "depth": self.depth,
            "seed": self.seed,
            "format": self.format,
        }


# the one full-precision formatter; a bound builtin, so map() over it runs no Python frame per cell
_fmt: Callable[[float], str] = "{:.17g}".format
# a JSON table cell's type and its json.dumps spelling; any other cell type is refused
_JSON_CELLS: dict[type, Callable[[Any], str]] = {int: int.__repr__, float: float.__repr__, str: encode_basestring_ascii}
_JSON_NON_FINITE = {"nan": "NaN", "inf": "Infinity", "-inf": "-Infinity"}
_JSON_BLOCK_ROWS = 512  # rows spelled per block: bounds the cell strings alive at once


def _command(args: argparse.Namespace) -> str:
    """The ``_READS`` key of the parsed command: its group word and its leaf word."""
    return f"{args.command} {args.leaf}"


def _resolve_config(parsed: argparse.Namespace) -> RunConfig:
    """The shared flags given, after refusing any that the command's ``_READS`` entry lacks."""
    command = _command(parsed)
    given = vars(parsed)  # the checked flags default to SUPPRESS, so only those given are here
    for flag in given:
        if flag in _CHECKED and flag not in _READS[command]:
            raise ValueError(f"{command} takes no --{flag.replace('_', '-')}")
    for flag in ("config", "out"):
        if given.get(flag) == "":
            raise ValueError(f"--{flag} takes a file path, got ''")
    moduli: Sequence[int] = (2,)  # the default base, (2,) at depth 10
    depth = 10
    if "config" in given:
        loaded = load_base(parsed.config)
        moduli, depth = loaded.moduli, loaded.depth
    if "base" in given:
        try:
            moduli = tuple(int(tok) for tok in parsed.base.split(","))
        except ValueError:
            raise ValueError(f"--base takes comma-separated integers, got {parsed.base!r}") from None
        depth = len(moduli)
    depth = given.get("depth", depth)
    return RunConfig(
        moduli=tuple(moduli),
        depth=depth,
        seed=given.get("seed"),
        out=given.get("out"),
        format=given.get("format", "csv"),
    )


def _emit_text(text: str, out: str | None) -> None:
    if out is None:
        sys.stdout.write(text)
    else:
        Path(out).write_text(text, encoding="utf-8", newline="")


def _json_kind(name: str, column: list[Any]) -> type:
    """The one cell type of a JSON table column, checked once per column."""
    kinds = set(map(type, column))
    if len(kinds) != 1 or not kinds <= _JSON_CELLS.keys():
        found = ", ".join(sorted(kind.__name__ for kind in kinds))
        raise TypeError(f"table column {name!r} holds {found}: a cell is an int, float or str")
    return kinds.pop()


def _json_cells(kind: type, column: list[Any]) -> list[str]:
    """Cells of one type, spelled as json.dumps spells them."""
    cells = list(map(_JSON_CELLS[kind], column))
    if kind is float and not all(map(math.isfinite, column)):
        cells = list(map(_JSON_NON_FINITE.get, cells, cells))
    return cells


def _json_table(header: list[str], columns: list[list[Any]], echo: dict[str, Any]) -> str:
    """The text of json.dumps({"config", "header", "rows"}, indent=2, sort_keys=True) + newline.

    The rows are spliced in by column rather than walked by the pure-Python indent
    encoder: "rows" sorts last, so its empty list ends the envelope's text.  They are
    spelled a block at a time, so only one block's cell strings are alive at once."""
    envelope = json.dumps({"config": echo, "header": header, "rows": []}, indent=2, sort_keys=True)
    count = max(map(len, columns), default=0)
    if not count:
        return envelope + "\n"
    kinds = [_json_kind(name, column) for name, column in zip(header, columns, strict=True)]
    row_sep = "\n    ],\n    [\n      "
    blocks = []
    for start in range(0, count, _JSON_BLOCK_ROWS):
        cells = [_json_cells(kind, column[start : start + _JSON_BLOCK_ROWS]) for kind, column in zip(kinds, columns)]
        blocks.append(row_sep.join(map(",\n      ".join, zip(*cells, strict=True))))
    blocks[0] = f"{envelope[:-4]}[\n    [\n      {blocks[0]}"
    blocks[-1] += "\n    ]\n  ]\n}\n"
    return row_sep.join(blocks)


def _emit_rows(header: list[str], columns: list[list[Any]], cfg: RunConfig) -> None:
    """Write a rectangular report, given by column, as CSV or JSON per the config; every CLI table goes
    through here.  A JSON table's cells are ints, floats or strs, one type per column."""
    if cfg.format == "json":
        _emit_text(_json_table(header, columns, cfg.echo()), cfg.out)
        return
    import io

    buf = io.StringIO()
    writer = csv.writer(buf, lineterminator="\n")
    writer.writerow(header)
    writer.writerows(zip(*columns, strict=True))
    _emit_text(buf.getvalue(), cfg.out)


def _parse_weight(spec: str, p: float) -> WeightSpec:
    if spec not in _CLI_WEIGHTS:
        raise ValueError(f"unknown weight spec {spec!r} (use {'|'.join(_CLI_WEIGHTS)})")
    return WeightSpec(spec, p=p if spec.startswith("power") else None)


# ----------------------------------------------------------------------
# subcommand handlers


def _cmd_verify(args: argparse.Namespace, cfg: RunConfig) -> int:
    given = vars(args)
    kwargs = {keyword: given[flag] for flag, keyword in _READS[_command(args)].items() if keyword and flag in given}
    report = run_suite(args.leaf, **kwargs)
    if cfg.out is not None:  # written before any line prints, so a report that cannot be written prints none
        payload = {"config": cfg.echo(), **report.to_payload()}
        _emit_text(json.dumps(payload, indent=2, sort_keys=True) + "\n", cfg.out)
    for check in report.checks:
        status = "PASS" if check.passed else "FAIL"
        extras = " ".join(f"{k}={_fmt(v) if isinstance(v, float) else v}" for k, v in check.detail.items())
        print(f"[{status}] {report.suite}/{check.name} {extras}".rstrip())
    return 0 if report.passed else 1


def _selected_kernel(args: argparse.Namespace, base: VilenkinBase) -> LevelFunction:
    """The kernel named by the dump flags --which, --n, --level, --convention."""
    level = args.level if args.level is not None else base.depth
    if args.which == "fejer":
        return fejer_kernel(base, args.n, level, KernelConvention(args.convention or "shifted"))
    if args.convention is not None:
        raise ValueError(f"--which {args.which} takes no --convention")
    if args.which == "dirichlet":
        return dirichlet(base, args.n, level)
    return riesz_kernel(base, args.n, level)


def _complex_columns(values: np.ndarray, as_text: bool) -> list[list[Any]]:
    """The index, real and imag columns of both dumps, as floats or as .17g text."""
    parts = [values.real.tolist(), values.imag.tolist()]
    if as_text:
        parts = [list(map(_fmt, part)) for part in parts]
    return [list(range(values.size)), *parts]


def _cmd_kernel_dump(args: argparse.Namespace, cfg: RunConfig) -> int:
    fn = _selected_kernel(args, cfg.base())
    # JSON keeps numbers, CSV full-precision text
    _emit_rows(["rank", "real", "imag"], _complex_columns(fn.values, as_text=cfg.format == "csv"), cfg)
    return 0


def _cmd_spectrum_dump(args: argparse.Namespace, cfg: RunConfig) -> int:
    spec = forward(_selected_kernel(args, cfg.base()))
    _emit_rows(["index", "real", "imag"], _complex_columns(spec.coeffs, as_text=True), cfg)  # .17g in both formats
    return 0


def _cmd_atoms_corpus(args: argparse.Namespace, cfg: RunConfig) -> int:
    base = cfg.base()
    if cfg.seed is None:
        raise ValueError("atoms corpus is randomized: --seed is required")
    hi_default = max(1, min(4, base.depth - 1))
    spec = CorpusSpec(
        moduli=cfg.moduli,
        depth=cfg.depth,
        p=args.p,
        count=args.count,
        seed=cfg.seed,
        support_level_min=args.level_min,
        support_level_max=args.level_max if args.level_max is not None else hi_default,
    )
    _emit_text(spec.to_json(), cfg.out)
    return 0


def _cmd_maximal_table(args: argparse.Namespace, cfg: RunConfig) -> int:
    spec = CorpusSpec.from_path(args.input)
    cfg = replace(cfg, moduli=spec.moduli, depth=spec.depth, seed=spec.seed)  # echoed as read
    base = cfg.base()
    n_max = args.nmax if args.nmax is not None else base.size
    weight = _parse_weight(args.weight, args.p)
    op = "weighted_riesz" if args.op == "riesz" and weight.kind != "unit" else args.op
    operator = OperatorSpec(op, n_max, weight)
    base.require_count(n_max, base.depth, "n_max")  # also for a corpus of no atoms
    header = ["atom", "support_level", "hardy_norm", "strong_ratio", "weak_ratio"]
    atoms = spec.generate()
    ratios = [hp_to_lp_ratio(atom.values, operator, args.p) for atom in atoms]
    columns = [
        list(range(len(atoms))),
        [atom.support.level for atom in atoms],
        [_fmt(ratio.hardy_norm) for ratio in ratios],
        [_fmt(ratio.strong) for ratio in ratios],
        [_fmt(ratio.weak) for ratio in ratios],
    ]
    _emit_rows(header, columns, cfg)
    return 0


def _cmd_counterexample_sweep(args: argparse.Namespace, cfg: RunConfig) -> int:
    base = cfg.base()
    weight = _parse_weight(args.phi, args.p)
    table = blowup_table(base, weight, args.p, range(1, args.kmax + 1))
    header = [
        "k",
        "probe_indices",
        "hardy_norm",
        "numerator",
        "ratio",
        "analytic_lower_bound",
        "trend_flag",
    ]
    rows = table.rows
    columns = [
        [row.k for row in rows],
        [";".join(map(str, row.probe_indices)) for row in rows],
        [_fmt(row.hardy_norm) for row in rows],
        [_fmt(row.numerator) for row in rows],
        [_fmt(row.ratio) for row in rows],
        [_fmt(row.analytic_lower_bound) for row in rows],
        [table.flag] * len(rows),
    ]
    _emit_rows(header, columns, cfg)
    return 0


# ----------------------------------------------------------------------
# parser


def _build_parser() -> argparse.ArgumentParser:
    # shared flags accepted both before and after the subcommand; SUPPRESS
    # keeps an omitted late flag from clobbering an early one
    common = argparse.ArgumentParser(add_help=False, argument_default=argparse.SUPPRESS)
    common.add_argument("--config", help="JSON config file with moduli and depth")
    common.add_argument("--base", help="comma-separated moduli pattern, e.g. 2,3 (cycled to depth)")
    common.add_argument("--depth", type=int, help="truncation depth K")
    common.add_argument("--seed", type=int, help="seed for randomized commands")
    common.add_argument("--out", help="output path (default stdout)")
    common.add_argument("--format", choices=("csv", "json"), help="output format (default csv)")

    parser = argparse.ArgumentParser(
        prog="vilenkin",
        description="Exact harmonic-analysis checks on bounded Vilenkin groups",
        parents=[common],
    )
    sub = parser.add_subparsers(dest="command", required=True)

    def leaf(
        group: str, group_help: str, word: str, word_help: str, handler: Callable[..., int],
        *parents: argparse.ArgumentParser,
    ) -> argparse.ArgumentParser:
        """The parser of ``group word``, its group's one leaf, which runs ``handler``."""
        words = sub.add_parser(group, help=group_help).add_subparsers(dest="leaf", metavar=word, required=True)
        p_leaf = words.add_parser(word, help=word_help, parents=[common, *parents])
        p_leaf.set_defaults(func=handler)
        return p_leaf

    p_verify = sub.add_parser(
        "verify", help="run a property suite", parents=[common], argument_default=argparse.SUPPRESS
    )
    p_verify.add_argument("leaf", choices=SUITES, metavar="suite", help="|".join(SUITES))
    p_verify.add_argument("--max-a", type=int, help="exponent / cylinder-level cap for kernels and lemmas")
    p_verify.add_argument("--count", type=int, help="corpus size for the atoms suite")
    p_verify.set_defaults(func=_cmd_verify)

    # the kernel selection both dumps read, through _selected_kernel
    dump = argparse.ArgumentParser(add_help=False)
    dump.add_argument("--which", choices=("dirichlet", "fejer", "riesz"), required=True)
    dump.add_argument("--n", type=int, required=True)
    dump.add_argument("--level", type=int)
    dump.add_argument("--convention", choices=("zero_based", "shifted"), help="Fejer only (default shifted)")
    leaf("kernel", "kernel value tables", "dump", "dump one kernel as rank,real,imag", _cmd_kernel_dump, dump)
    leaf("spectrum", "coefficient tables", "dump", "dump a kernel spectrum as index,real,imag", _cmd_spectrum_dump,
         dump)

    p_corpus = leaf("atoms", "atom corpora", "corpus", "emit a reproducible corpus descriptor", _cmd_atoms_corpus)
    p_corpus.add_argument("--count", type=int, required=True)
    p_corpus.add_argument("--p", type=float, required=True)
    p_corpus.add_argument("--level-min", type=int, default=1)
    p_corpus.add_argument("--level-max", type=int)

    p_table = leaf("maximal", "maximal-operator ratio tables", "table", "operator ratios per corpus atom",
                   _cmd_maximal_table)
    p_table.add_argument("--op", choices=("sigma", "riesz"), required=True)
    p_table.add_argument("--weight", default="unit")
    p_table.add_argument("--p", type=float, required=True)
    p_table.add_argument("--nmax", type=int)
    p_table.add_argument("--input", required=True, help="corpus descriptor JSON")

    p_sweep = leaf("counterexample", "blow-up sweeps", "sweep", "stage-by-stage blow-up table",
                   _cmd_counterexample_sweep)
    p_sweep.add_argument("--phi", default="unit", help="weight: unit|log|power_log|power_log_sq")
    p_sweep.add_argument("--p", type=float, required=True)
    p_sweep.add_argument("--kmax", type=int, required=True)

    return parser


def main(argv: Sequence[str] | None = None) -> int:
    args = _build_parser().parse_args(argv)
    try:
        return args.func(args, _resolve_config(args))
    except BrokenPipeError:  # a downstream pager closed the stream
        devnull = os.open(os.devnull, os.O_WRONLY)
        os.dup2(devnull, sys.stdout.fileno())
        return 0
    except (ValueError, OSError) as err:  # bad input, or a file that cannot be read
        print(f"error: {err}", file=sys.stderr)
        return 2


if __name__ == "__main__":
    raise SystemExit(main())
