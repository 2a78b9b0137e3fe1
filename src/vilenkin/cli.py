"""Command-line front end: verification suites, kernel dumps, and sweeps.

All output is deterministic: floats print with full double precision,
JSON keys are sorted, CSV rows use comma separators with '.' decimals and
LF line endings.  Identical configuration plus seed gives byte-identical
files.  Every table goes through ``_emit_rows``, which spells its rows a
block at a time by one row template per block, built from the column
kinds, with the bytes of csv.writer and of json.dumps for the cells the
CLI emits: ints, floats, and str tokens of [0-9A-Za-z;._-].  A resource guard
refuses a base with more than ``group.SIZE_GUARD`` cells, the one
``verify kernels --max-a`` asks for included, since several sweeps are
quadratic.

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
import json
import math
import os
import re
import sys
from dataclasses import dataclass, replace
from itertools import chain
from typing import Any, Callable, Iterable, Iterator, Sequence

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


# the full-precision spelling of a float in verify lines, the one a .17g table cell has
_fmt: Callable[[float], str] = "{:.17g}".format


class _G17(list):
    """A float column spelled with 17 significant digits, as ``%.17g``: bare in CSV, a string in JSON."""


_JSON_NON_FINITE = {"nan": "NaN", "inf": "Infinity", "-inf": "-Infinity"}


def _json_floats(cells: list[float]) -> list[str]:
    """Float cells as json.dumps spells them, NaN and the infinities included."""
    spelled = list(map(float.__repr__, cells))
    if not all(map(math.isfinite, cells)):
        spelled = list(map(_JSON_NON_FINITE.get, spelled, spelled))
    return spelled


# a str cell: none of its characters makes csv.writer quote a field or json.dumps escape it
_TOKEN = re.compile(r"[0-9A-Za-z;._-]+")
# per format, a cell kind's slot in the row template, and what spells its cells for that slot, if anything
_SLOTS: dict[str, dict[type, tuple[str, Callable[[list[Any]], Iterable[str]] | None]]] = {
    "csv": {int: ("%d", None), str: ("%s", None), _G17: ("%.17g", None)},
    "json": {int: ("%d", None), float: ("%s", _json_floats), str: ('"%s"', None), _G17: ('"%.17g"', None)},
}
# per format, a row's opening, cell separator and closing, and the separator between rows
_ROW_LAYOUT = {"csv": ("", ",", "\n", ""), "json": ("    [\n      ", ",\n      ", "\n    ]", ",\n")}
_BLOCK_ROWS = 512  # rows spelled per block, in both formats: bounds the cell strings alive at once


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


def _emit_text(chunks: Iterable[str], out: str | None) -> None:
    """Write the chunks, in order, to stdout or to the file ``out``."""
    if out is None:
        sys.stdout.writelines(chunks)
    else:
        with open(out, "w", encoding="utf-8", newline="") as handle:
            handle.writelines(chunks)


def _column_kind(name: str, column: list[Any], fmt: str) -> type:
    """The one cell kind of a table column, checked once per column: int, float, str, or a float
    column marked _G17.  A str cell is a token of _TOKEN, and a CSV float column is marked _G17."""
    kinds = set(map(type, column))
    marked = isinstance(column, _G17)
    if len(kinds) != 1 or not kinds <= ({float} if marked else {int, float, str}):
        found = ", ".join(sorted(kind.__name__ for kind in kinds))
        allowed = "a float" if marked else "an int, float or str"
        raise TypeError(f"table column {name!r} holds {found}: a cell is {allowed}")
    kind = _G17 if marked else kinds.pop()
    if kind is str and not all(map(_TOKEN.fullmatch, column)):
        raise TypeError(f"table column {name!r} holds a str cell that is not a token of {_TOKEN.pattern}")
    if kind is float and fmt == "csv":
        raise TypeError(f"table column {name!r} holds plain floats: a CSV float column is marked _G17")
    return kind


def _row_blocks(columns: list[list[Any]], kinds: list[type], count: int, fmt: str) -> Iterator[str]:
    """The text of a table's rows in the given format, a block of rows at a time, with the row
    separator between blocks but none before the first or after the last.

    Each block is spelled by one % of a row template, built from the column kinds, over
    the block's cells interleaved row by row; only one block's strings are alive at once."""
    slots, spellers = zip(*(_SLOTS[fmt][kind] for kind in kinds))
    opening, cell_sep, closing, row_sep = _ROW_LAYOUT[fmt]
    row = opening + cell_sep.join(slots) + closing
    width = len(columns)
    templates: dict[int, str] = {}
    for start in range(0, count, _BLOCK_ROWS):
        rows = min(_BLOCK_ROWS, count - start)
        cells: list[Any] = [None] * (width * rows)
        for j, (column, spell) in enumerate(zip(columns, spellers)):
            part = column[start : start + rows]
            cells[j::width] = part if spell is None else spell(part)
        if rows not in templates:
            templates[rows] = row_sep.join([row] * rows)
        if start:
            yield row_sep
        yield templates[rows] % tuple(cells)


def _emit_rows(header: list[str], columns: list[list[Any]], cfg: RunConfig) -> None:
    """Write a rectangular report, given by column, as CSV or JSON per the config; every CLI table goes
    through here.  A cell is an int, float or str, one type per column; a float column marked _G17 is
    spelled .17g in both formats, and a CSV float column must be so marked.  A str cell, and every
    header, is a token of [0-9A-Za-z;._-].  For these cells the bytes are those of
    csv.writer(lineterminator="\n") and of json.dumps({"config", "header", "rows"}, indent=2,
    sort_keys=True) plus a newline."""
    count = max(map(len, columns), default=0)
    # every column is checked before the output is opened, so a refused table writes nothing
    if any(len(column) != count for column in columns):
        raise ValueError("table columns differ in length")
    kinds = [_column_kind(name, col, cfg.format) for name, col in zip(header, columns, strict=True)] if count else []
    rows = _row_blocks(columns, kinds, count, cfg.format) if count else ()
    if cfg.format == "json":
        # "rows" sorts last, so its empty list ends the envelope's text and the rows splice in before "]"
        envelope = json.dumps({"config": cfg.echo(), "header": header, "rows": []}, indent=2, sort_keys=True)
        head, tail = (envelope[:-4] + "[\n", "\n  ]\n}\n") if count else (envelope, "\n")
        _emit_text(chain((head,), rows, (tail,)), cfg.out)
    else:
        _emit_text(chain((",".join(header), "\n"), rows), cfg.out)


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
        _emit_text((json.dumps(payload, indent=2, sort_keys=True), "\n"), cfg.out)
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


def _complex_columns(values: np.ndarray, spelled: type[list]) -> list[list[Any]]:
    """The index, real and imag columns of both dumps, their floats held as ``spelled``: a plain list, or
    _G17 for .17g cells."""
    return [list(range(values.size)), spelled(values.real.tolist()), spelled(values.imag.tolist())]


def _cmd_kernel_dump(args: argparse.Namespace, cfg: RunConfig) -> int:
    fn = _selected_kernel(args, cfg.base())
    # JSON keeps numbers, CSV full-precision text
    _emit_rows(["rank", "real", "imag"], _complex_columns(fn.values, _G17 if cfg.format == "csv" else list), cfg)
    return 0


def _cmd_spectrum_dump(args: argparse.Namespace, cfg: RunConfig) -> int:
    spec = forward(_selected_kernel(args, cfg.base()))
    _emit_rows(["index", "real", "imag"], _complex_columns(spec.coeffs, _G17), cfg)  # .17g in both formats
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
    _emit_text((spec.to_json(),), cfg.out)
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
        _G17(ratio.hardy_norm for ratio in ratios),
        _G17(ratio.strong for ratio in ratios),
        _G17(ratio.weak for ratio in ratios),
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
        _G17(row.hardy_norm for row in rows),
        _G17(row.numerator for row in rows),
        _G17(row.ratio for row in rows),
        _G17(row.analytic_lower_bound for row in rows),
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
