import contextlib
import csv
import dataclasses
import hashlib
import io
import json
import math
from unittest import mock

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from vilenkin import cli, hardy, verify
from vilenkin.cli import main
from vilenkin.hardy import hardy_quasinorm
from vilenkin.maximal import OperatorSpec, WeightSpec, hp_to_lp_ratio, weighted_riesz_star


def test_kernel_dump_riesz_one_is_constant(tmp_path):
    out = tmp_path / "k.csv"
    code = main(["--base", "2", "--depth", "4", "--out", str(out), "kernel", "dump", "--which", "riesz", "--n", "1"])
    assert code == 0
    lines = out.read_text().splitlines()
    assert lines[0] == "rank,real,imag"
    assert len(lines) == 17
    for line in lines[1:]:
        rank, re, im = line.split(",")
        assert float(re) == 1.0 and float(im) == 0.0


def test_kernel_dump_csv_bytes(tmp_path, capsys):
    """Header, rank plus real and imaginary cells in .17g, LF line endings."""
    argv = ["--base", "2", "--depth", "2", "kernel", "dump", "--which", "riesz", "--n", "3"]
    expected = (
        b"rank,real,imag\n"
        b"0,1.6363636363636362,0\n"
        b"1,1.2727272727272729,0\n"
        b"2,0.72727272727272729,0\n"
        b"3,0.36363636363636376,0\n"
    )
    out = tmp_path / "k.csv"
    assert main(argv[:4] + ["--out", str(out)] + argv[4:]) == 0
    assert out.read_bytes() == expected
    assert main(argv) == 0
    assert capsys.readouterr().out.encode() == expected


def test_kernel_dump_json_carries_config(tmp_path):
    out = tmp_path / "k.json"
    main(
        [
            "--base", "2,3", "--depth", "3", "--format", "json", "--out", str(out),
            "kernel", "dump", "--which", "dirichlet", "--n", "2",
        ]
    )
    payload = json.loads(out.read_text())
    assert payload["config"]["moduli"] == [2, 3]
    assert payload["config"]["depth"] == 3
    assert payload["header"] == ["rank", "real", "imag"]
    assert len(payload["rows"]) == 12


def test_spectrum_dump_shape(tmp_path):
    out = tmp_path / "s.csv"
    main(["--base", "2", "--depth", "3", "--out", str(out), "spectrum", "dump", "--which", "fejer", "--n", "4"])
    lines = out.read_text().splitlines()
    assert lines[0] == "index,real,imag"
    assert len(lines) == 9
    # shifted weights (n - j)/n for j < 4
    first = [float(line.split(",")[1]) for line in lines[1:6]]
    assert first == pytest.approx([1.0, 0.75, 0.5, 0.25, 0.0])


def test_unknown_suite_is_usage_error():
    with pytest.raises(SystemExit) as err:
        main(["verify", "nope"])
    assert err.value.code == 2


def _refusal(capsys, argv):
    """Exit code and stderr of a run that must print nothing on stdout."""
    code = main(argv)
    captured = capsys.readouterr()
    assert captured.out == ""
    return code, captured.err


def test_resource_guard_refuses_huge_bases(capsys):
    code, err = _refusal(capsys, ["--base", "2", "--depth", "21", "kernel", "dump", "--which", "riesz", "--n", "1"])
    assert code == 2
    assert err == "error: refusing to run: base has 2097152 cells, guard is 1048576\n"


def test_resource_guard_refuses_a_huge_corpus_before_any_atom(tmp_path, monkeypatch, capsys):
    corpus = tmp_path / "corpus.json"
    corpus.write_text(json.dumps({
        "kind": "atom-corpus", "version": 1, "moduli": [2], "depth": 21, "p": 0.5, "count": 3,
        "seed": 0, "support_level_min": 1, "support_level_max": 4, "extra_depth": 2,
    }))

    def no_atoms(*args, **kwargs):
        raise AssertionError("an atom was generated before the guard ran")

    monkeypatch.setattr(hardy, "random_atom", no_atoms)
    code, err = _refusal(capsys, ["maximal", "table", "--op", "riesz", "--p", "0.5", "--input", str(corpus)])
    assert code == 2
    assert err == "error: refusing to run: base has 2097152 cells, guard is 1048576\n"


def test_resource_guard_refuses_verify_kernels_max_a_before_any_kernel(monkeypatch, capsys):
    # --max-a a sizes the dyadic Fejer check's base at 2^a cells

    def no_kernels(*args, **kwargs):
        raise AssertionError("a kernel was built before the guard ran")

    monkeypatch.setattr(verify, "fejer_kernel", no_kernels)
    code, err = _refusal(capsys, ["verify", "kernels", "--max-a", "21"])
    assert code == 2
    assert err == "error: refusing to run: base has 2097152 cells, guard is 1048576\n"


def test_verify_kernels_passes(capsys):
    code = main(["verify", "kernels", "--max-a", "5"])
    out = capsys.readouterr().out
    assert code == 0
    assert "[PASS] kernels/dirichlet-block-closed-form" in out
    assert "[FAIL]" not in out


def test_atoms_corpus_requires_seed(capsys):
    code, err = _refusal(capsys, ["--base", "2", "--depth", "8", "atoms", "corpus", "--count", "3", "--p", "0.5"])
    assert code == 2
    assert err == "error: atoms corpus is randomized: --seed is required\n"


def test_atoms_corpus_deterministic(tmp_path):
    a, b = tmp_path / "a.json", tmp_path / "b.json"
    args = ["--base", "2", "--depth", "8", "--seed", "5"]
    main(args + ["--out", str(a), "atoms", "corpus", "--count", "4", "--p", "0.5"])
    main(args + ["--out", str(b), "atoms", "corpus", "--count", "4", "--p", "0.5"])
    assert a.read_bytes() == b.read_bytes()
    payload = json.loads(a.read_text())
    assert payload["kind"] == "atom-corpus"
    assert payload["seed"] == 5


def test_maximal_table_on_corpus(tmp_path):
    corpus = tmp_path / "corpus.json"
    main(
        ["--base", "2", "--depth", "8", "--seed", "7", "--out", str(corpus),
         "atoms", "corpus", "--count", "3", "--p", "0.5"]
    )
    out = tmp_path / "table.csv"
    code = main(
        ["--out", str(out), "maximal", "table", "--op", "riesz", "--weight", "log",
         "--p", "0.5", "--input", str(corpus)]
    )
    assert code == 0
    lines = out.read_text().splitlines()
    assert lines[0] == "atom,support_level,hardy_norm,strong_ratio,weak_ratio"
    assert len(lines) == 4
    for line in lines[1:]:
        fields = line.split(",")
        assert np.isfinite(float(fields[3]))


@pytest.mark.parametrize(
    "corpus_argv, op, weight, p",
    [
        (["--base", "2", "--depth", "8", "--seed", "7"], "riesz", "log", "0.5"),
        (["--base", "2", "--depth", "8", "--seed", "7"], "sigma", "unit", "0.5"),
        (["--base", "2,3", "--depth", "6", "--seed", "3"], "riesz", "power_log", "0.3"),
        (["--base", "3", "--depth", "5", "--seed", "2"], "riesz", "unit", "1"),
    ],
)
def test_maximal_table_rows_are_the_ratios_of_the_atoms_at_full_depth(tmp_path, capsys, corpus_argv, op, weight, p):
    # the table passes each atom at its own level; the rows read as if it were refined to the depth
    corpus = tmp_path / "corpus.json"
    assert main([*corpus_argv, "--out", str(corpus), "atoms", "corpus", "--count", "4", "--p", p]) == 0
    argv = ["maximal", "table", "--op", op, "--weight", weight, "--p", p, "--input", str(corpus)]
    lines = _stdout(capsys, argv).splitlines()
    spec = hardy.CorpusSpec.from_path(corpus)
    base = spec.base()
    kind = WeightSpec(weight, p=float(p) if weight == "power_log" else None)
    operator = OperatorSpec(op if weight == "unit" else "weighted_riesz", base.size, kind)
    want = []
    for i, atom in enumerate(spec.generate()):
        ratio = hp_to_lp_ratio(atom.values.at_level(base.depth), operator, float(p))
        cells = (ratio.hardy_norm, ratio.strong, ratio.weak)
        want.append(",".join([str(i), str(atom.support.level), *(f"{v:.17g}" for v in cells)]))
    assert lines[1:] == want


def test_maximal_table_empty_corpus(tmp_path):
    corpus = tmp_path / "corpus.json"
    main(
        ["--base", "2", "--depth", "8", "--seed", "7", "--out", str(corpus),
         "atoms", "corpus", "--count", "0", "--p", "0.5"]
    )
    out = tmp_path / "table.csv"
    code = main(
        ["--out", str(out), "maximal", "table", "--op", "riesz", "--weight", "unit",
         "--p", "0.5", "--input", str(corpus)]
    )
    assert code == 0
    assert out.read_text() == "atom,support_level,hardy_norm,strong_ratio,weak_ratio\n"


def test_counterexample_sweep_deterministic(tmp_path):
    a, b = tmp_path / "a.csv", tmp_path / "b.csv"
    args = ["--base", "2", "--depth", "9"]
    cmd = ["counterexample", "sweep", "--phi", "unit", "--p", "0.5", "--kmax", "3"]
    main(args + ["--out", str(a)] + cmd)
    main(args + ["--out", str(b)] + cmd)
    assert a.read_bytes() == b.read_bytes()
    lines = a.read_text().splitlines()
    assert lines[0].startswith("k,probe_indices,hardy_norm")
    ratios = [float(line.split(",")[4]) for line in lines[1:]]
    assert ratios == sorted(ratios)


def test_config_file_with_flag_override(tmp_path):
    cfg = tmp_path / "base.json"
    cfg.write_text(json.dumps({"moduli": [2, 3], "depth": 4}))
    out = tmp_path / "k.csv"
    main(["--config", str(cfg), "--out", str(out), "kernel", "dump", "--which", "riesz", "--n", "1"])
    assert len(out.read_text().splitlines()) == 37  # header + M_4 = 36 rows
    main(["--config", str(cfg), "--depth", "2", "--out", str(out), "kernel", "dump", "--which", "riesz", "--n", "1"])
    assert len(out.read_text().splitlines()) == 7  # depth override wins


def test_depth_zero_is_refused(capsys):
    for argv in (
        ["--base", "2", "--depth", "0", "kernel", "dump", "--which", "riesz", "--n", "1"],
        ["--depth", "0", "spectrum", "dump", "--which", "fejer", "--n", "1"],
    ):
        code, err = _refusal(capsys, argv)
        assert code == 2
        assert err == "error: depth must be >= 1, got 0\n"


def test_weight_spec_parse_error(capsys):
    argv = ["--base", "2", "--depth", "6", "counterexample", "sweep", "--phi", "bogus", "--p", "0.5", "--kmax", "1"]
    code, err = _refusal(capsys, argv)
    assert code == 2
    assert err == "error: unknown weight spec 'bogus' (use unit|log|power_log|power_log_sq)\n"


def test_invalid_base_exits_2(capsys):
    code, err = _refusal(capsys, ["--base", "1", "kernel", "dump", "--which", "riesz", "--n", "1"])
    assert code == 2
    assert err == "error: invalid Vilenkin base: every modulus must be >= 2, got 1\n"


@pytest.mark.parametrize("weight", ["log", "power_log"])
def test_maximal_table_refuses_a_weight_sigma_ignores(tmp_path, capsys, weight):
    corpus = tmp_path / "corpus.json"
    main(["--base", "2", "--depth", "6", "--seed", "7", "--out", str(corpus),
          "atoms", "corpus", "--count", "1", "--p", "0.5"])
    argv = ["maximal", "table", "--op", "sigma", "--weight", weight, "--p", "0.5", "--input", str(corpus)]
    code, err = _refusal(capsys, argv)
    assert code == 2
    assert err == f"error: operator sigma takes no weight, got {weight!r}\n"


@pytest.mark.parametrize(
    "argv, flag",
    [
        (["verify", "identities", "--max-a", "3"], "identities takes no --max-a"),
        (["verify", "kernels", "--count", "3"], "kernels takes no --count"),
        (["verify", "lemmas", "--count", "3"], "lemmas takes no --count"),
        (["--seed", "1", "verify", "atoms", "--max-a", "3"], "atoms takes no --max-a"),
        (["--seed", "4", "verify", "kernels"], "kernels takes no --seed"),
        (["verify", "lemmas", "--seed", "4"], "lemmas takes no --seed"),
    ],
)
def test_verify_refuses_a_flag_its_suite_ignores(capsys, argv, flag):
    code, err = _refusal(capsys, argv)
    assert code == 2
    assert err == f"error: verify {flag}\n"


# a value for each flag the CLI checks against cli._READS; the files named here do not exist
_FLAG_VALUES = {"config": "base.json", "base": "2", "depth": "2", "seed": "1", "out": "out.txt", "format": "json"}
_SUITE_FLAG_VALUES = {"max_a": "3", "count": "2"}
# a valid argv after each command's name
_COMMAND_TAILS = {
    "kernel dump": ["--which", "riesz", "--n", "1"],
    "spectrum dump": ["--which", "riesz", "--n", "1"],
    "atoms corpus": ["--count", "1", "--p", "0.5"],
    "maximal table": ["--op", "sigma", "--p", "0.5", "--input", "corpus.json"],
    "counterexample sweep": ["--p", "0.5", "--kmax", "1"],
}


def _unread_flags():
    """Every (command, flag, position) whose flag the command's cli._READS entry lacks."""
    for command, reads in cli._READS.items():
        suite_flags = _SUITE_FLAG_VALUES if command.startswith("verify ") else {}
        for flag, value in {**_FLAG_VALUES, **suite_flags}.items():
            if flag in reads:
                continue
            # the shared flags are accepted before or after the subcommand, a suite flag only after it
            for position in ("before", "after") if flag in _FLAG_VALUES else ("after",):
                yield pytest.param(command, flag, value, position, id=f"{command}-{flag}-{position}")


@pytest.mark.parametrize("command, flag, value, position", list(_unread_flags()))
def test_every_command_refuses_a_flag_it_does_not_read(tmp_path, monkeypatch, capsys, command, flag, value, position):
    # refused before any file is read or any base is built, so a missing --config or --input never shows
    monkeypatch.chdir(tmp_path)
    option = [f"--{flag.replace('_', '-')}", value]
    words = [*command.split(), *_COMMAND_TAILS.get(command, [])]
    argv = [*option, *words] if position == "before" else [*words, *option]
    code, err = _refusal(capsys, argv)
    assert code == 2
    assert err == f"error: {command} takes no --{flag.replace('_', '-')}\n"
    assert not (tmp_path / "out.txt").exists()


@pytest.mark.parametrize(
    "argv, message",
    [
        (["--base", "2", "--depth", "30", "verify", "identities"], "verify identities takes no --base"),
        (["--seed", "1", "maximal", "table", "--op", "riesz", "--p", "0.5", "--input", "missing.json"],
         "maximal table takes no --seed"),
    ],
    ids=["before-the-size-guard", "before-the-input-file"],
)
def test_an_unread_flag_is_refused_first(tmp_path, monkeypatch, capsys, argv, message):
    monkeypatch.chdir(tmp_path)
    code, err = _refusal(capsys, argv)
    assert code == 2
    assert err == f"error: {message}\n"


def test_verify_writes_its_report_before_any_line(tmp_path, capsys):
    # a report that cannot be written leaves no PASS line that the exit code contradicts
    argv = ["verify", "kernels", "--max-a", "3", "--out", str(tmp_path / "missing" / "r.json")]
    code, err = _refusal(capsys, argv)
    assert code == 2
    assert err.startswith("error: [Errno 2] No such file or directory") and err.count("\n") == 1


@pytest.mark.parametrize(
    "group, word",
    [("kernel", "dump"), ("spectrum", "dump"), ("atoms", "corpus"), ("maximal", "table"),
     ("counterexample", "sweep"), ("verify", "suite")],
)
def test_a_group_without_its_leaf_names_the_missing_word(capsys, group, word):
    with pytest.raises(SystemExit) as exit_:
        main([group])
    assert exit_.value.code == 2
    err = capsys.readouterr().err
    assert err.endswith(f"error: the following arguments are required: {word}\n")
    assert "_command" not in err


def _offered_commands():
    """Every "group leaf" pair the parser accepts, read from the parser itself."""
    top = next(action for action in cli._build_parser()._actions if action.dest == "command")
    for group, group_parser in top.choices.items():
        leaf = next(action for action in group_parser._actions if action.dest == "leaf")
        for word in leaf.choices:
            yield f"{group} {word}"


def test_the_parser_offers_exactly_the_commands_of_the_read_table():
    assert sorted(_offered_commands()) == sorted(cli._READS)


_KERNEL_DUMP = ["--format", "json", "kernel", "dump", "--which", "riesz", "--n", "1"]


@pytest.mark.parametrize(
    "argv, message",
    [
        pytest.param(["--base", "", *_KERNEL_DUMP], "--base takes comma-separated integers, got ''", id="base-empty"),
        pytest.param(
            ["--base", "2,,3", *_KERNEL_DUMP],
            "--base takes comma-separated integers, got '2,,3'",
            id="base-empty-token",
        ),
        pytest.param(
            ["--base", "two", *_KERNEL_DUMP], "--base takes comma-separated integers, got 'two'", id="base-word"
        ),
        pytest.param(["--config", "", *_KERNEL_DUMP], "--config takes a file path, got ''", id="config-empty"),
        # refused before any work starts, so the missing --input of maximal table never shows
        *[
            pytest.param(
                [*command.split(), *_COMMAND_TAILS.get(command, []), "--out", ""],
                "--out takes a file path, got ''",
                id=f"out-empty-{command.replace(' ', '-')}",
            )
            for command, reads in cli._READS.items()
            if "out" in reads
        ],
    ],
)
def test_a_malformed_base_flag_is_one_line(capsys, argv, message):
    # an empty value must not fall back to a default
    code, err = _refusal(capsys, argv)
    assert code == 2
    assert err == f"error: {message}\n"


def test_unreadable_input_is_one_line(tmp_path, capsys):
    missing = str(tmp_path / "missing.json")
    for argv in (
        ["maximal", "table", "--op", "riesz", "--p", "0.5", "--input", missing],
        ["--config", missing, "kernel", "dump", "--which", "riesz", "--n", "1"],
    ):
        code, err = _refusal(capsys, argv)
        assert code == 2
        assert err.startswith("error: [Errno 2] No such file or directory") and err.count("\n") == 1
    corpus = tmp_path / "corpus.json"
    corpus.write_text(json.dumps({"kind": "atom-corpus", "moduli": [2], "depth": 6}))
    code, err = _refusal(capsys, ["maximal", "table", "--op", "riesz", "--p", "0.5", "--input", str(corpus)])
    assert code == 2
    assert err == "error: corpus descriptor lacks the field 'p'\n"


_DESCRIPTOR = json.loads(
    hardy.CorpusSpec((2,), 6, 0.5, 1, 7, support_level_min=1, support_level_max=3).to_json()
)
# depth 6 less the 2 extra levels leaves support levels 0..4, so [5, 3] holds none
_CAPPED_EMPTY = "support-level range [5, 3] is empty once capped at depth - extra_depth = 4 (depth 6, extra depth 2)"


@pytest.mark.parametrize(
    "flag, payload, message",
    [
        ("--input", {**_DESCRIPTOR, "moduli": 2},
         "corpus descriptor field 'moduli' must be a list of integers, got 2"),
        ("--config", {"moduli": 2, "depth": 3}, "{path} field 'moduli' must be a list of integers, got 2"),
        ("--config", 2, "{path} is not a JSON object with a 'moduli' entry"),
        ("--config", {"moduli": [2], "depth": "3"}, "{path} field 'depth' must be an integer, got \"3\""),
        ("--input", {**_DESCRIPTOR, "support_level_min": None},
         "corpus descriptor field 'support_level_min' must be an integer, got null"),
    ],
    ids=["input-moduli-int", "config-moduli-int", "config-not-object", "config-depth-str", "input-level-null"],
)
def test_wrong_typed_loader_field_is_one_line(tmp_path, capsys, flag, payload, message):
    path = tmp_path / "in.json"
    path.write_text(json.dumps(payload))
    if flag == "--input":
        argv = ["maximal", "table", "--op", "riesz", "--p", "0.5", "--input", str(path)]
    else:
        argv = ["--config", str(path), "kernel", "dump", "--which", "riesz", "--n", "1"]
    code, err = _refusal(capsys, argv)
    assert code == 2
    assert err == "error: " + message.format(path=f"config {path}") + "\n"


@pytest.mark.parametrize("which", ["dirichlet", "riesz"])
def test_kernel_dump_refuses_a_convention_its_kernel_ignores(capsys, which):
    argv = ["--base", "2", "--depth", "4", "kernel", "dump", "--which", which, "--n", "3", "--convention", "zero_based"]
    code, err = _refusal(capsys, argv)
    assert code == 2
    assert err == f"error: --which {which} takes no --convention\n"


@pytest.mark.parametrize("which", ["dirichlet", "riesz"])
def test_spectrum_dump_refuses_a_convention_its_kernel_ignores(capsys, which):
    argv = ["--base", "2", "--depth", "4", "spectrum", "dump", "--which", which, "--n", "3", "--convention", "shifted"]
    code, err = _refusal(capsys, argv)
    assert code == 2
    assert err == f"error: --which {which} takes no --convention\n"


def test_library_value_error_is_one_line(capsys):
    code = main(["--base", "2", "--depth", "3", "kernel", "dump", "--which", "riesz", "--n", "100"])
    captured = capsys.readouterr()
    assert code == 2
    assert captured.out == ""
    assert captured.err == "error: index 100 not resolvable at level 3 (max 8)\n"


def test_empty_support_level_range_is_one_line(capsys, tmp_path):
    out = tmp_path / "corpus.json"
    code = main(
        ["--base", "2", "--depth", "4", "--seed", "1", "--out", str(out), "atoms", "corpus",
         "--count", "2", "--p", "0.5", "--level-min", "5", "--level-max", "5"]
    )
    err = capsys.readouterr().err
    assert code == 2
    assert err.startswith("error: support-level range [5, 5] is empty")
    assert err.count("\n") == 1
    assert not out.exists()


@pytest.mark.parametrize(
    "field, value, message",
    [
        ("extra_depth", 0, "extra depth must be >= 1, got 0"),
        ("extra_depth", -1, "extra depth must be >= 1, got -1"),
        ("p", 0.0, "atom exponent must be positive, got 0.0"),
        ("p", -1.0, "atom exponent must be positive, got -1.0"),
        ("support_level_min", -3, "support-level range [-3, 3] starts below level 0"),
        ("support_level_min", 5, _CAPPED_EMPTY),
    ],
    ids=["extra-depth-zero", "extra-depth-negative", "p-zero", "p-negative", "level-min-negative", "level-range-empty"],
)
def test_out_of_range_descriptor_field_is_one_line(tmp_path, capsys, field, value, message):
    path = tmp_path / "corpus.json"
    path.write_text(json.dumps({**_DESCRIPTOR, field: value}))
    code, err = _refusal(capsys, ["maximal", "table", "--op", "riesz", "--p", "0.5", "--input", str(path)])
    assert code == 2
    assert err == f"error: {message}\n"


@pytest.mark.parametrize(
    "field, value, message",
    [
        ("p", 0.0, "atom exponent must be positive, got 0.0"),
        ("extra_depth", 0, "extra depth must be >= 1, got 0"),
        ("support_level_min", -3, "support-level range [-3, 3] starts below level 0"),
        ("support_level_min", 5, _CAPPED_EMPTY),
    ],
    ids=["p-zero", "extra-depth-zero", "level-min-negative", "level-range-empty"],
)
def test_out_of_range_field_of_an_empty_corpus_is_one_line(tmp_path, capsys, field, value, message):
    # a corpus of no atoms never draws, so the descriptor itself is checked
    path = tmp_path / "corpus.json"
    path.write_text(json.dumps({**_DESCRIPTOR, "count": 0, field: value}))
    code, err = _refusal(capsys, ["maximal", "table", "--op", "riesz", "--p", "0.5", "--input", str(path)])
    assert code == 2
    assert err == f"error: {message}\n"


def test_atoms_corpus_refuses_p_zero(tmp_path, capsys):
    out = tmp_path / "corpus.json"
    argv = ["--base", "2", "--depth", "6", "--seed", "1", "--out", str(out), "atoms", "corpus", "--count", "2", "--p", "0"]
    code, err = _refusal(capsys, argv)
    assert code == 2
    assert err == "error: atom exponent must be positive, got 0.0\n"
    assert not out.exists()


def test_atoms_corpus_refuses_p_inf(tmp_path, capsys):
    out = tmp_path / "corpus.json"
    argv = ["--base", "2", "--depth", "6", "--seed", "1", "--out", str(out), "atoms", "corpus", "--count", "2", "--p", "inf"]
    code, err = _refusal(capsys, argv)
    assert code == 2
    assert err == "error: atom exponent must be finite, got inf\n"
    assert not out.exists()


def test_verify_lemmas_fails_on_growing_ratios(capsys, monkeypatch):
    # at depth 6 the sweep stops at n = 64, where the tail ratios still grow
    monkeypatch.setattr(verify, "_LEMMAS_DEPTH", 6)
    code = main(["verify", "lemmas", "--max-a", "2"])
    lines = capsys.readouterr().out.splitlines()
    assert code == 1
    assert lines[0].startswith("[PASS] lemmas/localization-ratios-level-1 ")
    assert lines[1].startswith("[FAIL] lemmas/localization-ratios-level-2 ")
    assert lines[1].endswith(" failed_families=tail_pair")


def test_verify_atoms_fails_over_the_budget(capsys, monkeypatch):
    # for p <= 1 the assembled H_p quasi-norm is at most the coefficient budget
    code = main(["--seed", "1", "verify", "atoms", "--count", "2"])
    lines = capsys.readouterr().out.splitlines()
    assert code == 0 and len(lines) == 3
    assert lines[1].startswith("[PASS] atoms/assembled-martingale-budget empirical_constant=")

    def inflated(m, p):
        return 1e3 * hardy_quasinorm(m, p)

    monkeypatch.setattr(verify, "hardy_quasinorm", inflated)
    code = main(["--seed", "1", "verify", "atoms", "--count", "2"])
    lines = capsys.readouterr().out.splitlines()
    assert code == 1 and len(lines) == 3
    assert lines[1].startswith("[FAIL] atoms/assembled-martingale-budget empirical_constant=")
    assert float(lines[1].rsplit("=", 1)[1]) > 1.0


def test_verify_atoms_fails_when_the_deeper_corpus_moves(capsys, monkeypatch):
    # the complement-mass maximum must stay within 10% of itself at depth + 1
    code = main(["--seed", "1", "verify", "atoms", "--count", "2"])
    lines = capsys.readouterr().out.splitlines()
    assert code == 0 and len(lines) == 3
    assert lines[2].startswith("[PASS] atoms/weighted-riesz-complement-mass corpus_max=")
    assert lines[2].count("=") == 1

    def deeper_inflated(f, weight, n_max):
        report = weighted_riesz_star(f, weight, n_max)
        if f.level == 11:  # one level below the suite's depth 10
            report = dataclasses.replace(report, result=report.result * 4.0)
        return report

    monkeypatch.setattr(verify, "weighted_riesz_star", deeper_inflated)
    code = main(["--seed", "1", "verify", "atoms", "--count", "2"])
    lines = capsys.readouterr().out.splitlines()
    assert code == 1 and len(lines) == 3
    assert lines[2].startswith("[FAIL] atoms/weighted-riesz-complement-mass corpus_max=")
    shallow, deeper = (float(tok.split("=")[1]) for tok in lines[2].split()[2:])
    assert deeper == pytest.approx(2.0 * shallow)  # |4 R*|^(1/2) = 2 |R*|^(1/2)


_NO_ATOMS = "the atoms suite needs at least one atom, got count"


@pytest.mark.parametrize(
    "argv, message",
    [
        (["verify", "lemmas", "--max-a", "0"], "max cylinder level must be >= 1, got 0"),
        (["verify", "lemmas", "--max-a", "-2"], "max cylinder level must be >= 1, got -2"),
        (["--seed", "1", "verify", "atoms", "--count", "0"], f"{_NO_ATOMS} 0"),
        (["--seed", "1", "verify", "atoms", "--count", "-3"], f"{_NO_ATOMS} -3"),
        (["verify", "atoms", "--count", "2"], "the atoms suite is randomized and needs an explicit seed"),
        (["verify", "kernels", "--max-a", "0"], "max exponent must be >= 1, got 0"),
        (["verify", "kernels", "--max-a", "-2"], "max exponent must be >= 1, got -2"),
    ],
)
def test_verify_refuses_an_empty_check(capsys, argv, message):
    # a suite with nothing to check, or no seed to draw it from, must not read as PASS (or as FAIL)
    code = main(argv)
    captured = capsys.readouterr()
    assert code == 2 and captured.out == ""
    assert captured.err == f"error: {message}\n"


def test_atoms_corpus_refuses_a_negative_count(tmp_path, capsys):
    out = tmp_path / "corpus.json"
    code = main(["--base", "2", "--depth", "8", "--seed", "7", "--out", str(out),
                 "atoms", "corpus", "--count", "-3", "--p", "0.5"])
    assert code == 2
    assert capsys.readouterr().err == "error: corpus count must be >= 0, got -3\n"
    assert not out.exists()


@pytest.mark.parametrize(
    "argv",
    [
        ["--seed", "-3", "--base", "2", "--depth", "8", "atoms", "corpus", "--count", "2", "--p", "0.5"],
        ["--seed", "-3", "verify", "identities"],
        ["--seed", "-3", "verify", "atoms", "--count", "2"],
        ["maximal", "table", "--op", "sigma", "--p", "0.5", "--input", "{corpus}"],  # a descriptor written by hand
    ],
    ids=["atoms-corpus", "verify-identities", "verify-atoms", "maximal-table-input"],
)
def test_a_negative_seed_is_refused_by_name(tmp_path, capsys, argv):
    # numpy's own refusal names no field; no descriptor or report is written
    corpus = tmp_path / "corpus.json"
    corpus.write_text(json.dumps({**_DESCRIPTOR, "seed": -3}))
    out = tmp_path / "out.json"
    code, err = _refusal(capsys, ["--out", str(out), *(arg.format(corpus=corpus) for arg in argv)])
    assert code == 2
    assert err == "error: seed must be >= 0, got -3\n"
    assert not out.exists()


@pytest.mark.parametrize("kmax", ["0", "-2"])
def test_counterexample_sweep_refuses_no_stages(capsys, kmax):
    argv = ["--base", "2", "--depth", "9", "counterexample", "sweep", "--p", "0.5", "--kmax", kmax]
    code, err = _refusal(capsys, argv)
    assert code == 2
    assert err == "error: the stage range is empty, need at least one stage k >= 1\n"


def test_counterexample_sweep_one_stage_is_not_a_trend(capsys):
    assert main(["--base", "2", "--depth", "9", "counterexample", "sweep", "--p", "0.5", "--kmax", "1"]) == 0
    lines = capsys.readouterr().out.splitlines()
    assert len(lines) == 2
    assert lines[1].endswith(",flat-or-bounded")


@pytest.mark.parametrize(
    "argv, message",
    [
        (["--base", "2", "--depth", "9", "counterexample", "sweep", "--p", "nan", "--kmax", "2"], "p must be positive, got nan"),
        (["maximal", "table", "--op", "riesz", "--weight", "log", "--p", "nan"], "p must be positive, got nan"),
        (
            ["maximal", "table", "--op", "riesz", "--weight", "power_log", "--p", "nan"],
            "weight kind 'power_log' needs a positive exponent p",
        ),
    ],
    ids=["sweep", "table-log", "table-power-log"],
)
def test_nan_exponent_is_refused(tmp_path, capsys, argv, message):
    corpus = tmp_path / "corpus.json"
    corpus.write_text(json.dumps(_DESCRIPTOR))
    extra = ["--input", str(corpus)] if "maximal" in argv else []
    code, err = _refusal(capsys, argv + extra)
    assert code == 2
    assert err == f"error: {message}\n"


def _stdout(capsys, argv):
    assert main(argv) == 0
    return capsys.readouterr().out


def test_counterexample_sweep_bytes(capsys):
    argv = ["--base", "2", "--depth", "9", "counterexample", "sweep", "--phi", "log", "--p", "0.5", "--kmax", "3"]
    assert _stdout(capsys, argv) == (
        "k,probe_indices,hardy_norm,numerator,ratio,analytic_lower_bound,trend_flag\n"
        "1,5,0.25,0.048885602325656703,0.19554240930262681,0.45511961331341866,increasing\n"
        "2,17;20,0.0625,0.018215536475441382,0.29144858360706211,0.57199933500534872,increasing\n"
        "3,65;68;80,0.015625,0.0064265345099106036,0.41129820863427863,0.61730777865160102,increasing\n"
    )


def test_counterexample_sweep_bytes_non_dyadic(capsys):
    # the strong numerator sums level-2s syntheses of the probe weights over complex characters
    argv = ["--base", "2,3", "--depth", "7", "counterexample", "sweep", "--phi", "log", "--p", "0.5", "--kmax", "3"]
    assert _stdout(capsys, argv) == (
        "k,probe_indices,hardy_norm,numerator,ratio,analytic_lower_bound,trend_flag\n"
        "1,7,0.16666666666666663,0.026495776692175638,0.15897466015305386,0.38987124525128009,increasing\n"
        "2,37;42,0.027777777777777776,0.0081295760859745048,0.29266473909508217,0.4661505434170185,increasing\n"
        "3,217;222;252,0.0046296296296296294,0.0020243429809284922,0.43725808388055437,0.49417387711577476,increasing\n"
    )


_DYADIC_CORPUS = ["--base", "2", "--depth", "6", "--seed", "1", "atoms", "corpus", "--count", "2", "--p", "0.5"]
_MIXED_CORPUS = ["--base", "2,3", "--depth", "6", "--seed", "3", "atoms", "corpus", "--count", "3", "--p", "0.3"]
_MIXED_HALF_CORPUS = ["--base", "2,3", "--depth", "6", "--seed", "7", "atoms", "corpus", "--count", "3", "--p", "0.5"]


@pytest.mark.parametrize(
    "corpus_argv, flags, rows",
    [
        (
            _DYADIC_CORPUS,
            ["--op", "riesz", "--weight", "log", "--p", "0.5"],
            "0,2,0.80587897295701416,0.32506517248282829,0.26826446409350835\n"
            "1,3,0.53347277394194281,0.41095140653295043,0.26056816493575941\n",
        ),
        (
            _DYADIC_CORPUS,
            ["--op", "sigma", "--p", "0.5"],
            "0,2,0.80587897295701416,2.578159849958948,0.81138923394276607\n"
            "1,3,0.53347277394194281,3.5762484644134656,0.70304004277386956\n",
        ),
        (
            _DYADIC_CORPUS,
            ["--op", "riesz", "--weight", "unit", "--p", "0.5"],  # riesz_star, the unweighted operator
            "0,2,0.80587897295701416,1.0783072115062362,0.54809963886792445\n"
            "1,3,0.53347277394194281,1.3297202618499646,0.40946454617343636\n",
        ),
        (
            _MIXED_CORPUS,
            ["--op", "riesz", "--weight", "power_log", "--p", "0.3"],
            "0,4,0.52512824545507941,2.8328174327905851,0.77092785924662066\n"
            "1,1,0.53718042602915317,0.13890011297746779,0.46088534538048859\n"
            "2,3,0.65218659831269832,1.2760134907500666,0.71785059534836604\n",
        ),
        (
            _MIXED_HALF_CORPUS,
            ["--op", "riesz", "--weight", "log", "--p", "0.5"],
            "0,4,0.64879864618590721,0.36421066958705445,0.20088744910838416\n"
            "1,3,0.67276182065015078,0.60567418104420401,0.32070061403182543\n"
            "2,4,0.69338893951721858,0.35755059924603183,0.19223822276007074\n",
        ),
        (
            _MIXED_HALF_CORPUS,
            ["--op", "sigma", "--p", "0.5"],
            "0,4,0.64879864618590721,6.1921621274268057,0.78530371312812652\n"
            "1,3,0.67276182065015078,6.0791339573014866,0.94629004749761048\n"
            "2,4,0.69338893951721858,6.6469366076958289,0.80530995755248191\n",
        ),
    ],
    ids=["riesz-log", "sigma", "riesz-unit", "riesz-power-log-mixed-base", "riesz-log-mixed-base", "sigma-mixed-base"],
)
def test_maximal_table_bytes(tmp_path, capsys, corpus_argv, flags, rows):
    corpus = tmp_path / "corpus.json"
    assert main(["--out", str(corpus), *corpus_argv]) == 0
    table = _stdout(capsys, ["maximal", "table", *flags, "--input", str(corpus)])
    assert table == "atom,support_level,hardy_norm,strong_ratio,weak_ratio\n" + rows


@pytest.mark.parametrize("count", ["0", "1"])
def test_atoms_corpus_refuses_an_empty_capped_range_at_any_count(tmp_path, capsys, count):
    # the descriptor is checked without drawing, so a corpus of no atoms is refused alike
    out = tmp_path / "corpus.json"
    argv = ["--depth", "10", "--seed", "1", "--out", str(out), "atoms", "corpus", "--count", count, "--p", "0.5"]
    code, err = _refusal(capsys, argv + ["--level-min", "9", "--level-max", "9"])
    assert code == 2
    assert err == (
        "error: support-level range [9, 9] is empty once capped at depth - extra_depth = 8 (depth 10, extra depth 2)\n"
    )
    assert not out.exists()


@pytest.mark.parametrize(
    "nmax, message",
    [("0", "n_max must be >= 1, got 0"), ("65", "index 65 not resolvable at level 6 (max 64)")],
    ids=["below-one", "past-the-level"],
)
def test_maximal_table_refuses_an_nmax_outside_the_level(tmp_path, capsys, nmax, message):
    corpus = tmp_path / "corpus.json"
    corpus.write_text(json.dumps(_DESCRIPTOR))
    argv = ["maximal", "table", "--op", "riesz", "--p", "0.5", "--nmax", nmax, "--input", str(corpus)]
    code, err = _refusal(capsys, argv)
    assert code == 2
    assert err == f"error: {message}\n"


@pytest.mark.parametrize(
    "nmax, message",
    [("0", "n_max must be >= 1, got 0"), ("65", "index 65 not resolvable at level 6 (max 64)")],
    ids=["below-one", "past-the-level"],
)
def test_maximal_table_refuses_an_nmax_outside_the_level_of_an_empty_corpus(tmp_path, capsys, nmax, message):
    # no atom is drawn, so the table checks --nmax against the corpus depth itself
    corpus = tmp_path / "corpus.json"
    corpus.write_text(json.dumps({**_DESCRIPTOR, "count": 0}))
    argv = ["maximal", "table", "--op", "riesz", "--p", "0.5", "--nmax", nmax, "--input", str(corpus)]
    code, err = _refusal(capsys, argv)
    assert code == 2
    assert err == f"error: {message}\n"


def test_maximal_table_json_echoes_the_corpus(tmp_path, capsys):
    # the table reads its base, depth and seed from --input, so the echo shows the corpus's
    corpus = tmp_path / "corpus.json"
    argv = ["--base", "2,3", "--depth", "7", "--seed", "3", "--out", str(corpus), "atoms", "corpus", "--count", "7"]
    assert main(argv + ["--p", "0.5"]) == 0
    argv = ["--format", "json", "maximal", "table", "--op", "sigma", "--p", "0.5", "--input", str(corpus)]
    payload = json.loads(_stdout(capsys, argv))
    assert payload["config"] == {"depth": 7, "format": "json", "moduli": [2, 3], "seed": 3}
    assert len(payload["rows"]) == 7


@pytest.mark.parametrize(
    "flags",
    [["--base", "5"], ["--depth", "2"], ["--seed", "3"], ["--config", "base.json"]],
    ids=["base", "depth", "seed", "config"],
)
def test_maximal_table_refuses_a_base_flag_its_corpus_overrides(tmp_path, capsys, flags):
    corpus = tmp_path / "corpus.json"
    corpus.write_text(json.dumps(_DESCRIPTOR))
    argv = [*flags, "maximal", "table", "--op", "sigma", "--p", "0.5", "--input", str(corpus)]
    code, err = _refusal(capsys, argv)
    assert code == 2
    assert err == f"error: maximal table takes no {flags[0]}\n"


@pytest.mark.parametrize(
    "argv",
    [
        ["counterexample", "sweep", "--phi", "power_log_sq", "--p", "0.5", "--kmax", "3"],
        ["maximal", "table", "--op", "riesz", "--weight", "power_log_sq", "--p", "0.5", "--nmax", "5"],
    ],
    ids=["sweep", "table"],
)
def test_every_weight_reader_refuses_a_phi_below_one(tmp_path, capsys, argv):
    # log(n+1)^2 is 0.48 at n = 1: the phi >= 1 hypothesis fails on [1, 5] for the sweep's first probe too
    corpus = tmp_path / "corpus.json"
    corpus.write_text(json.dumps(_DESCRIPTOR))
    extra = ["--input", str(corpus)] if "maximal" in argv else []
    code, err = _refusal(capsys, argv + extra)
    assert code == 2
    assert err == "error: weight dips below 1 on [1, 5] (min 0.480453)\n"


def _dump_payload(header, rows, moduli, depth=2, seed=None):
    """The bytes of a JSON dump: sorted keys, indent 2, a config echo, LF at the end."""
    config = {"depth": depth, "format": "json", "moduli": moduli, "seed": seed}
    return json.dumps({"config": config, "header": header, "rows": rows}, indent=2, sort_keys=True) + "\n"


def test_kernel_dump_json_bytes(capsys):
    """Kernel dumps keep JSON numbers, written as repr floats."""
    argv = ["--base", "2,3", "--depth", "2", "--format", "json", "kernel", "dump", "--which", "riesz", "--n", "4"]
    rows = [
        [0, 1.9199999999999997, 0.0],
        [1, 1.32, 0.3464101615137753],
        [2, 1.3199999999999998, -0.3464101615137752],
        [3, 0.6400000000000001, 0.0],
        [4, 0.40000000000000013, 0.13856406460551024],
        [5, 0.4000000000000001, -0.13856406460551018],
    ]
    assert _stdout(capsys, argv) == _dump_payload(["rank", "real", "imag"], rows, [2, 3])


def test_spectrum_dump_json_bytes(capsys):
    """Spectrum dumps keep the .17g strings of the CSV cells."""
    argv = ["--base", "2", "--depth", "2", "--format", "json", "spectrum", "dump", "--which", "riesz", "--n", "3"]
    rows = [
        [0, "1", "0"],
        [1, "0.45454545454545453", "0"],
        [2, "0.18181818181818166", "0"],
        [3, "-5.5511151231257827e-17", "0"],
    ]
    assert _stdout(capsys, argv) == _dump_payload(["index", "real", "imag"], rows, [2])


# n in the top 1/64 of the index range on each base: M = 4096 and M = 2592
_TOP_DUMP_ARGV = {"2": ["--base", "2", "--depth", "12"], "2,3": ["--base", "2,3", "--depth", "9"]}
_TOP_DUMP_N = {"2": 4050, "2,3": 2570}
_TOP_DUMP_SHA256 = {
    ("kernel", "2", "dirichlet", "csv"): "a2e2d3c3198d90346e20ea41f06530da45c6b8b2e8b51a0353d70f0e742e4d95",
    ("kernel", "2", "dirichlet", "json"): "f91b57f1b9fec5b52925169f79601d0f45361fc29bc05a61234b7ce75adb947f",
    ("kernel", "2", "fejer", "csv"): "dd1c683f30bb8c4e189538d24bc2b77e2afc101d0a6512860cf2e78d0c32506d",
    ("kernel", "2", "fejer", "json"): "82b0d324cb37a90894ddb8f5d77639a5b341ae0534a3e35dfa0e097d63d59503",
    ("kernel", "2", "riesz", "csv"): "1a7ed64aba87b4a010c6dc73ae696bfca8ff80bcb4cb4d3bcaf66bbb16055671",
    ("kernel", "2", "riesz", "json"): "2c46cd24cd0449f80a8414f113b35a8e5e62622543a3fd968dc368ee2b673a9c",
    ("kernel", "2,3", "dirichlet", "csv"): "52363433743cdab20fa4f8df097bfb9d1bfdb10fc965d84ad70046ce50868e53",
    ("kernel", "2,3", "dirichlet", "json"): "919c9bb46f0fcba2176a6303941e9bc6918bc9e7adff7fc0ccd5c74bce2b459e",
    ("kernel", "2,3", "fejer", "csv"): "e764f63d0ccbdbe8ce93490d6120c657cb8dbebd1692442067c6e048da5aa673",
    ("kernel", "2,3", "fejer", "json"): "ea84ebe2e3318593874561ff995f7acdf49a7af83abaf670519d5c7ce43c8d2b",
    ("kernel", "2,3", "riesz", "csv"): "5d99d92651427bb8dabf49be30f607ff8550a3597f7b16ea53576b730a30d956",
    ("kernel", "2,3", "riesz", "json"): "604208880a90c623905bf1bdd2fbbff35bf508555de8f67f0b65858f8ce7a1c7",
    ("spectrum", "2", "dirichlet", "csv"): "0d0837ffcd6b7ac7ff02ca268b7ed9ffa9cd0fa556df37d601e3f089bf3a7f89",
    ("spectrum", "2", "dirichlet", "json"): "f41f165f01f80c57ea307ea7d36ee3fa956e1fa03130d7fa98db5564c7ce4fc4",
    ("spectrum", "2", "fejer", "csv"): "7f72172919c678221cb993e4aedad81749bc0479d94f6310a248cccc4d59650d",
    ("spectrum", "2", "fejer", "json"): "c1eb7e6477f7561b6b539e537f9519f57a2cf3d62097fc94bad1115a84c24c86",
    ("spectrum", "2", "riesz", "csv"): "7a7dd5e8b5011eb9565977a749615f117cb3484d6a094f069507348cc0b9a9a0",
    ("spectrum", "2", "riesz", "json"): "3ca4e61f84632999032e7202918627e6b09d5b5a56be466c8ef2ff3975e1c480",
    ("spectrum", "2,3", "dirichlet", "csv"): "438ee183d3c09b1c812021937ea692d19b98410fabf6a4fbc74dc0c7175ee6b8",
    ("spectrum", "2,3", "dirichlet", "json"): "0db55d9db4d2b06dbad73ff7cfac2c56b239fba3cdbf31b2e2616d89ac703e41",
    ("spectrum", "2,3", "fejer", "csv"): "baaf1ee487c07cf2094afd79261356213450e79b5981f3c43abca7718a540711",
    ("spectrum", "2,3", "fejer", "json"): "d1172975472ef2ca8a46485f1a963d1d94b99c5fee34784afee89179d6ba4390",
    ("spectrum", "2,3", "riesz", "csv"): "070647d66bf27b1f1547a0ae580b04a5d7fdac49c282716b9aee4aa5f6297729",
    ("spectrum", "2,3", "riesz", "json"): "39d21903f743980a5891bc1318c7783fd8292b2d1965404b0acea8d326c57b1b",
}


@pytest.mark.parametrize("key", sorted(_TOP_DUMP_SHA256), ids="-".join)
def test_dump_bytes_near_the_top_of_the_range(capsys, key):
    """SHA-256 of kernel and spectrum dumps in CSV and JSON, pinned from the Paley-order route."""
    command, moduli, which, fmt = key
    argv = _TOP_DUMP_ARGV[moduli] + ["--format", fmt, command, "dump", "--which", which, "--n", str(_TOP_DUMP_N[moduli])]
    assert hashlib.sha256(_stdout(capsys, argv).encode()).hexdigest() == _TOP_DUMP_SHA256[key]


def test_counterexample_sweep_weak_type_bytes(capsys):
    # p != 1/2 takes the weak threshold expression at the first probe
    argv = ["--base", "2", "--depth", "9", "counterexample", "sweep", "--phi", "log", "--p", "0.3", "--kmax", "3"]
    assert _stdout(capsys, argv) == (
        "k,probe_indices,hardy_norm,numerator,ratio,analytic_lower_bound,trend_flag\n"
        "1,5,0.039372532809214773,0.048885602325656696,1.2416169049255443,2.9648728280046983,increasing\n"
        "2,17;20,0.0015501963398126938,0.0059169163290832437,3.8168818859410862,5.3378403242115349,increasing\n"
        "3,65;68;80,6.1035156249999973e-05,0.00077155619147890419,12.641176641190372,14.943311034854197,increasing\n"
    )


def test_counterexample_sweep_weak_type_bytes_non_dyadic(capsys):
    # a weak row on complex characters: its numerator is the s = 0 probe, the threshold lambda
    argv = ["--base", "2,3", "--depth", "9", "counterexample", "sweep", "--phi", "power_log", "--p", "0.3", "--kmax", "4"]
    assert _stdout(capsys, argv) == (
        "k,probe_indices,hardy_norm,numerator,ratio,analytic_lower_bound,trend_flag\n"
        "1,7,0.015286700226364008,0.0071606113694209217,0.46842099755913752,0.89433728441737914,flat-or-bounded\n"
        "2,37;42,0.00023368320381071735,0.00018315558045897345,0.78377725686835797,0.9721945371069276,flat-or-bounded\n"
        "3,217;222;252,3.5722450845907618e-06,3.1735080122964895e-06,0.88837913893023057,0.99473785896029432,"
        "flat-or-bounded\n"
        "4,1297;1302;1332;1512,5.4607839743241295e-08,5.0398290054209168e-08,0.92291308887469525,0.99908032431728189,"
        "flat-or-bounded\n"
    )


def test_maximal_table_json_bytes(tmp_path, capsys):
    """A JSON table with int and string columns: the corpus of test_maximal_table_bytes."""
    corpus = tmp_path / "corpus.json"
    argv = ["--base", "2", "--depth", "6", "--seed", "1", "--out", str(corpus), "atoms", "corpus", "--count", "2"]
    assert main(argv + ["--p", "0.5"]) == 0
    argv = ["--format", "json", "maximal", "table", "--op", "riesz", "--weight", "log", "--p", "0.5"]
    rows = [
        [0, 2, "0.80587897295701416", "0.32506517248282829", "0.26826446409350835"],
        [1, 3, "0.53347277394194281", "0.41095140653295043", "0.26056816493575941"],
    ]
    header = ["atom", "support_level", "hardy_norm", "strong_ratio", "weak_ratio"]
    assert _stdout(capsys, argv + ["--input", str(corpus)]) == _dump_payload(header, rows, [2], depth=6, seed=1)


def test_counterexample_sweep_json_bytes(capsys):
    argv = ["--base", "2", "--depth", "9", "--format", "json", "counterexample", "sweep", "--phi", "log"]
    rows = [
        [1, "5", "0.039372532809214773", "0.048885602325656696", "1.2416169049255443", "2.9648728280046983"],
        [2, "17;20", "0.0015501963398126938", "0.0059169163290832437", "3.8168818859410862", "5.3378403242115349"],
        [3, "65;68;80", "6.1035156249999973e-05", "0.00077155619147890419", "12.641176641190372", "14.943311034854197"],
    ]
    header = ["k", "probe_indices", "hardy_norm", "numerator", "ratio", "analytic_lower_bound", "trend_flag"]
    want = _dump_payload(header, [row + ["increasing"] for row in rows], [2], depth=9)
    assert _stdout(capsys, argv + ["--p", "0.3", "--kmax", "3"]) == want


_INT_CELLS = st.one_of(st.integers(), st.integers(min_value=2**63, max_value=2**80), st.integers(max_value=-(2**63)))
_FLOAT_CELLS = st.one_of(
    st.floats(allow_nan=True, allow_infinity=True),
    st.sampled_from([math.nan, math.inf, -math.inf, -0.0, 5e-324, 1e300]),
)
# the str cells the commands emit: probe indices and trend flags, and any other token of cli._TOKEN
_TOKENS = st.one_of(
    st.from_regex(cli._TOKEN, fullmatch=True),
    st.sampled_from(["5", "17;20", "65;68;80", "increasing", "flat-or-bounded", "-", ";", "."]),
)
# the cell kinds of a table: a plain float column is JSON only, a CSV float column is .17g
_CELLS = {"float": _FLOAT_CELLS, "g17": _FLOAT_CELLS, "int": _INT_CELLS, "str": _TOKENS}


@st.composite
def _tables(draw):
    kinds = draw(st.lists(st.sampled_from(sorted(_CELLS)), min_size=1, max_size=4))
    count = draw(st.sampled_from([0, 1, 5]))
    header = draw(st.lists(_TOKENS, min_size=len(kinds), max_size=len(kinds)))
    return header, kinds, [draw(st.lists(_CELLS[kind], min_size=count, max_size=count)) for kind in kinds]


def _emitted(header, columns, fmt):
    buf = io.StringIO()
    with contextlib.redirect_stdout(buf):
        cli._emit_rows(header, columns, cli.RunConfig((2, 3), 4, 7, None, fmt))
    return buf.getvalue()


@settings(max_examples=150, deadline=None, derandomize=True)
@given(_tables())
def test_emit_rows_matches_the_stdlib_writers(table):
    """Both table formats against the stdlib encoders they must equal byte for byte, over the cell
    kinds the commands emit: token str, int and .17g floats, and plain floats in JSON.  The CSV table
    is the JSON one without its plain float columns."""
    header, kinds, columns = table
    # a .17g column is marked for the writer, and its oracle cells are its format(x, ".17g") text
    marked = [cli._G17(column) if kind == "g17" else column for kind, column in zip(kinds, columns)]
    spelled = [[format(x, ".17g") for x in column] if kind == "g17" else column for kind, column in zip(kinds, columns)]
    config = {"depth": 4, "format": "json", "moduli": [2, 3], "seed": 7}
    rows = [list(row) for row in zip(*spelled)]
    want = json.dumps({"config": config, "header": header, "rows": rows}, indent=2, sort_keys=True) + "\n"
    for block_rows in (1, 2, cli._BLOCK_ROWS):  # block boundaries inside the table, and none
        with mock.patch.object(cli, "_BLOCK_ROWS", block_rows):
            assert _emitted(header, marked, "json") == want
    keep = [j for j, kind in enumerate(kinds) if kind != "float"]
    csv_header = [header[j] for j in keep]
    csv_rows = [[row[j] for j in keep] for row in rows] if keep else []
    want = "".join(map(_stdlib_csv_row, [csv_header, *csv_rows]))
    assert _emitted(csv_header, [marked[j] for j in keep], "csv") == want


def _stdlib_csv_row(row):
    """csv.writer's line for ``row``."""
    buf = io.StringIO()
    csv.writer(buf, lineterminator="\n").writerow(row)
    return buf.getvalue()


_G17_SPECIALS = [math.nan, math.inf, -math.inf, -0.0, 5e-324, 1e300]


@st.composite
def _g17_tables(draw):
    """An index column and one to three .17g float columns of 0, 1, 511, 512 or 513 rows.  The cells
    are picked from the special floats and a few drawn ones: 513 drawn floats a column would outgrow
    hypothesis's example buffer."""
    count = draw(st.sampled_from([0, 1, 511, 512, 513]))
    pool = _G17_SPECIALS + draw(st.lists(st.floats(allow_nan=True, allow_infinity=True), max_size=8))
    pick = draw(st.randoms(use_true_random=False))
    width = draw(st.integers(min_value=1, max_value=3))
    header = ["index", *(f"v{j}" for j in range(width))]
    return header, [list(range(count)), *([pick.choice(pool) for _ in range(count)] for _ in range(width))]


@settings(max_examples=30, deadline=None, derandomize=True)
@given(_g17_tables())
def test_emit_rows_spells_g17_columns_as_the_stdlib_writers_spell_their_text(table):
    """A float column marked .17g against csv.writer and json.dumps over its format(x, ".17g") text,
    with block boundaries inside the table, on its edges, and none."""
    header, (index, *values) = table
    rows = [list(row) for row in zip(index, *([format(x, ".17g") for x in column] for column in values))]
    config = {"depth": 4, "format": "json", "moduli": [2, 3], "seed": 7}
    want_json = json.dumps({"config": config, "header": header, "rows": rows}, indent=2, sort_keys=True) + "\n"
    buf = io.StringIO()
    writer = csv.writer(buf, lineterminator="\n")
    writer.writerow(header)
    writer.writerows(rows)
    columns = [index, *map(cli._G17, values)]
    for block_rows in (1, 2, cli._BLOCK_ROWS):
        with mock.patch.object(cli, "_BLOCK_ROWS", block_rows):
            assert _emitted(header, columns, "json") == want_json
            assert _emitted(header, columns, "csv") == buf.getvalue()


@pytest.mark.parametrize(
    "column",
    [[None], [1, None], [True], [0.5, False], ["a", None], [1, 2.0], [np.float64(0.5)]],
    ids=["none", "int-none", "bool", "float-bool", "str-none", "int-float", "numpy-float"],
)
def test_json_table_refuses_a_cell_of_another_type(column):
    # json.dumps would write null, true, a mixed column or a float subclass; a cell is an int, float or str
    with pytest.raises(TypeError, match=r"^table column 'c' holds .*: a cell is an int, float or str$"):
        _emitted(["c"], [column], "json")


@pytest.mark.parametrize("fmt", ["csv", "json"])
def test_a_g17_column_holds_only_floats(fmt):
    with pytest.raises(TypeError, match=r"^table column 'c' holds int: a cell is a float$"):
        _emitted(["c"], [cli._G17([1, 2])], fmt)


@pytest.mark.parametrize("fmt", ["csv", "json"])
@pytest.mark.parametrize(
    "cell", [",", "", "a b", "\u00e9", '"'], ids=["comma", "empty", "space", "non-ascii", "quote"]
)
def test_a_table_refuses_a_str_cell_that_is_not_a_token(tmp_path, cell, fmt):
    # none of these is a token; the writer spells no CSV quoting and no JSON escape, so it refuses them
    out = tmp_path / f"table.{fmt}"
    with pytest.raises(TypeError, match=r"^table column 'c' holds a str cell that is not a token of "):
        cli._emit_rows(["k", "c"], [[0, 1], ["5", cell]], cli.RunConfig((2,), 3, None, str(out), fmt))
    assert not out.exists()


def test_a_csv_table_refuses_a_plain_float_column(tmp_path):
    out = tmp_path / "table.csv"
    with pytest.raises(TypeError, match=r"^table column 'c' holds plain floats: a CSV float column is marked _G17$"):
        cli._emit_rows(["k", "c"], [[0, 1], [0.5, 0.25]], cli.RunConfig((2,), 3, None, str(out), "csv"))
    assert not out.exists()


def test_verify_identities_lines(capsys):
    assert _stdout(capsys, ["verify", "identities"]) == (
        "[PASS] identities/riesz-mean-abel-identity residual=1.617045171136091e-15\n"
        "[PASS] identities/riesz-kernel-abel-identity residual=1.4210854715202004e-13\n"
        "[PASS] identities/partial-sum-case-values\n"
        "[PASS] identities/dirichlet-shift-identity residual=2.6645352591003757e-15\n"
        "[PASS] identities/modulus-sum-identity-at-probes residual=3.0531133177191805e-16\n"
    )


def test_verify_atoms_lines_and_out_bytes(tmp_path, capsys):
    out = tmp_path / "report.json"
    assert _stdout(capsys, ["--seed", "1", "--out", str(out), "verify", "atoms", "--count", "2"]) == (
        "[PASS] atoms/atom-validity invalid_indices=[]\n"
        "[PASS] atoms/assembled-martingale-budget empirical_constant=0.39980714797876782\n"
        "[PASS] atoms/weighted-riesz-complement-mass corpus_max=0.2963000532782652\n"
    )
    checks = [
        {"detail": {"invalid_indices": []}, "name": "atom-validity", "passed": True},
        {"detail": {"empirical_constant": 0.3998071479787678}, "name": "assembled-martingale-budget", "passed": True},
        {"detail": {"corpus_max": 0.2963000532782652}, "name": "weighted-riesz-complement-mass", "passed": True},
    ]
    config = {"depth": 10, "format": "csv", "moduli": [2], "seed": 1}
    payload = {"checks": checks, "config": config, "passed": True, "suite": "atoms"}
    assert out.read_bytes() == (json.dumps(payload, indent=2, sort_keys=True) + "\n").encode()


def _report_bytes(suite, checks):
    """The bytes of a verify report on the default base (2,) x 10: sorted keys, indent 2, LF at the end."""
    config = {"depth": 10, "format": "csv", "moduli": [2], "seed": None}
    report = {"checks": checks, "config": config, "passed": True, "suite": suite}
    return json.dumps(report, indent=2, sort_keys=True) + "\n"


def test_verify_lemmas_bytes(tmp_path, capsys):
    """Both localization levels from one blocked kernel stream: the lines and the report."""
    out = tmp_path / "lemmas.json"
    assert _stdout(capsys, ["verify", "lemmas", "--max-a", "2", "--out", str(out)]) == (
        "[PASS] lemmas/localization-ratios-level-1 kernel_single_c_emp=0.5 kernel_single_top_octave_growth=0 "
        "tail_single_c_emp=0.099974994303309708 tail_single_top_octave_growth=0\n"
        "[PASS] lemmas/localization-ratios-level-2 kernel_pair_c_emp=0.50000000000000022 "
        "kernel_pair_top_octave_growth=0 kernel_single_c_emp=0.5 kernel_single_top_octave_growth=0 "
        "tail_pair_c_emp=0.23721885285111563 tail_pair_top_octave_growth=0.0010302387150888936 "
        "tail_single_c_emp=0.098952104095662574 tail_single_top_octave_growth=0\n"
    )
    level_1 = {
        "kernel_single_c_emp": 0.5,
        "kernel_single_top_octave_growth": 0.0,
        "tail_single_c_emp": 0.09997499430330971,
        "tail_single_top_octave_growth": 0.0,
    }
    level_2 = {
        "kernel_pair_c_emp": 0.5000000000000002,
        "kernel_pair_top_octave_growth": 0.0,
        "kernel_single_c_emp": 0.5,
        "kernel_single_top_octave_growth": 0.0,
        "tail_pair_c_emp": 0.23721885285111563,
        "tail_pair_top_octave_growth": 0.0010302387150888936,
        "tail_single_c_emp": 0.09895210409566257,
        "tail_single_top_octave_growth": 0.0,
    }
    checks = [
        {"detail": level_1, "name": "localization-ratios-level-1", "passed": True},
        {"detail": level_2, "name": "localization-ratios-level-2", "passed": True},
    ]
    assert out.read_text(encoding="utf-8") == _report_bytes("lemmas", checks)


def test_verify_kernels_bytes(tmp_path, capsys):
    """The blocked kernel-integral sweep beside the closed forms: the lines and the report."""
    out = tmp_path / "kernels.json"
    assert _stdout(capsys, ["verify", "kernels", "--max-a", "4", "--out", str(out)]) == (
        "[PASS] kernels/dirichlet-block-closed-form residual=1.1516411451852021e-13\n"
        "[PASS] kernels/dyadic-fejer-closed-form residual=0 max_exponent=4\n"
        "[PASS] kernels/convention-gap-is-dirichlet-over-n residual=7.4384942649885488e-15\n"
        "[PASS] kernels/kernel-integral-running-max growth_top_octaves=0.0014266203444648351 "
        "running_max=1.1326332846840659\n"
    )
    checks = [
        {"detail": {"residual": 1.151641145185202e-13}, "name": "dirichlet-block-closed-form", "passed": True},
        {"detail": {"max_exponent": 4, "residual": 0.0}, "name": "dyadic-fejer-closed-form", "passed": True},
        {"detail": {"residual": 7.438494264988549e-15}, "name": "convention-gap-is-dirichlet-over-n", "passed": True},
        {
            "detail": {"growth_top_octaves": 0.001426620344464835, "running_max": 1.1326332846840659},
            "name": "kernel-integral-running-max",
            "passed": True,
        },
    ]
    assert out.read_text(encoding="utf-8") == _report_bytes("kernels", checks)
