"""The `argtree` command line: every subcommand plus exit-code contracts."""

from __future__ import annotations

import csv
import json
import os
import re
import stat
import subprocess
import sys

import pytest

import argtree
import argtree.cli
from argtree.cli import main
from argtree.corpus_io import parse_corpus_file
from argtree.features import read_features_file
from argtree.models import (
    EncoderConfig,
    load_model,
    neural_train_config,
    save_model,
    train_neural,
)
from argtree.pairs import read_pairs_file, read_split_file

SYNTH_CONFIG = """\
# miniature corpus for pipeline tests
topic_count = 8
branch_min = 2
branch_max = 2
depth_min = 3
depth_max = 3
stance_marker_p = 0.9
root_len_min = 9
root_len_max = 11
min_claim_tokens = 6
seed = 5
"""

TRAIN_CONFIG = """\
learning_rate = 0.1
batch_size = 32
max_epochs = 2
patience = 0
dim = 16
hidden = 8
min_count = 1
"""

OUTLINE = """\
1. School uniforms should be mandatory.
1.1. Pro: Uniforms reduce visible wealth gaps.
1.2. Con: Uniforms restrict self-expression.
1.2.1. Pro: Dress codes already limit choices.
"""


@pytest.fixture(scope="module")
def pipeline(tmp_path_factory):
    """Run the whole chain once; individual tests inspect its artifacts."""
    root = tmp_path_factory.mktemp("pipeline")
    paths = {
        "config": root / "synth.conf",
        "train_config": root / "train.conf",
        "corpus": root / "corpus.jsonl",
        "ledger": root / "ledger.jsonl",
        "split": root / "split.json",
        "specificity_pairs": root / "specificity-pairs.jsonl",
        "stance_pairs": root / "stance-pairs.jsonl",
        "stance_test": root / "stance-test.jsonl",
        "vocab": root / "vocab.txt",
        "specificity_features": root / "specificity-features.jsonl",
        "majority_ckpt": root / "majority.ckpt",
        "length_ckpt": root / "length.ckpt",
        "logreg_ckpt": root / "logreg.ckpt",
        "pair_ckpt": root / "pair.ckpt",
        "majority_csv": root / "majority.csv",
        "pair_csv": root / "pair.csv",
        "pair_json": root / "pair.json",
        "wide_csv": root / "wide.csv",
    }
    paths["config"].write_text(SYNTH_CONFIG, encoding="utf-8")
    paths["train_config"].write_text(TRAIN_CONFIG, encoding="utf-8")

    def run(*argv):
        code = main([str(a) for a in argv])
        assert code == 0, f"argtree {argv[0]} exited {code}"

    run("synth", "--config", paths["config"], "-o", paths["corpus"], "--ledger", paths["ledger"])
    run("validate", paths["corpus"])
    run("split", paths["corpus"], "--ratios", "0.5,0.25,0.25", "--seed", "3", "-o", paths["split"])
    run(
        "derive-pairs", paths["corpus"], "--task", "specificity", "--seed", "3",
        "-o", paths["specificity_pairs"],
    )
    run(
        "derive-pairs", paths["corpus"], "--task", "stance",
        "--split", paths["split"], "--part", "train", "-o", paths["stance_pairs"],
    )
    run(
        "derive-pairs", paths["corpus"], "--task", "stance",
        "--split", paths["split"], "--part", "test", "-o", paths["stance_test"],
    )
    run(
        "featurize", paths["specificity_pairs"], "--task", "specificity",
        "--vocab", paths["vocab"], "-o", paths["specificity_features"],
    )
    run(
        "train", "--model", "majority", "--task", "stance",
        "--train", paths["stance_pairs"], "-o", paths["majority_ckpt"],
    )
    run(
        "train", "--model", "length", "--task", "specificity",
        "--train", paths["specificity_pairs"], "-o", paths["length_ckpt"],
    )
    run(
        "train", "--model", "logreg", "--task", "specificity", "--seed", "3",
        "--train", paths["specificity_features"], "-o", paths["logreg_ckpt"],
    )
    run(
        "train", "--model", "pair", "--task", "stance", "--seed", "3",
        "--config", paths["train_config"],
        "--train", paths["stance_pairs"], "--dev", paths["stance_test"],
        "-o", paths["pair_ckpt"],
    )
    run(
        "evaluate", "--model", paths["majority_ckpt"], "--test", paths["stance_test"],
        "--name", "majority", "-o", paths["majority_csv"],
    )
    run(
        "evaluate", "--model", paths["pair_ckpt"], "--test", paths["stance_test"],
        "--name", "pair", "--json", paths["pair_json"], "-o", paths["pair_csv"],
    )
    run("report", paths["majority_csv"], paths["pair_csv"], "-o", paths["wide_csv"])
    run(
        "significance", "--model-a", paths["majority_ckpt"], "--model-b", paths["pair_ckpt"],
        "--test", paths["stance_test"],
    )
    return paths


def test_synth_writes_valid_corpus_and_ledger(pipeline):
    trees = parse_corpus_file(str(pipeline["corpus"]))
    assert len(trees) == 8
    assert all(len(tree.nodes) == 15 for tree in trees)
    lines = pipeline["ledger"].read_text(encoding="utf-8").splitlines()
    records = [json.loads(line) for line in lines]
    assert records[0]["record"] == "config"
    assert records[-1]["record"] == "total"
    assert records[-1]["nodes"] == 8 * 15


def test_synth_is_byte_deterministic(pipeline, tmp_path):
    out = tmp_path / "again.jsonl"
    ledger = tmp_path / "again-ledger.jsonl"
    assert main(["synth", "--config", str(pipeline["config"]), "-o", str(out), "--ledger", str(ledger)]) == 0
    assert out.read_bytes() == pipeline["corpus"].read_bytes()
    assert ledger.read_bytes() == pipeline["ledger"].read_bytes()


def test_stats_prints_summary(pipeline, capsys):
    assert main(["stats", str(pipeline["corpus"])]) == 0
    out = capsys.readouterr().out
    assert out.startswith("topics: 8\n")
    assert "claims: 120" in out


def test_stats_per_tree_and_file_output(pipeline, tmp_path, capsys):
    out_file = tmp_path / "stats.txt"
    assert main(["stats", str(pipeline["corpus"]), "--per-tree", "-o", str(out_file)]) == 0
    lines = capsys.readouterr().out.splitlines()
    assert len(lines) == 8
    assert all("claims=15" in line for line in lines)
    assert out_file.read_text(encoding="utf-8").startswith("topics: 8\n")


def test_import_outline_round_trip(tmp_path):
    outline = tmp_path / "outline.txt"
    outline.write_text(OUTLINE, encoding="utf-8")
    out = tmp_path / "imported.jsonl"
    code = main([
        "import-outline", str(outline), "--topic-id", "uniforms",
        "--tags", "education,policy", "-o", str(out),
    ])
    assert code == 0
    trees = parse_corpus_file(str(out))
    assert len(trees) == 1
    tree = trees[0]
    assert tree.topic_id == "uniforms"
    assert tree.tags == frozenset({"education", "policy"})
    assert len(tree.nodes) == 4
    assert main(["validate", str(out)]) == 0


def test_split_partitions_topics(pipeline):
    split = read_split_file(str(pipeline["split"]))
    all_topics = sorted(split.train | split.dev | split.test)
    trees = parse_corpus_file(str(pipeline["corpus"]))
    assert all_topics == sorted(tree.topic_id for tree in trees)
    assert (len(split.train), len(split.dev), len(split.test)) == (4, 2, 2)


def test_split_seed_determinism(pipeline, tmp_path):
    again = tmp_path / "split.json"
    code = main([
        "split", str(pipeline["corpus"]), "--ratios", "0.5,0.25,0.25",
        "--seed", "3", "-o", str(again),
    ])
    assert code == 0
    assert again.read_bytes() == pipeline["split"].read_bytes()


def test_derived_pairs_respect_split_filter(pipeline):
    split = read_split_file(str(pipeline["split"]))
    examples = read_pairs_file(str(pipeline["stance_pairs"]))
    assert examples
    assert {e.topic_id for e in examples} <= set(split.train)
    test_examples = read_pairs_file(str(pipeline["stance_test"]))
    assert {e.topic_id for e in test_examples} <= set(split.test)


def test_featurize_builds_then_reuses_vocabulary(pipeline, tmp_path):
    vocab_before = pipeline["vocab"].read_bytes()
    out = tmp_path / "features.jsonl"
    code = main([
        "featurize", str(pipeline["specificity_pairs"]), "--task", "specificity",
        "--vocab", str(pipeline["vocab"]), "-o", str(out),
    ])
    assert code == 0
    assert pipeline["vocab"].read_bytes() == vocab_before
    assert out.read_bytes() == pipeline["specificity_features"].read_bytes()
    records = read_features_file(str(out))
    assert records.schema.task == "specificity"
    assert len(records) == len(read_pairs_file(str(pipeline["specificity_pairs"])))


def test_trained_checkpoints_load(pipeline):
    assert load_model(str(pipeline["majority_ckpt"])).task == "stance"
    assert load_model(str(pipeline["length_ckpt"])).task == "specificity"
    logreg = load_model(str(pipeline["logreg_ckpt"]))
    assert logreg.task == "specificity" and logreg.seed == 3
    pair = load_model(str(pipeline["pair_ckpt"]))
    assert pair.kind == "pair" and len(pair.history) == 2


def test_evaluate_csv_shape(pipeline):
    with open(pipeline["pair_csv"], newline="", encoding="utf-8") as handle:
        rows = list(csv.DictReader(handle))
    assert [row["stratum"] for row in rows] == ["all", "d1", "d2", "d3", "same-stance"]
    assert all(row["model"] == "pair" for row in rows)
    total = int(rows[0]["count"])
    assert total == len(read_pairs_file(str(pipeline["stance_test"])))


def test_evaluate_json_report(pipeline):
    raw = json.loads(pipeline["pair_json"].read_text(encoding="utf-8"))
    assert raw["schema"] == "argtree-report/1"
    assert raw["model"] == "pair"
    assert set(raw["strata"]) == {"all", "d1", "d2", "d3", "same-stance"}
    assert raw["per_topic"]


def test_evaluate_strata_filter_zero_fills(pipeline, tmp_path, capsys):
    out = tmp_path / "filtered.csv"
    code = main([
        "evaluate", "--model", str(pipeline["majority_ckpt"]),
        "--test", str(pipeline["stance_test"]),
        "--strata", "all,d1,d9", "-o", str(out),
    ])
    assert code == 0
    with open(out, newline="", encoding="utf-8") as handle:
        rows = {row["stratum"]: row for row in csv.DictReader(handle)}
    assert set(rows) == {"all", "d1", "d9"}
    assert rows["d9"]["count"] == "0"
    assert rows["d9"]["accuracy"] == ""
    assert "n/a" in capsys.readouterr().out


def test_report_merges_models_as_rows(pipeline):
    with open(pipeline["wide_csv"], newline="", encoding="utf-8") as handle:
        rows = list(csv.reader(handle))
    assert rows[0] == ["model", "all", "d1", "d2", "d3", "same-stance"]
    assert [row[0] for row in rows[1:]] == ["majority", "pair"]
    assert all(len(row) == 6 for row in rows)


def _report_input(pipeline, tmp_path, edit):
    """The majority evaluation CSV with its lines passed through edit."""
    lines = pipeline["majority_csv"].read_text(encoding="utf-8").splitlines()
    path = tmp_path / "eval.csv"
    path.write_text("\n".join(edit(lines)) + "\n", encoding="utf-8")
    return path


def _with_field(line, index, value):
    fields = line.split(",")
    fields[index] = value
    return ",".join(fields)


@pytest.mark.parametrize(
    "edit, line_no, reason",
    [
        (lambda lines: [lines[0], "stance,majority", *lines[2:]], 2, "short row: no 'split' field"),
        (
            lambda lines: [lines[0], _with_field(lines[1], 4, "x"), *lines[2:]],
            2,
            "count 'x' or correct",
        ),
        (lambda lines: [*lines, lines[2]], None, "repeated row for model 'majority', stratum"),
        (
            lambda lines: [lines[0], _with_field(_with_field(lines[1], 4, "5"), 5, "9"), *lines[2:]],
            2,
            "correct 9 exceeds count 5",
        ),
        (lambda lines: [lines[0], lines[1] + ",extra", *lines[2:]], 2, "long row: 1 field(s)"),
        (
            lambda lines: [lines[0], _with_field(lines[1], 4, "-3"), *lines[2:]],
            2,
            "negative count -3 or correct",
        ),
    ],
    ids=["short-row", "bad-count", "repeated-row", "correct-over-count", "long-row",
         "negative-count"],
)
def test_bad_report_row_is_one_located_error(pipeline, tmp_path, capsys, edit, line_no, reason):
    path = _report_input(pipeline, tmp_path, edit)
    if line_no is None:
        line_no = len(path.read_text(encoding="utf-8").splitlines())
    out = tmp_path / "wide.csv"
    capsys.readouterr()
    message = _one_located_error(capsys, main(["report", str(path), "-o", str(out)]), path, line_no)
    assert reason in message
    assert not out.exists()


def test_report_csv_without_rows_is_one_file_error(pipeline, tmp_path, capsys):
    path = _report_input(pipeline, tmp_path, lambda lines: lines[:1])
    out = tmp_path / "wide.csv"
    capsys.readouterr()
    code = main(["report", str(pipeline["majority_csv"]), str(path), "-o", str(out)])
    assert _one_file_error(capsys, code, path) == f"error: {path}: no evaluation rows"
    assert not out.exists()


def test_significance_output_shape(pipeline, capsys):
    code = main([
        "significance", "--model-a", str(pipeline["majority_ckpt"]),
        "--model-b", str(pipeline["pair_ckpt"]), "--test", str(pipeline["stance_test"]),
    ])
    assert code == 0
    out = capsys.readouterr().out
    assert out.startswith("model-a: majority")
    assert "significant at alpha=0.05:" in out


def test_significance_alpha_validation(pipeline):
    code = main([
        "significance", "--model-a", str(pipeline["majority_ckpt"]),
        "--model-b", str(pipeline["pair_ckpt"]), "--test", str(pipeline["stance_test"]),
        "--alpha", "1.5",
    ])
    assert code == 2


def test_gradcheck_single_model(capsys):
    assert main(["gradcheck", "--model", "logreg"]) == 0
    out = capsys.readouterr().out
    assert out.startswith("logreg: max rel error")
    assert out.rstrip().endswith("ok")


def test_gradcheck_path_hier_runs_both_fixtures(capsys):
    assert main(["gradcheck", "--model", "path-hier"]) == 0
    lines = capsys.readouterr().out.splitlines()
    assert [line.split(": max rel error")[0] for line in lines] == [
        "path-hier", "path-hier (one-edge paths)"
    ]
    assert all("(tolerance 1e-04, 338 params, worst " in line for line in lines)
    assert all(line.endswith(") ok") for line in lines)


def test_gradcheck_reads_the_seed_from_the_environment(monkeypatch, capsys):
    """gradcheck resolves its seed as the other commands do: --seed, then ARGTREE_SEED, then 0."""
    monkeypatch.delenv("ARGTREE_SEED", raising=False)
    assert main(["gradcheck", "--model", "logreg", "--seed", "3"]) == 0
    flagged = capsys.readouterr().out
    assert "worst weights[0])" in flagged  # seed 0 finds its worst at weights[4]
    monkeypatch.setenv("ARGTREE_SEED", "3")
    assert main(["gradcheck", "--model", "logreg"]) == 0
    assert capsys.readouterr().out == flagged


# ---------------------------------------------------------------------------
# Exit codes and configuration precedence


def test_no_subcommand_is_usage_error():
    assert main([]) == 2


def test_missing_file_exits_one(tmp_path):
    assert main(["validate", str(tmp_path / "absent.jsonl")]) == 1


def test_malformed_corpus_exits_one(tmp_path):
    bad = tmp_path / "bad.jsonl"
    bad.write_text("not json\n", encoding="utf-8")
    assert main(["validate", str(bad)]) == 1


@pytest.mark.parametrize("command", ["validate", "split", "stats"])
def test_repeated_topic_id_is_one_located_error(pipeline, tmp_path, capsys, command):
    first = pipeline["corpus"].read_text(encoding="utf-8").splitlines()[0]
    path = tmp_path / "twice.jsonl"
    path.write_text(f"{first}\n{first}\n", encoding="utf-8")
    topic_id = json.loads(first)["topic_id"]
    capsys.readouterr()
    extra = [] if command == "validate" else ["-o", str(tmp_path / "out")]
    code = main([command, str(path), *extra])
    assert f"duplicate topic_id {topic_id!r} (first on line 1)" in _one_located_error(
        capsys, code, path, 2
    )


def test_corpus_violations_exit_one(tmp_path, capsys):
    bad = tmp_path / "violations.jsonl"
    record = {
        "schema": "argtree/1",
        "topic_id": "t",
        "tags": [],
        "claims": [
            {"id": "c0", "parent": None, "stance": None, "text": "Root?"},
            {"id": "c1", "parent": "c0", "stance": "pro", "text": ""},
        ],
    }
    bad.write_text(json.dumps(record) + "\n", encoding="utf-8")
    assert main(["validate", str(bad)]) == 1
    assert "empty claim text" in capsys.readouterr().out


def _corpus_line(topic, *claims, **fields) -> str:
    """One corpus record: a root claim `c0`, then (id, parent) children."""
    record = {
        "schema": "argtree/1",
        "topic_id": topic,
        "tags": [],
        "claims": [{"id": "c0", "parent": None, "stance": None, "text": "Root?"}]
        + [
            {"id": claim_id, "parent": parent, "stance": "pro", "text": "Yes."}
            for claim_id, parent in claims
        ],
    }
    return json.dumps({**record, **fields})


@pytest.mark.parametrize(
    "fields, reason",
    [
        ({"tags": "abc"}, "tags must be a list of strings, got 'abc'"),
        ({"tags": ["a", 1]}, "tags must be a list of strings, got ['a', 1]"),
        ({"topic_id": 5}, "topic_id must be a string, got 5"),
    ],
)
def test_corpus_field_types_are_one_located_error(tmp_path, capsys, fields, reason):
    path = tmp_path / "typed.jsonl"
    path.write_text(f"{_corpus_line('t0')}\n{_corpus_line('t1', **fields)}\n", encoding="utf-8")
    capsys.readouterr()
    message = _one_located_error(capsys, main(["validate", str(path)]), path, 2)
    assert message == f"error: {path}:2: {reason}"


@pytest.mark.parametrize("parent", [[], ["c0"], {"c0": 1}])
def test_list_or_object_parent_is_one_located_error(tmp_path, capsys, parent):
    path = tmp_path / "list-parent.jsonl"
    path.write_text(f"{_corpus_line('t0')}\n{_corpus_line('t1', ('c1', parent))}\n", encoding="utf-8")
    capsys.readouterr()
    message = _one_located_error(capsys, main(["validate", str(path)]), path, 2)
    reason = f"claim parent must be a string, a number or null, got {parent!r}"
    assert message == f"error: {path}:2: {reason}"


def test_non_string_parent_is_a_dangling_parent(tmp_path, capsys):
    path = tmp_path / "int-parent.jsonl"
    path.write_text(_corpus_line("t", ("c1", 1)) + "\n", encoding="utf-8")
    assert main(["validate", str(path)]) == 1
    assert "t: c1: dangling parent 1\n" in capsys.readouterr().out


def _claims_edited(edit) -> str:
    """The corpus line of tree t1 (c0 <- c1 <- c2) after edit(claims)."""
    record = json.loads(_corpus_line("t1", ("c1", "c0"), ("c2", "c1")))
    edit(record["claims"])
    return json.dumps(record)


@pytest.mark.parametrize(
    "tree, reason",
    [
        (
            _corpus_line("t1", ("c1", "zz"), ("c2", "c0")),
            "broken parent chain in topic 't1': c1: dangling parent 'zz'",
        ),
        (
            _corpus_line("t1", ("c1", "c2"), ("c2", "c1")),
            "broken parent chain in topic 't1': c1: unreachable from root",
        ),
        (
            _claims_edited(lambda claims: claims[0].update(stance="pro")),
            "invalid claim in topic 't1': c0: root claim carries a stance",
        ),
        (
            _claims_edited(lambda claims: claims[2].update(text="  ")),
            "invalid claim in topic 't1': c2: empty claim text",
        ),
        (
            _claims_edited(lambda claims: claims[1].update(stance=None)),
            "invalid claim in topic 't1': c1: non-root claim missing stance",
        ),
    ],
    ids=["dangling-parent", "cycle", "root-stance", "blank-text", "missing-stance"],
)
@pytest.mark.parametrize(
    "argv",
    [
        ["stats"],
        ["stats", "--per-tree"],
        ["derive-pairs", "--task", "stance"],
        ["derive-pairs", "--task", "specificity"],
    ],
)
def test_broken_tree_is_one_located_error(tmp_path, capsys, tree, reason, argv):
    """stats and derive-pairs refuse a tree that validate rejects: file, tree line, violation."""
    path = tmp_path / "broken.jsonl"
    path.write_text(f"{_corpus_line('t0', ('c1', 'c0'))}\n\n{tree}\n", encoding="utf-8")
    assert main(["validate", str(path)]) == 1
    out = tmp_path / "out"
    capsys.readouterr()
    code = main([argv[0], str(path), *argv[1:], "-o", str(out)])
    message = _one_located_error(capsys, code, path, 3)
    assert message == f"error: {path}:3: {reason}"
    assert not out.exists()


def test_non_utf8_config_is_usage_error(tmp_path, capsys):
    config = tmp_path / "bad.conf"
    config.write_bytes(b"topic_count = 3\n# caf\xe9\n")
    capsys.readouterr()
    code = main(["synth", "--config", str(config), "-o", str(tmp_path / "x.jsonl")])
    err = capsys.readouterr().err
    assert code == 2
    assert "Traceback" not in err
    assert err.startswith(f"error: config {config}: not UTF-8 text ("), err


def test_unknown_config_key_is_usage_error(tmp_path):
    config = tmp_path / "bad.conf"
    config.write_text("not_a_real_knob = 3\n", encoding="utf-8")
    code = main(["synth", "--config", str(config), "-o", str(tmp_path / "x.jsonl")])
    assert code == 2


def test_bad_config_value_is_usage_error(tmp_path):
    config = tmp_path / "bad.conf"
    config.write_text("topic_count = many\n", encoding="utf-8")
    code = main(["synth", "--config", str(config), "-o", str(tmp_path / "x.jsonl")])
    assert code == 2


def test_missing_config_file_is_usage_error(tmp_path):
    code = main([
        "synth", "--config", str(tmp_path / "absent.conf"), "-o", str(tmp_path / "x.jsonl")
    ])
    assert code == 2


def test_bad_ratios_are_usage_errors(pipeline, tmp_path, capsys):
    out = str(tmp_path / "split.json")
    assert main(["split", str(pipeline["corpus"]), "--ratios", "0.5,0.5", "-o", out]) == 2
    assert main(["split", str(pipeline["corpus"]), "--ratios", "a,b,c", "-o", out]) == 2
    for ratios in ("nan,0.5,0.5", "inf,0,0", "0.5,-inf,0.5"):
        capsys.readouterr()
        assert main(["split", str(pipeline["corpus"]), "--ratios", ratios, "-o", out]) == 2
        assert "error: --ratios must be finite numbers" in capsys.readouterr().err
    absent = str(tmp_path / "absent.jsonl")
    for ratios in ("0.5,0.6,0.2", "0.6,-0.2,0.6"):
        capsys.readouterr()
        assert main(["split", absent, "--ratios", ratios, "-o", out]) == 2
        err = capsys.readouterr().err
        assert f"error: --ratios must be non-negative and sum to 1, got '{ratios}'" in err
        assert "file not found" not in err
    assert not os.path.exists(out)


@pytest.mark.parametrize("value", ["0", "-2"])
def test_max_distance_below_one_is_usage_error(pipeline, tmp_path, capsys, value):
    out = tmp_path / "pairs.jsonl"
    code = main([
        "derive-pairs", str(pipeline["corpus"]), "--task", "stance", "--max-distance", value,
        "-o", str(out),
    ])
    assert code == 2
    assert f"error: --max-distance must be at least 1, got {value}" in capsys.readouterr().err
    assert not out.exists()


READS_SEED = {"synth", "split", "derive-pairs", "featurize", "train", "gradcheck"}
READS_CONFIG = {"synth", "split", "derive-pairs", "featurize", "train", "significance"}


def test_seed_and_config_are_offered_only_where_read(capsys):
    _, registry = argtree.cli.build_parser()
    assert READS_SEED | READS_CONFIG < set(registry)
    for name, parser in registry.items():
        usage = parser.format_usage()
        assert ("--seed" in usage) == (name in READS_SEED), name
        assert ("--config" in usage) == (name in READS_CONFIG), name
    with pytest.raises(SystemExit) as excinfo:
        main(["validate", "--config", "missing.conf", "corpus.jsonl"])
    assert excinfo.value.code == 2
    assert "unrecognized arguments: --config" in capsys.readouterr().err


def test_split_without_part_is_usage_error(pipeline, tmp_path):
    code = main([
        "derive-pairs", str(pipeline["corpus"]), "--task", "stance",
        "--split", str(pipeline["split"]), "-o", str(tmp_path / "pairs.jsonl"),
    ])
    assert code == 2


def test_use_path_on_specificity_is_usage_error(pipeline, tmp_path):
    code = main([
        "featurize", str(pipeline["specificity_pairs"]), "--task", "specificity",
        "--vocab", str(pipeline["vocab"]), "--use-path",
        "-o", str(tmp_path / "f.jsonl"),
    ])
    assert code == 2


def test_length_model_rejects_stance(pipeline, tmp_path):
    code = main([
        "train", "--model", "length", "--task", "stance",
        "--train", str(pipeline["stance_pairs"]), "-o", str(tmp_path / "m.ckpt"),
    ])
    assert code == 2


def test_path_model_rejects_specificity_pairs(pipeline, tmp_path):
    code = main([
        "train", "--model", "path-hier", "--task", "specificity",
        "--train", str(pipeline["specificity_pairs"]), "-o", str(tmp_path / "m.ckpt"),
    ])
    assert code == 2


def test_logreg_rejects_raw_pairs(pipeline, tmp_path):
    code = main([
        "train", "--model", "logreg", "--task", "stance",
        "--train", str(pipeline["stance_pairs"]), "-o", str(tmp_path / "m.ckpt"),
    ])
    assert code == 1


def test_task_mismatch_exits_one(pipeline, tmp_path):
    code = main([
        "train", "--model", "pair", "--task", "specificity",
        "--train", str(pipeline["stance_pairs"]), "-o", str(tmp_path / "m.ckpt"),
    ])
    assert code == 1


@pytest.mark.parametrize(
    "argv, data, other_task",
    [
        (["train", "--model", "majority", "--task", "specificity", "--train"], "stance_pairs",
         "stance"),
        (["train", "--model", "majority", "--task", "stance", "--train"], "specificity_features",
         "specificity"),
        (["evaluate", "--model", "majority_ckpt", "--test"], "specificity_pairs", "specificity"),
        (["evaluate", "--model", "majority_ckpt", "--test"], "specificity_features",
         "specificity"),
    ],
    ids=["train-pairs", "train-features", "evaluate-pairs", "evaluate-features"],
)
def test_majority_scores_only_data_of_its_task(pipeline, tmp_path, capsys, argv, data, other_task):
    argv = [str(pipeline[arg]) if arg in pipeline else arg for arg in argv]
    out = tmp_path / "out"
    capsys.readouterr()
    code = main([*argv, str(pipeline[data]), "-o", str(out)])
    task = "specificity" if other_task == "stance" else "stance"
    err = capsys.readouterr().err
    assert code == 1
    assert "Traceback" not in err
    assert [line for line in err.splitlines() if line.startswith("error:")] == [
        f"error: {pipeline[data]} holds {other_task} data, but the task is {task}"
    ]
    assert not out.exists()


@pytest.mark.parametrize(
    "model, task, data",
    [("majority", "stance", "stance_pairs"), ("length", "specificity", "specificity_pairs")],
)
def test_dev_on_a_baseline_is_usage_error(pipeline, tmp_path, capsys, model, task, data):
    out = tmp_path / "m.ckpt"
    capsys.readouterr()
    code = main([
        "train", "--model", model, "--task", task, "--train", str(pipeline[data]),
        "--dev", str(tmp_path / "missing.jsonl"), "-o", str(out),
    ])
    err = capsys.readouterr().err
    assert code == 2
    assert "Traceback" not in err
    assert [line for line in err.splitlines() if line.startswith("error:")] == [
        f"error: --dev has no effect on the {model} baseline"
    ]
    assert not out.exists()


@pytest.mark.parametrize("train", ["missing", "directory"])
def test_length_train_that_is_not_a_file_is_one_error(tmp_path, capsys, train):
    path = tmp_path / "missing.jsonl" if train == "missing" else tmp_path
    out = tmp_path / "m.ckpt"
    capsys.readouterr()
    code = main([
        "train", "--model", "length", "--task", "specificity", "--train", str(path),
        "-o", str(out),
    ])
    err = capsys.readouterr().err
    assert code == 1
    assert "Traceback" not in err
    assert [line for line in err.splitlines() if line.startswith("error:")] == [
        f"error: {path}: not a file"
    ]
    assert not out.exists()


def test_length_train_file_is_not_parsed(tmp_path):
    path = tmp_path / "anything.txt"
    path.write_bytes(b"\xff not pairs\n")
    out = tmp_path / "m.ckpt"
    code = main([
        "train", "--model", "length", "--task", "specificity", "--train", str(path),
        "-o", str(out),
    ])
    assert code == 0 and load_model(str(out)).kind == "length"


def _one_located_error(capsys, code, path, line_no) -> str:
    """Exit 1 and a single `error:` line that starts with `<path>:<line>:`."""
    err = capsys.readouterr().err
    assert code == 1
    assert "Traceback" not in err
    errors = [line for line in err.splitlines() if line.startswith("error:")]
    assert len(errors) == 1, err
    assert errors[0].startswith(f"error: {path}:{line_no}: "), errors[0]
    return errors[0]


def _write_edited_lines(source, path, line_no, edit) -> None:
    lines = source.read_text(encoding="utf-8").splitlines()[:4]
    lines[line_no - 1] = edit(lines[line_no - 1])
    path.write_text("\n".join(lines) + "\n", encoding="utf-8")


def _drop_field(name):
    return lambda line: json.dumps({k: v for k, v in json.loads(line).items() if k != name})


def _set_field(name, value):
    return lambda line: json.dumps(dict(json.loads(line), **{name: value}))


def _change_field(name, change):
    def edit(line):
        record = json.loads(line)
        return json.dumps(dict(record, **{name: change(record[name])}))

    return edit


@pytest.mark.parametrize(
    "task, line_no, edit, reason",
    [
        ("specificity", 2, _drop_field("first_id"), "missing field 'first_id'"),
        ("specificity", 3, lambda line: "not json", "invalid JSON"),
        ("specificity", 2, _set_field("label", "sideways"), "'sideways'"),
        ("stance", 2, _set_field("path_edges", ["sideways"]), "'sideways'"),
        ("stance", 3, _set_field("distance", 1e999), "cannot convert float infinity to integer"),
        ("stance", 2, _change_field("path_texts", lambda texts: texts[:1]),
         "path_texts holds 1 claim(s), fewer than 2"),
        ("stance", 2, _change_field("path_edges", lambda edges: edges + edges), "edge(s) for"),
        ("stance", 2, _change_field("distance", lambda distance: distance + 1),
         "is not the path's"),
        ("stance", 2, _change_field("label", {"supports": "opposes", "opposes": "supports"}.get),
         "disagrees with the con edges of path_edges"),
    ],
    ids=["missing-field", "not-json", "unknown-label", "unknown-edge", "infinite-distance",
         "one-claim-path", "edge-count", "distance", "label-parity"],
)
def test_bad_pairs_line_is_one_located_error(pipeline, tmp_path, capsys, task, line_no, edit, reason):
    path = tmp_path / "bad-pairs.jsonl"
    source = pipeline["specificity_pairs" if task == "specificity" else "stance_pairs"]
    _write_edited_lines(source, path, line_no, edit)
    capsys.readouterr()
    code = main([
        "featurize", str(path), "--task", task,
        "--vocab", str(tmp_path / "vocab.json"), "-o", str(tmp_path / "features.jsonl"),
    ])
    assert reason in _one_located_error(capsys, code, path, line_no)


# A JSON array nested far past Python's recursion limit.
TOO_DEEP = "[" * 100_000


@pytest.mark.parametrize(
    "source, argv",
    [
        ("corpus", ["validate", "{path}"]),
        ("corpus", ["derive-pairs", "{path}", "--task", "stance", "-o", "{out}"]),
        ("stance_pairs", ["evaluate", "--model", "{majority_ckpt}", "--test", "{path}",
                          "-o", "{out}"]),
        ("stance_pairs", ["train", "--model", "majority", "--task", "stance",
                          "--train", "{path}", "-o", "{out}"]),
        ("specificity_features", ["train", "--model", "logreg", "--task", "specificity",
                                  "--train", "{path}", "-o", "{out}"]),
    ],
    ids=["validate", "derive-pairs", "evaluate-test", "train-pairs", "train-features"],
)
# line 1 is what train and evaluate read to tell the file's kind, and a features header
@pytest.mark.parametrize("line_no", [1, 3])
def test_json_nested_past_the_recursion_limit_is_one_located_error(
    pipeline, tmp_path, capsys, source, argv, line_no
):
    path, out = tmp_path / "deep.jsonl", tmp_path / "out"
    _write_edited_lines(pipeline[source], path, line_no, lambda line: TOO_DEEP)
    names = {"path": path, "out": out, "majority_ckpt": pipeline["majority_ckpt"]}
    capsys.readouterr()
    code = main([arg.format(**names) for arg in argv])
    assert "invalid JSON" in _one_located_error(capsys, code, path, line_no)
    assert not out.exists()


@pytest.mark.parametrize(
    "line_no, edit, reason",
    [
        (1, lambda line: "{", "invalid JSON"),
        (3, lambda line: "not json", "invalid JSON"),
        (2, _drop_field("label"), "missing field 'label'"),
        (2, _set_field("sparse", {"0": "many"}), "'many'"),
        (3, _set_field("distance", 1e999), "cannot convert float infinity to integer"),
    ],
    ids=["header-not-json", "not-json", "missing-field", "bad-value", "infinite-distance"],
)
def test_bad_features_line_is_one_located_error(pipeline, tmp_path, capsys, line_no, edit, reason):
    path = tmp_path / "bad-features.jsonl"
    _write_edited_lines(pipeline["specificity_features"], path, line_no, edit)
    capsys.readouterr()
    code = main([
        "train", "--model", "logreg", "--task", "specificity",
        "--train", str(path), "-o", str(tmp_path / "m.ckpt"),
    ])
    assert reason in _one_located_error(capsys, code, path, line_no)


def _one_file_error(capsys, code, path) -> str:
    """Exit 1 and a single `error:` line that starts with `<path>: `."""
    err = capsys.readouterr().err
    assert code == 1
    assert "Traceback" not in err
    errors = [line for line in err.splitlines() if line.startswith("error:")]
    assert len(errors) == 1, err
    assert errors[0].startswith(f"error: {path}: "), errors[0]
    return errors[0]


@pytest.mark.parametrize(
    "content, reason",
    [
        ('{"schema": "argtree-vocab/1", "min_count": 2}', "missing field 'tokens'"),
        ('["a", "b"]', "expected a JSON object"),
        ('{"schema": "argtree-vocab/1", "tokens": [', "invalid JSON"),
        ('{"schema": "argtree-vocab/1", "min_count": 1, "built_from": "x", "tokens": 5}',
         "tokens must be a list of strings"),
        ('{"schema": "argtree-vocab/0", "tokens": []}', "schema mismatch"),
        ('{"schema": "argtree-vocab/1", "min_count": 1e999, "built_from": "x", "tokens": []}',
         "cannot convert float infinity to integer"),
        (TOO_DEEP, "invalid JSON (nested too deeply)"),
    ],
    ids=["missing-tokens", "list", "not-json", "tokens-not-list", "schema", "infinite-min-count",
         "too-deep"],
)
def test_bad_vocabulary_file_is_one_file_error(pipeline, tmp_path, capsys, content, reason):
    path = tmp_path / "v.json"
    path.write_text(content + "\n", encoding="utf-8")
    capsys.readouterr()
    code = main([
        "featurize", str(pipeline["specificity_pairs"]), "--task", "specificity",
        "--vocab", str(path), "-o", str(tmp_path / "f.jsonl"),
    ])
    assert reason in _one_file_error(capsys, code, path)


@pytest.mark.parametrize(
    "flag, content, line_no, reason",
    [
        ("--lexicon", "good\t0.5\tstrong\nbad\t-0.5\n", 2, "expected 3 tab-separated fields"),
        ("--lexicon", "good\tx\tstrong\n", 1, "bad polarity 'x'"),
        ("--lexicon", "good\t2.0\tstrong\n", 1, "polarity 2.0 outside [-1, 1]"),
        ("--lexicon", "good\t0.5\tloud\n", 1, "subjectivity must be strong or weak"),
        ("--embeddings", "good 0.5 x\n", 1, "could not convert string to float: 'x'"),
        ("--embeddings", "good 0.5 1.0\n\nbad 0.5\n", 3, "dimension mismatch (expected 2, got 1)"),
        ("--embeddings", "good\n", 1, "no vector components"),
        ("--embeddings", "\n", None, "empty embeddings file"),
    ],
    ids=["lexicon-fields", "lexicon-polarity", "lexicon-range", "lexicon-subjectivity",
         "embeddings-float", "embeddings-dimension", "embeddings-no-components", "embeddings-empty"],
)
def test_bad_lexicon_or_embeddings_row_is_one_located_error(
    pipeline, tmp_path, capsys, flag, content, line_no, reason
):
    path = tmp_path / "resource.txt"
    path.write_text(content, encoding="utf-8")
    capsys.readouterr()
    code = main([
        "featurize", str(pipeline["stance_pairs"]), "--task", "stance", flag, str(path),
        "--vocab", str(tmp_path / "vocab.json"), "-o", str(tmp_path / "f.jsonl"),
    ])
    if line_no is None:
        message = _one_file_error(capsys, code, path)
    else:
        message = _one_located_error(capsys, code, path, line_no)
    assert reason in message


@pytest.mark.parametrize(
    "edit, reason",
    [
        (lambda record: {k: v for k, v in record.items() if k != "train"}, "missing field 'train'"),
        (lambda record: [record], "expected a JSON object"),
        (lambda record: dict(record, dev="abc"), "dev must be a list of strings"),
        (lambda record: dict(record, seed="x"), "'x'"),
        (lambda record: dict(record, seed=1e999), "cannot convert float infinity to integer"),
    ],
    ids=["missing-train", "list", "dev-not-list", "bad-seed", "infinite-seed"],
)
def test_bad_split_file_is_one_file_error(pipeline, tmp_path, capsys, edit, reason):
    path = tmp_path / "s.json"
    record = json.loads(pipeline["split"].read_text(encoding="utf-8"))
    # json.dumps writes an infinite float as Infinity; write it as the number 1e999
    path.write_text(json.dumps(edit(record)).replace("Infinity", "1e999") + "\n", encoding="utf-8")
    capsys.readouterr()
    code = main([
        "derive-pairs", str(pipeline["corpus"]), "--task", "stance",
        "--split", str(path), "--part", "train", "-o", str(tmp_path / "p.jsonl"),
    ])
    assert reason in _one_file_error(capsys, code, path)


def test_split_file_nested_too_deeply_is_one_file_error(pipeline, tmp_path, capsys):
    path = tmp_path / "s.json"
    path.write_text(TOO_DEEP + "\n", encoding="utf-8")
    capsys.readouterr()
    code = main([
        "derive-pairs", str(pipeline["corpus"]), "--task", "stance",
        "--split", str(path), "--part", "train", "-o", str(tmp_path / "p.jsonl"),
    ])
    assert "invalid JSON (nested too deeply)" in _one_file_error(capsys, code, path)


def _non_utf8_argv(reader, pipeline, tmp_path):
    """(valid input, argv reading it from `bad`) for each text reader."""
    bad = tmp_path / "bad.txt"
    out = str(tmp_path / "out")
    cases = {
        "corpus": (pipeline["corpus"], ["validate", bad]),
        "pairs": (pipeline["stance_pairs"], [
            "train", "--model", "majority", "--task", "stance", "--train", bad, "-o", out,
        ]),
        "features": (pipeline["specificity_features"], [
            "train", "--model", "logreg", "--task", "specificity", "--train", bad, "-o", out,
        ]),
        "vocabulary": (pipeline["vocab"], [
            "featurize", pipeline["specificity_pairs"], "--task", "specificity",
            "--vocab", bad, "-o", out,
        ]),
        "split": (pipeline["split"], [
            "derive-pairs", pipeline["corpus"], "--task", "stance",
            "--split", bad, "--part", "train", "-o", out,
        ]),
        "lexicon": ("good\t0.5\tstrong\nbad\t-0.5\tweak\n", [
            "featurize", pipeline["stance_pairs"], "--task", "stance", "--lexicon", bad,
            "--vocab", tmp_path / "vocab.json", "-o", out,
        ]),
        "embeddings": ("good 0.5 1.0\nbad 0.5 -1.0\n", [
            "featurize", pipeline["stance_pairs"], "--task", "stance", "--embeddings", bad,
            "--vocab", tmp_path / "vocab.json", "-o", out,
        ]),
        "outline": (OUTLINE, ["import-outline", bad, "--topic-id", "t", "-o", out]),
        "report": (pipeline["majority_csv"], ["report", bad, "-o", out]),
    }
    source, argv = cases[reader]
    data = source.encode() if isinstance(source, str) else source.read_bytes()
    middle = len(data) // 2
    bad.write_bytes(data[:middle] + b"\xff" + data[middle:])
    return bad, [str(a) for a in argv]


@pytest.mark.parametrize(
    "reader",
    [
        "corpus", "pairs", "features", "vocabulary", "split", "lexicon", "embeddings", "outline",
        "report",
    ],
)
def test_non_utf8_input_is_one_file_error(pipeline, tmp_path, capsys, reader):
    bad, argv = _non_utf8_argv(reader, pipeline, tmp_path)
    capsys.readouterr()
    message = _one_file_error(capsys, main(argv), bad)
    assert message.startswith(f"error: {bad}: not UTF-8 text ("), message


def test_outline_errors_name_the_file(tmp_path, capsys):
    orphan = tmp_path / "orphan.txt"
    orphan.write_text("1. Thesis?\n1.2.1. Pro: no parent.\n", encoding="utf-8")
    capsys.readouterr()
    code = main(["import-outline", str(orphan), "--topic-id", "t", "-o", str(tmp_path / "o")])
    message = _one_located_error(capsys, code, orphan, 2)
    assert "orphan numbering: parent '1.2' of '1.2.1' not seen" in message
    empty = tmp_path / "empty.txt"
    empty.write_text("\n\n", encoding="utf-8")
    code = main(["import-outline", str(empty), "--topic-id", "t", "-o", str(tmp_path / "o")])
    assert _one_file_error(capsys, code, empty) == f"error: {empty}: empty outline"
    assert not (tmp_path / "o").exists()


def test_checkpoint_without_a_block_is_one_file_error(pipeline, tmp_path, capsys):
    lines = pipeline["logreg_ckpt"].read_text(encoding="utf-8").splitlines()
    start = next(i for i, line in enumerate(lines) if line.startswith("[block dense_std "))
    path = tmp_path / "logreg.ckpt"
    path.write_text("\n".join(lines[:start] + lines[start + 2:]) + "\n", encoding="utf-8")
    capsys.readouterr()
    code = main([
        "evaluate", "--model", str(path), "--test", str(pipeline["specificity_features"]),
        "-o", str(tmp_path / "e.csv"),
    ])
    assert "'dense_std'" in _one_file_error(capsys, code, path)


@pytest.mark.parametrize("dim, hidden", [(1, 1), (1, 4), (6, 1)])
@pytest.mark.parametrize("kind", ["pair", "path-flat", "path-hier"])
def test_one_wide_model_trains_evaluates_and_loads(pipeline, tmp_path, kind, dim, hidden):
    """dim or hidden 1 makes 1 x n matrices, which a checkpoint stores as one row, as it
    stores a vector: the loader must give them back their shape."""
    conf = tmp_path / "net.conf"
    conf.write_text(f"max_epochs = 1\ndim = {dim}\nhidden = {hidden}\nmin_count = 1\n",
                    encoding="utf-8")
    path = tmp_path / f"{kind}.ckpt"
    assert main(["train", "--model", kind, "--task", "stance", "--seed", "3",
                 "--config", str(conf), "--train", str(pipeline["stance_pairs"]),
                 "-o", str(path)]) == 0
    assert main(["evaluate", "--model", str(path), "--test", str(pipeline["stance_test"]),
                 "-o", str(tmp_path / "e.csv")]) == 0
    model = train_neural(
        kind, "stance", read_pairs_file(str(pipeline["stance_pairs"])),
        encoder_config=EncoderConfig(dim=dim, hidden=hidden, min_count=1),
        train_config=neural_train_config(max_epochs=1, seed=3),
    )
    save_model(model, str(tmp_path / "same.ckpt"))
    assert (tmp_path / "same.ckpt").read_bytes() == path.read_bytes()
    test = read_pairs_file(str(pipeline["stance_test"]))
    assert load_model(str(path)).predict_labels(test) == model.predict_labels(test)


@pytest.fixture(scope="module")
def path_hier_ckpt(pipeline, tmp_path_factory):
    path = tmp_path_factory.mktemp("hier") / "path-hier.ckpt"
    assert main([
        "train", "--model", "path-hier", "--task", "stance", "--seed", "3",
        "--config", str(pipeline["train_config"]), "--train", str(pipeline["stance_pairs"]),
        "-o", str(path),
    ]) == 0
    return path


def _edited_block(name, rows=None, cols=None):
    """An edit of a checkpoint's lines that keeps only `rows` rows and `cols`
    values per row of block `name`, with a header that agrees."""

    def edit(lines):
        start = next(i for i, line in enumerate(lines) if line.startswith(f"[block {name} "))
        old_rows, old_cols = map(int, lines[start][1:-1].split(" ")[2:])
        keep_rows = old_rows if rows is None else rows(old_rows)
        keep_cols = old_cols if cols is None else cols(old_cols)
        body = [" ".join(row.split(" ")[:keep_cols]) for row in lines[start + 1 :][:keep_rows]]
        header = f"[block {name} {keep_rows} {keep_cols}]"
        return lines[:start] + [header] + body + lines[start + 1 + old_rows :]

    return edit


def _edited_meta(**changes):
    """An edit of a checkpoint's lines that sets meta keys, or keys of its
    encoder_config, to the values given."""

    def edit(lines):
        meta = json.loads(lines[-1])
        for key, value in changes.items():
            (meta["encoder_config"] if key in meta.get("encoder_config", {}) else meta)[key] = value
        return lines[:-1] + [json.dumps(meta)]

    return edit


def _extra_block(lines):
    meta = lines.index("[meta]")
    return lines[:meta] + ["[block cls/extra 1 1]", "0.5"] + lines[meta:]


@pytest.mark.parametrize(
    "checkpoint, test, edit, reason",
    [
        ("pair_ckpt", "stance_test", _edited_block("enc/proj_b", cols=lambda c: c - 1),
         "block 'enc/proj_b' is 1 x 15, expected 1 x 16"),
        ("pair_ckpt", "stance_test", _edited_block("enc/tok_emb", rows=lambda r: r - 1),
         "block 'enc/tok_emb' is "),
        ("pair_ckpt", "stance_test", _extra_block, "unexpected block 'cls/extra'"),
        ("logreg_ckpt", "specificity_features", _edited_block("weights", cols=lambda c: c - 1),
         "block 'weights' is 1 x "),
        ("logreg_ckpt", "specificity_features", _edited_block("dense_std", cols=lambda c: c - 1),
         "block 'dense_std' is 1 x "),
        ("logreg_ckpt", "specificity_features", _edited_block("dense_std"), None),
        ("pair_ckpt", "stance_test",
         lambda lines: lines[:-1] + [lines[-1].replace('"dim": 16,', '"dim": -1,')],
         "dim, hidden and truncate must be positive"),
        ("pair_ckpt", "stance_test", _edited_meta(dim=100_000), "block 'enc/tok_emb' is "),
        ("path_hier_ckpt", "stance_test", _edited_meta(share_encoder=False, max_positions=10**9),
         "encoder_config asks for 1000000000 encoders"),
        ("path_hier_ckpt", "stance_test", _edited_meta(hidden=100_000), "block 'gru_fwd/w_z' is "),
        ("pair_ckpt", "stance_test", _edited_meta(dim="16"), "encoder_config key 'dim'"),
        ("pair_ckpt", "stance_test", _edited_meta(tokens=5), "meta key 'tokens'"),
        ("pair_ckpt", "stance_test", _edited_meta(label_names=["supports", 1]),
         "meta key 'label_names'"),
        ("path_hier_ckpt", "stance_test", _edited_meta(history=[[1, 0.5]]), "meta key 'history'"),
        ("majority_ckpt", "stance_test", _edited_meta(counts=5), "meta key 'counts'"),
        ("majority_ckpt", "stance_test", _edited_meta(counts={"supports": None}),
         "meta key 'counts'"),
        ("logreg_ckpt", "specificity_features", _edited_meta(sparse_names="abc"),
         "meta key 'sparse_names'"),
        ("logreg_ckpt", "specificity_features", _edited_meta(task=None), "meta key 'task'"),
    ],
    ids=["neural-vector", "neural-matrix", "extra-block", "logreg-weights", "logreg-dense-std",
         "unedited", "negative-dim", "huge-dim", "huge-max-positions", "huge-hidden",
         "dim-not-an-int", "tokens-not-a-list", "label-names-not-strings", "short-history-row",
         "counts-not-an-object", "count-not-an-int", "names-not-a-list", "task-not-a-string"],
)
def test_checkpoint_that_misfits_its_model_is_one_file_error(
    pipeline, request, tmp_path, capsys, checkpoint, test, edit, reason
):
    source = pipeline.get(checkpoint) or request.getfixturevalue(checkpoint)
    lines = source.read_text(encoding="utf-8").splitlines()
    path = tmp_path / "m.ckpt"
    path.write_text("\n".join(edit(lines)) + "\n", encoding="utf-8")
    capsys.readouterr()
    code = main(["evaluate", "--model", str(path), "--test", str(pipeline[test]),
                 "-o", str(tmp_path / "e.csv")])
    if reason is None:
        assert code == 0
    else:
        assert reason in _one_file_error(capsys, code, path)


@pytest.mark.parametrize(
    "line_no, edit, reason",
    [
        (-1, lambda line: '{"task": ', "invalid JSON in [meta] (Expecting value)"),
        (-1, lambda line: "[1, 2]", "[meta] is not a JSON object"),
        (-2, lambda line: "[Meta]", "unexpected line '[Meta]'"),
        (2, lambda line: "[block w x 2]", "bad block header '[block w x 2]'"),
        (1, lambda line: line.rsplit(" ", 1)[0], "bad checkpoint header"),
        (3, lambda line: line + " 1.0", "row 0: expected"),
        (3, lambda line: "1.0x" + line[line.index(" "):], "could not convert string '1.0x'"),
        (3, None, "block 'weights' is truncated: 0 of 1 rows"),
    ],
    ids=["meta-not-json", "meta-not-object", "no-meta", "block-header", "header", "long-row",
         "bad-float", "truncated"],
)
def test_malformed_checkpoint_line_is_one_located_error(pipeline, tmp_path, capsys, line_no, edit, reason):
    lines = pipeline["logreg_ckpt"].read_text(encoding="utf-8").splitlines()
    line_no = line_no if line_no > 0 else len(lines) + 1 + line_no
    if edit is None:
        lines = lines[: line_no - 1]
        line_no -= 1  # the block header that promised the missing row
    else:
        lines[line_no - 1] = edit(lines[line_no - 1])
    path = tmp_path / "logreg.ckpt"
    path.write_text("\n".join(lines) + "\n", encoding="utf-8")
    capsys.readouterr()
    code = main([
        "evaluate", "--model", str(path), "--test", str(pipeline["specificity_features"]),
        "-o", str(tmp_path / "e.csv"),
    ])
    assert reason in _one_located_error(capsys, code, path, line_no)


def _count_calls(monkeypatch, module, name) -> list:
    calls = []
    original = getattr(module, name)

    def counted(*args, **kwargs):
        calls.append(args)
        return original(*args, **kwargs)

    monkeypatch.setattr(module, name, counted)
    return calls


def test_significance_reads_a_features_test_file_once(pipeline, tmp_path, monkeypatch, capsys):
    majority = tmp_path / "majority.ckpt"
    assert main([
        "train", "--model", "majority", "--task", "specificity",
        "--train", str(pipeline["specificity_pairs"]), "-o", str(majority),
    ]) == 0
    calls = _count_calls(monkeypatch, argtree.cli, "read_features_file")
    code = main([
        "significance", "--model-a", str(pipeline["logreg_ckpt"]), "--model-b", str(majority),
        "--test", str(pipeline["specificity_features"]),
    ])
    assert code == 0
    assert len(calls) == 1
    assert capsys.readouterr().out.startswith("model-a: logreg")


def test_significance_reads_a_pairs_test_file_once(pipeline, monkeypatch, capsys):
    calls = _count_calls(monkeypatch, argtree.cli, "read_pairs_file")
    code = main([
        "significance", "--model-a", str(pipeline["majority_ckpt"]),
        "--model-b", str(pipeline["pair_ckpt"]), "--test", str(pipeline["stance_test"]),
    ])
    assert code == 0
    assert len(calls) == 1
    assert "model-b: pair" in capsys.readouterr().out


def test_unknown_stratum_is_usage_error(pipeline, tmp_path):
    code = main([
        "evaluate", "--model", str(pipeline["majority_ckpt"]),
        "--test", str(pipeline["stance_test"]),
        "--strata", "all,dx", "-o", str(tmp_path / "e.csv"),
    ])
    assert code == 2


def test_invalid_threads_is_usage_error(pipeline):
    # --threads is not a flag: argparse rejects it as unknown with exit 2.
    with pytest.raises(SystemExit) as excinfo:
        main(["validate", str(pipeline["corpus"]), "--threads", "1"])
    assert excinfo.value.code == 2


def test_seed_priority_flag_config_env(pipeline, tmp_path, monkeypatch):
    corpus = str(pipeline["corpus"])

    def split_bytes(extra_args, env_seed):
        out = tmp_path / "seeded.json"
        if env_seed is None:
            monkeypatch.delenv("ARGTREE_SEED", raising=False)
        else:
            monkeypatch.setenv("ARGTREE_SEED", env_seed)
        assert main(["split", corpus, "-o", str(out), *extra_args]) == 0
        return out.read_bytes()

    config = tmp_path / "seed.conf"
    config.write_text("seed = 3\n", encoding="utf-8")
    by_flag = split_bytes(["--seed", "3"], env_seed=None)
    by_config = split_bytes(["--config", str(config)], env_seed=None)
    by_env = split_bytes([], env_seed="3")
    default = split_bytes([], env_seed=None)
    assert by_flag == by_config == by_env
    assert default != by_flag  # seed 0 shuffles differently
    # The flag wins over both the config file and the environment.
    other_config = tmp_path / "other.conf"
    other_config.write_text("seed = 9\n", encoding="utf-8")
    flag_beats_config = split_bytes(["--seed", "3", "--config", str(other_config)], env_seed="7")
    assert flag_beats_config == by_flag
    config_beats_env = split_bytes(["--config", str(config)], env_seed="7")
    assert config_beats_env == by_flag


def test_bad_env_seed_is_usage_error(pipeline, tmp_path, monkeypatch):
    monkeypatch.setenv("ARGTREE_SEED", "not-a-number")
    code = main(["split", str(pipeline["corpus"]), "-o", str(tmp_path / "s.json")])
    assert code == 2


def test_atomic_write_leaves_no_temp_files(pipeline):
    directory = os.path.dirname(str(pipeline["corpus"]))
    leftovers = [name for name in os.listdir(directory) if name.startswith(".argtree-")]
    assert leftovers == []


def test_outputs_follow_the_umask(tmp_path):
    config = tmp_path / "synth.conf"
    config.write_text(SYNTH_CONFIG, encoding="utf-8")
    out = tmp_path / "corpus.jsonl"
    previous = os.umask(0o022)
    try:
        assert main(["synth", "--config", str(config), "-o", str(out)]) == 0
    finally:
        os.umask(previous)
    assert stat.filemode(os.stat(out).st_mode) == "-rw-r--r--"


HIER_CONFIG = """\
learning_rate = 0.3
batch_size = 16
max_epochs = 2
patience = 0
min_count = 1
"""


@pytest.mark.slow
def test_hier_checkpoint_is_identical_across_blas_thread_counts(pipeline, tmp_path):
    """The batched kernels' matmuls are large enough for OpenBLAS to thread."""
    config = tmp_path / "hier.conf"
    config.write_text(HIER_CONFIG, encoding="utf-8")
    src = os.path.dirname(os.path.dirname(os.path.abspath(argtree.__file__)))
    checkpoints = []
    for threads in ("1", "2"):
        out = tmp_path / f"hier-{threads}.ckpt"
        env = dict(os.environ, OPENBLAS_NUM_THREADS=threads, PYTHONPATH=src)
        completed = subprocess.run(
            [
                sys.executable, "-m", "argtree.cli", "train", "--model", "path-hier",
                "--task", "stance", "--seed", "3", "--config", str(config),
                "--train", str(pipeline["stance_pairs"]), "--dev", str(pipeline["stance_test"]),
                "-o", str(out),
            ],
            env=env, capture_output=True, text=True, timeout=300,
        )
        assert completed.returncode == 0, completed.stderr
        checkpoints.append(out.read_bytes())
    assert checkpoints[0] == checkpoints[1]


# Run in a fresh interpreter: argv lists as JSON in, the scipy modules loaded
# after the import and after each command out.
START_UP_SCRIPT = """\
import json, sys

def scipy_modules():
    return sorted(m for m in sys.modules if m == "scipy" or m.startswith("scipy."))

import argtree.cli

loaded = [["import", scipy_modules()]]
for argv in json.loads(sys.argv[1]):
    assert argtree.cli.main(argv) == 0, argv
    loaded.append([argv[0], scipy_modules()])
print(json.dumps(loaded))
"""


def test_commands_that_build_no_sparse_matrix_never_load_scipy(pipeline, tmp_path):
    """scipy.sparse loads where a CSR matrix is built, not with the CLI."""
    config, corpus, outline = tmp_path / "synth.conf", tmp_path / "corpus.jsonl", tmp_path / "o.txt"
    config.write_text(SYNTH_CONFIG, encoding="utf-8")
    outline.write_text(OUTLINE, encoding="utf-8")
    split, pairs = tmp_path / "split.json", tmp_path / "pairs.jsonl"
    commands = [
        ["synth", "--config", config, "-o", corpus],
        ["validate", corpus],
        ["stats", corpus, "-o", tmp_path / "stats.txt"],
        ["split", corpus, "--ratios", "0.5,0.25,0.25", "-o", split],
        ["derive-pairs", corpus, "--task", "specificity", "-o", pairs],
        [
            "derive-pairs", corpus, "--task", "stance", "--split", split, "--part", "train",
            "-o", tmp_path / "stance.jsonl",
        ],
        ["import-outline", outline, "--topic-id", "t", "-o", tmp_path / "outline.jsonl"],
        ["report", pipeline["majority_csv"], pipeline["pair_csv"], "-o", tmp_path / "wide.csv"],
        [
            "featurize", pairs, "--task", "specificity", "--vocab", tmp_path / "vocab.txt",
            "-o", tmp_path / "features.jsonl",
        ],
    ]
    src = os.path.dirname(os.path.dirname(os.path.abspath(argtree.__file__)))
    completed = subprocess.run(
        [
            sys.executable, "-c", START_UP_SCRIPT,
            json.dumps([[str(a) for a in argv] for argv in commands]),
        ],
        env=dict(os.environ, PYTHONPATH=src), capture_output=True, text=True, timeout=300,
    )
    assert completed.returncode == 0, completed.stderr
    loaded = json.loads(completed.stdout.splitlines()[-1])
    assert [name for name, _ in loaded] == ["import"] + [argv[0] for argv in commands]
    *lean, (_, featurize) = loaded
    assert all(modules == [] for _, modules in lean), lean
    assert "scipy.sparse" in featurize


def test_package_root_loads_no_submodule_numpy_or_scipy():
    """`import argtree` defines the version only: every other name is a submodule's."""
    src = os.path.dirname(os.path.dirname(os.path.abspath(argtree.__file__)))
    script = (
        "import json, sys, argtree; print(json.dumps(sorted(m for m in sys.modules"
        " if m.split('.')[0] in ('argtree', 'numpy', 'scipy'))))"
    )
    completed = subprocess.run(
        [sys.executable, "-c", script],
        env=dict(os.environ, PYTHONPATH=src), capture_output=True, text=True, timeout=60,
    )
    assert completed.returncode == 0, completed.stderr
    assert json.loads(completed.stdout) == ["argtree"]


def test_package_version_is_the_project_version():
    src = os.path.dirname(os.path.dirname(os.path.abspath(argtree.__file__)))
    with open(os.path.join(os.path.dirname(src), "pyproject.toml"), encoding="utf-8") as handle:
        project = handle.read().split("[project]\n", 1)[1].split("\n[", 1)[0]
    assert re.search(r'^version = "(.*)"$', project, re.M).group(1) == argtree.__version__
