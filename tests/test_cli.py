"""The `argtree` command line: every subcommand plus exit-code contracts."""

from __future__ import annotations

import csv
import json
import os
import stat
import subprocess
import sys

import pytest

import argtree
import argtree.cli
from argtree.cli import main
from argtree.corpus_io import parse_corpus_file
from argtree.features import read_features_file
from argtree.models import load_model
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


def test_bad_ratios_are_usage_errors(pipeline, tmp_path):
    out = str(tmp_path / "split.json")
    assert main(["split", str(pipeline["corpus"]), "--ratios", "0.5,0.5", "-o", out]) == 2
    assert main(["split", str(pipeline["corpus"]), "--ratios", "a,b,c", "-o", out]) == 2


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


@pytest.mark.parametrize(
    "task, line_no, edit, reason",
    [
        ("specificity", 2, _drop_field("first_id"), "missing field 'first_id'"),
        ("specificity", 3, lambda line: "not json", "invalid JSON"),
        ("specificity", 2, _set_field("label", "sideways"), "'sideways'"),
        ("stance", 2, _set_field("path_edges", ["sideways"]), "'sideways'"),
    ],
    ids=["missing-field", "not-json", "unknown-label", "unknown-edge"],
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


@pytest.mark.parametrize(
    "line_no, edit, reason",
    [
        (1, lambda line: "{", "invalid JSON"),
        (3, lambda line: "not json", "invalid JSON"),
        (2, _drop_field("label"), "missing field 'label'"),
        (2, _set_field("sparse", {"0": "many"}), "'many'"),
    ],
    ids=["header-not-json", "not-json", "missing-field", "bad-value"],
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
    ],
    ids=["missing-tokens", "list", "not-json", "tokens-not-list", "schema"],
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
    ],
    ids=["missing-train", "list", "dev-not-list", "bad-seed"],
)
def test_bad_split_file_is_one_file_error(pipeline, tmp_path, capsys, edit, reason):
    path = tmp_path / "s.json"
    record = json.loads(pipeline["split"].read_text(encoding="utf-8"))
    path.write_text(json.dumps(edit(record)) + "\n", encoding="utf-8")
    capsys.readouterr()
    code = main([
        "derive-pairs", str(pipeline["corpus"]), "--task", "stance",
        "--split", str(path), "--part", "train", "-o", str(tmp_path / "p.jsonl"),
    ])
    assert reason in _one_file_error(capsys, code, path)


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
    assert main(["validate", str(pipeline["corpus"]), "--threads", "0"]) == 2


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
