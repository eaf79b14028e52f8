"""Command-line dispatch, config resolution, exit codes, artifact plumbing."""

import argparse
import dataclasses
import json
import os
import re
import warnings

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from weakbias.classifier import (
    forward_stage1,
    load_checkpoint,
    save_checkpoint,
    train_stage1,
)
from weakbias.cli import (
    EXIT_INPUT,
    EXIT_NUMERIC,
    EXIT_USAGE,
    build_parser,
    build_run_config,
    main,
    parse_config_text,
)
from weakbias.corpus import SideLabel, load_corpus, save_corpus
from weakbias.doc2vec import PvdmConfig, load_embeddings, load_model
from weakbias.errors import InputError, NumericError, UsageError
from weakbias.pipeline import PipelineConfig
from weakbias.synthetic import SyntheticSpec

from helpers import make_corpus, with_header_field


def run(*argv) -> int:
    return main([str(a) for a in argv])


@pytest.fixture(scope="module")
def workspace(tmp_path_factory):
    """A directory with the bundled synthetic corpus and the artifacts of a
    tiny end-to-end run: text model, embeddings, stage-1 and stage-2
    checkpoints."""
    root = tmp_path_factory.mktemp("cli")
    assert run("make-synthetic", "--out", root / "corpus.jsonl",
               "--n-samples", 200, "--seed", 5) == 0
    assert run("train-text", "--corpus", root / "corpus.jsonl",
               "--model-out", root / "text.pv",
               "--embeddings-out", root / "emb.bin",
               "--dim", 12, "--window", 2, "--epochs", 2, "--min-count", 1,
               "--seed", 5) == 0
    assert run("train-stage1", "--corpus", root / "corpus.jsonl",
               "--embeddings", root / "emb.bin",
               "--model-out", root / "s1.ckpt",
               "--epochs", 2, "--lr", "1e-3", "--hidden", 16, "--fused", 8,
               "--seed", 5) == 0
    assert run("train-stage2", "--corpus", root / "corpus.jsonl",
               "--model", root / "s1.ckpt", "--model-out", root / "s2.ckpt",
               "--epochs", 2, "--lr", "1e-3", "--seed", 5) == 0
    return root


def subparsers() -> dict[str, argparse.ArgumentParser]:
    """Each subcommand's parser by name, as build_parser() declares them."""
    parser = build_parser()
    return next(a for a in parser._actions if isinstance(a, argparse._SubParsersAction)).choices


SUBCOMMANDS = tuple(subparsers())


def option_strings(parser: argparse.ArgumentParser) -> set[str]:
    return {flag for action in parser._actions for flag in action.option_strings}


class TestExitCodes:
    @pytest.mark.parametrize("command", SUBCOMMANDS)
    def test_help_exits_zero(self, command, capsys):
        """Spec example: eval --help prints usage and succeeds; so does every
        other subcommand, whose generated flags must all build."""
        with pytest.raises(SystemExit) as exc:
            run(command, "--help")
        assert exc.value.code == 0
        assert "usage" in capsys.readouterr().out

    def test_benchmark_flag_spellings_parse(self):
        """The flags the benchmark workloads pass keep their spellings."""
        parser = build_parser()
        args = parser.parse_args(["train-stage1", "--embeddings", "e.bin",
                                  "--model-out", "m.ckpt", "--lr", "2e-3",
                                  "--seed", "4"])
        assert (args.embeddings, args.model_out, args.seed) == ("e.bin", "m.ckpt", 4)
        args = parser.parse_args(["dedup", "--threshold", "0.5", "--report", "r"])
        assert (args.threshold, args.report) == (0.5, "r")
        args = parser.parse_args(["infer-text", "--embeddings-out", "e.bin"])
        assert args.embeddings_out == "e.bin"

    def test_unknown_flag_exits_two(self, capsys):
        with pytest.raises(SystemExit) as exc:
            run("vocab", "--bogus-flag")
        assert exc.value.code == EXIT_USAGE

    def test_missing_corpus_file_exits_three(self, tmp_path, capsys):
        code = run("vocab", "--corpus", tmp_path / "nope.jsonl")
        assert code == EXIT_INPUT
        err = capsys.readouterr().err.strip()
        assert err.startswith("error: input:") and "\n" not in err

    def test_missing_required_path_flag_exits_two(self, capsys):
        assert run("vocab") == EXIT_USAGE

    def test_invalid_synthetic_spec_exits_two(self, tmp_path, capsys):
        code = run("make-synthetic", "--out", tmp_path / "x.jsonl",
                   "--n-samples", 1)
        assert code == EXIT_USAGE

    def test_numeric_divergence_exits_four(self, workspace, tmp_path, capsys):
        """An absurd learning rate overflows the fused layer; the failure is
        reported as numeric, not as a crash."""
        with warnings.catch_warnings():
            warnings.simplefilter("ignore")
            code = run("train-stage1", "--corpus", workspace / "corpus.jsonl",
                       "--embeddings", workspace / "emb.bin",
                       "--model-out", tmp_path / "junk.ckpt",
                       "--epochs", 3, "--lr", "1e12",
                       "--hidden", 16, "--fused", 8, "--seed", 5)
        assert code == EXIT_NUMERIC
        assert "diverged" in capsys.readouterr().err

    @pytest.mark.parametrize("lr", ["nan", "inf", "-inf"])
    def test_non_finite_learning_rate_exits_three(
        self, workspace, tmp_path, capsys, lr
    ):
        """A flag, a [train] key and the pipeline commands all reach the
        TrainSpec check, which names the value before anything trains."""
        corpus = workspace / "corpus.jsonl"
        config = tmp_path / "run.ini"
        config.write_text(f"[train]\nlr = {lr}\n")
        for argv in (
            ["train-stage1", "--embeddings", workspace / "emb.bin", f"--lr={lr}",
             "--model-out", tmp_path / "s1.ckpt"],
            ["train-stage2", "--model", workspace / "s1.ckpt", "--config", config,
             "--model-out", tmp_path / "s2.ckpt"],
            ["loso", "--train", corpus, "--test", corpus, "--source", "l0",
             f"--lr={lr}"],
        ):
            corpus_flag = [] if argv[0] == "loso" else ["--corpus", corpus]
            assert run(*argv, *corpus_flag) == EXIT_INPUT
            assert f"got {lr}" in capsys.readouterr().err
        assert not list(tmp_path.glob("*.ckpt"))

    def test_non_utf8_path_in_dump_config_exits_three(self, tmp_path, capsys):
        """A path byte that is not UTF-8 reaches argv as a lone surrogate; the
        file opens, but the settings dump cannot hold it. That is an input
        error naming the path, and no dump is left behind."""
        corpus = tmp_path / os.fsdecode(b"c\xff.jsonl")
        save_corpus(make_corpus([("a", "one two", SideLabel.LEFT)]), str(corpus))
        dump = tmp_path / "d.ini"
        assert run("vocab", "--corpus", corpus, "--dump-config", dump) == EXIT_INPUT
        err = capsys.readouterr().err.strip()
        assert err.startswith("error: input: --dump-config")
        assert "c\\udcff.jsonl'" in err and "\n" not in err
        assert not dump.exists() and not list(tmp_path.glob("*.tmp"))

    @pytest.mark.parametrize("path", ["c%1.jsonl", "c%%(x)s.jsonl"])
    def test_percent_in_a_path_is_dumped_and_read_back(self, tmp_path, capsys, monkeypatch,
                                                       path):
        monkeypatch.chdir(tmp_path)
        assert run("make-synthetic", "--out", path, "--n-samples", 10,
                   "--dump-config", "d.ini") == 0
        assert run("make-synthetic", "--config", "d.ini", "--n-samples", 10,
                   "--dump-config", "again.ini") == 0
        assert (tmp_path / "again.ini").read_text() == (tmp_path / "d.ini").read_text()
        assert sorted(p.name for p in tmp_path.iterdir()) == sorted(["again.ini", "d.ini", path])

    def test_path_with_outer_spaces_is_refused_by_dump_config(self, tmp_path, capsys,
                                                              monkeypatch):
        """INI strips a value's outer spaces, so the dump would name another
        file: an input error naming the path, and nothing is written."""
        monkeypatch.chdir(tmp_path)
        assert run("make-synthetic", "--out", " x.jsonl ", "--n-samples", 10,
                   "--dump-config", "d.ini") == EXIT_INPUT
        err = capsys.readouterr().err.strip()
        assert err.startswith("error: input: --dump-config: the out path ' x.jsonl '")
        assert "\n" not in err and not list(tmp_path.iterdir())

    def test_error_is_one_json_line_with_json_logs(self, tmp_path, capsys):
        code = run("vocab", "--corpus", tmp_path / "nope.jsonl", "--json-logs")
        assert code == EXIT_INPUT
        lines = capsys.readouterr().err.strip().splitlines()
        assert len(lines) == 1
        event = json.loads(lines[0])
        assert event["event"] == "error" and event["kind"] == "input"


class TestConfigResolution:
    def test_ini_sections_parsed(self):
        sections = parse_config_text("[pvdm]\ndim = 32\n[run]\nseed = 7\n")
        assert sections == {"pvdm": {"dim": "32"}, "run": {"seed": "7"}}

    def test_json_config_parsed(self):
        sections = parse_config_text('{"pvdm": {"dim": 32}}')
        assert sections == {"pvdm": {"dim": 32}}

    def test_malformed_json_rejected(self):
        with pytest.raises(UsageError, match="JSON"):
            parse_config_text('{"pvdm": [1, 2]}')

    def test_bad_interpolation_rejected(self):
        """configparser expands %(name)s when a section's items are read."""
        with pytest.raises(UsageError, match="bad config file"):
            parse_config_text("[train]\nlr = %(missing)s\n")
        with pytest.raises(UsageError, match="bad config file"):
            parse_config_text("[train]\nlr = 5%\n")

    def test_config_file_applies(self, workspace, tmp_path, capsys):
        config = tmp_path / "run.ini"
        config.write_text(
            f"[paths]\ncorpus = {workspace / 'corpus.jsonl'}\n"
            "[pvdm]\nmin_count = 2\n"
        )
        assert run("vocab", "--config", config) == 0
        payload = json.loads(capsys.readouterr().out)
        assert payload["min_count"] == 2

    def test_flag_beats_config(self, workspace, tmp_path, capsys):
        config = tmp_path / "run.ini"
        config.write_text(
            f"[paths]\ncorpus = {workspace / 'corpus.jsonl'}\n"
            "[pvdm]\nmin_count = 2\n"
        )
        assert run("vocab", "--config", config, "--min-count", 1) == 0
        assert json.loads(capsys.readouterr().out)["min_count"] == 1

    def test_unknown_section_key_exits_two(self, workspace, tmp_path, capsys):
        config = tmp_path / "run.ini"
        config.write_text("[pvdm]\nbogus = 1\n")
        code = run("vocab", "--config", config,
                   "--corpus", workspace / "corpus.jsonl")
        assert code == EXIT_USAGE

    def test_unknown_sections_rejected(self):
        with pytest.raises(UsageError, match=r"\[hnswx\], \[pvdmm\]"):
            parse_config_text("[pvdmm]\ndim = 3\n[hnswx]\nm = 4\n[run]\nseed = 1\n")
        with pytest.raises(UsageError, match=r"\[hnsw\]"):
            parse_config_text('{"hnsw": {"k": 10}}')

    def test_hnsw_section_exits_two(self, workspace, tmp_path, capsys):
        """The dedup join has no settings, so a stale [hnsw] is refused."""
        config = tmp_path / "run.ini"
        config.write_text("[hnsw]\nk = 10\n")
        code = run("dedup", "--config", config, "--corpus",
                   workspace / "corpus.jsonl", "--threshold", "0.5",
                   "--out", tmp_path / "out.jsonl")
        assert code == EXIT_USAGE
        assert "[hnsw]" in capsys.readouterr().err

    def test_dump_round_trips(self, workspace, tmp_path, capsys):
        """The dumped effective config, fed back in, dumps byte-identically;
        --epochs sets the epochs of its own command's section only, and a
        section the command has no flag for is not dumped."""
        corpus = workspace / "corpus.jsonl"
        for argv, epochs in (
            (["vocab", "--min-count", 3], None),
            (["train-stage2", "--model", workspace / "s1.ckpt", "--epochs", 3,
              "--model-out", tmp_path / "s2.ckpt"], (None, 3)),
            (["train-text", "--model-out", tmp_path / "t.pv", "--epochs", 3,
              "--dim", 4, "--window", 1, "--min-count", 1], (3, None)),
        ):
            first = tmp_path / f"{argv[0]}-first.ini"
            second = tmp_path / f"{argv[0]}-second.ini"
            assert run(*argv, "--corpus", corpus, "--seed", 11,
                       "--dump-config", first) == 0
            assert run(argv[0], "--config", first, "--dump-config", second) == 0
            assert first.read_bytes() == second.read_bytes()
            if epochs is not None:
                sections = parse_config_text(first.read_text())
                dumped = (sections.get("pvdm", {}).get("epochs"),
                          sections.get("train", {}).get("stage2_epochs"))
                assert dumped == tuple(None if n is None else str(n) for n in epochs)
        capsys.readouterr()

    def test_train_keys_are_the_pipeline_fields(self, workspace, tmp_path, capsys):
        """[train] is PipelineConfig's scalar fields: one epochs key per head."""
        dump = tmp_path / "s1.ini"
        assert run("train-stage1", "--corpus", workspace / "corpus.jsonl",
                   "--embeddings", workspace / "emb.bin", "--epochs", 0,
                   "--model-out", tmp_path / "s1.ckpt", "--dump-config", dump) == 0
        keys = list(parse_config_text(dump.read_text())["train"])
        assert keys == [f.name for f in dataclasses.fields(PipelineConfig)][1:-1]
        assert keys == ["stage1_epochs", "stage2_epochs", "words_epochs", "lr",
                        "batch_size", "hidden", "fused", "class_weights"]
        capsys.readouterr()

    def test_old_epochs_key_exits_two_naming_its_replacements(
        self, workspace, tmp_path, capsys
    ):
        """[train] epochs is refused, not translated, by every command."""
        config = tmp_path / "old.ini"
        config.write_text("[train]\nepochs = 3\n")
        for argv in (
            ["train-stage1", "--embeddings", workspace / "emb.bin",
             "--model-out", tmp_path / "s1.ckpt"],
            ["eval", "--model", workspace / "s2.ckpt"],
        ):
            code = run(*argv, "--corpus", workspace / "corpus.jsonl",
                       "--config", config)
            assert code == EXIT_USAGE
            err = capsys.readouterr().err
            assert "unknown keys in [train]: epochs" in err
            for key in ("stage1_epochs", "stage2_epochs", "words_epochs"):
                assert key in err
        assert not (tmp_path / "s1.ckpt").exists()

    def test_stage_commands_and_sweeps_read_one_epochs_key(
        self, workspace, split_corpora, tmp_path, capsys, monkeypatch
    ):
        """One config file trains stage 1 for the same epochs under
        train-stage1 and truncation-sweep: both read [train] stage1_epochs."""
        seen = []

        def record(corpus, embeddings, spec, **kwargs):
            seen.append(spec.epochs)
            raise NumericError("stop after recording the spec")

        monkeypatch.setattr("weakbias.cli.train_stage1", record)
        monkeypatch.setattr("weakbias.pipeline.train_stage1", record)
        config = tmp_path / "run.ini"
        config.write_text("[train]\nstage1_epochs = 3\n")
        assert run("train-stage1", "--corpus", workspace / "corpus.jsonl",
                   "--embeddings", workspace / "emb.bin", "--config", config,
                   "--model-out", tmp_path / "s1.ckpt") == EXIT_NUMERIC
        assert run("truncation-sweep", "--train", split_corpora / "tr.jsonl",
                   "--test", split_corpora / "te.jsonl", "--ks", "1",
                   "--config", config, "--dim", 4, "--window", 1,
                   "--pvdm-epochs", 1, "--min-count", 1) == EXIT_NUMERIC
        assert seen == [3, 3]
        capsys.readouterr()

    def test_sections_a_command_has_no_flag_for_are_not_validated(
        self, workspace, tmp_path, capsys
    ):
        """A bad [pvdm] value stops only the commands that read [pvdm];
        unknown keys still stop every command."""
        corpus = workspace / "corpus.jsonl"
        config = tmp_path / "bad.ini"
        config.write_text("[pvdm]\nwindow = 0\n[train]\nlr = fast\n")
        dump = tmp_path / "eval.ini"
        assert run("select-words", "--corpus", corpus, "--keep", 3,
                   "--config", config) == 0
        assert run("eval", "--corpus", corpus, "--model", workspace / "s2.ckpt",
                   "--config", config, "--dump-config", dump) == 0
        assert set(parse_config_text(dump.read_text())) == {"paths", "run"}
        capsys.readouterr()
        assert run("train-text", "--corpus", corpus, "--config", config,
                   "--model-out", tmp_path / "t.pv") == EXIT_INPUT
        assert "window must be >= 1, got 0" in capsys.readouterr().err
        assert run("train-stage2", "--corpus", corpus, "--config", config,
                   "--model", workspace / "s1.ckpt",
                   "--model-out", tmp_path / "s2.ckpt") == EXIT_USAGE
        assert "bad value 'fast' for [train] lr" in capsys.readouterr().err
        config.write_text("[pvdm]\nwindow = 2\nbogus = 1\n")
        assert run("select-words", "--corpus", corpus, "--config", config) == EXIT_USAGE
        assert "unknown keys in [pvdm]: bogus" in capsys.readouterr().err

    def test_seed_precedence(self, workspace, tmp_path, capsys, monkeypatch):
        """Flag beats config; config beats WEAKBIAS_SEED; env beats the 0
        default."""
        corpus = workspace / "corpus.jsonl"
        dump = tmp_path / "eff.ini"

        def effective_seed(*argv):
            assert run("vocab", "--corpus", corpus, "--dump-config", dump,
                       *argv) == 0
            capsys.readouterr()
            return int(parse_config_text(dump.read_text())["run"]["seed"])

        monkeypatch.delenv("WEAKBIAS_SEED", raising=False)
        assert effective_seed() == 0
        monkeypatch.setenv("WEAKBIAS_SEED", "123")
        assert effective_seed() == 123
        config = tmp_path / "seeded.ini"
        config.write_text("[run]\nseed = 55\n")
        assert effective_seed("--config", config) == 55
        assert effective_seed("--config", config, "--seed", 7) == 7

    def test_consecutive_calls_do_not_share_values(
        self, workspace, tmp_path, capsys, monkeypatch
    ):
        """main() reuses one parser, so nothing one call parses may reach the
        next: a seed, a flag or a subcommand's options left out of a call
        resolve from their defaults there."""
        corpus = workspace / "corpus.jsonl"
        first, second = tmp_path / "first.ini", tmp_path / "second.ini"

        def dumped(path):
            sections = parse_config_text(path.read_text())
            return int(sections["run"]["seed"]), int(sections["pvdm"]["min_count"])

        monkeypatch.delenv("WEAKBIAS_SEED", raising=False)
        assert run("vocab", "--corpus", corpus, "--seed", 7, "--min-count", 3,
                   "--json-logs", "--dump-config", first) == 0
        assert run("make-synthetic", "--out", tmp_path / "s.jsonl",
                   "--n-samples", 20, "--seed", 9) == 0
        assert run("vocab", "--corpus", corpus, "--dump-config", second) == 0
        assert dumped(first) == (7, 3)
        default_min_count = dumped(second)[1]
        assert dumped(second) == (0, default_min_count) and default_min_count != 3
        monkeypatch.setenv("WEAKBIAS_SEED", "123")
        second.unlink()
        assert run("vocab", "--corpus", corpus) == 0
        assert not second.exists()  # --dump-config did not carry over
        assert run("vocab", "--corpus", corpus, "--dump-config", second) == 0
        assert dumped(second)[0] == 123
        capsys.readouterr()
        assert run("vocab", "--corpus", tmp_path / "nope.jsonl") == EXIT_INPUT
        assert capsys.readouterr().err.startswith("error: input:")  # not JSON logs

    def test_bad_env_seed_exits_two(self, workspace, capsys, monkeypatch):
        monkeypatch.setenv("WEAKBIAS_SEED", "abc")
        code = run("vocab", "--corpus", workspace / "corpus.jsonl")
        assert code == EXIT_USAGE


# Values a config file may hold for a key: in-range values, JSON values of
# every type (inf and nan included), and strings that int(), float() or the
# boolean words accept or refuse.
CONFIG_VALUES = st.one_of(
    st.integers(1, 64),
    st.floats(1e-4, 1.0),
    st.integers(-(10**30), 10**30),
    st.floats(),
    st.sampled_from([True, False, None, [1], {"a": 1}, 1.5, 2.0, float("inf"), float("nan")]),
    st.sampled_from(["7", " 12 ", "1_000", "1.5", "-3", "0", "1e400", "nan", "inf", "true",
                     "no", "", "abc", "0x10", "9" * 30]),
    st.text(alphabet="0123456789.-+e_ xnaift", max_size=8),
)
# (section, key) of every settable value: [pvdm] and [train] are the config
# types' fields, the seed is [run]'s, and [paths] out a path.
CONFIG_KEYS = (
    [("pvdm", f.name) for f in dataclasses.fields(PvdmConfig) if f.name != "seed"]
    + [("train", f.name) for f in dataclasses.fields(PipelineConfig)[1:-1]]
    + [("run", "seed"), ("paths", "out")]
)
# Path strings: any text but lone surrogates, which a UTF-8 file cannot hold,
# with spaces, "%" and line breaks more likely than at random.
PATH_VALUES = st.text(st.characters(blacklist_categories=("Cs",)) | st.sampled_from(" %\n\r"),
                      max_size=8)


def resolve_config(tmp_path, name, text):
    """The RunConfig `loso` (a command that reads both [pvdm] and [train])
    resolves from a config file holding `text`, with its --dump-config and
    an optional [paths] out."""
    path, dump = tmp_path / f"{name}.cfg", tmp_path / f"{name}.ini"
    path.write_text(text, encoding="utf-8")
    args = build_parser().parse_args(
        ["loso", "--source", "s", "--config", str(path), "--dump-config", str(dump)]
    )
    return build_run_config(args, optional=("out",)), dump


class TestConfigValues:
    """A section value is refused with a usage error naming its key unless it
    is of the key's type: an int key takes a JSON integer or a string int()
    accepts, never a boolean, a fraction or a float; a float key takes a
    number. The config types refuse a rate that is not finite, from a file
    as from a flag: an input error."""

    @pytest.mark.parametrize("value", ["1e400", "1.5", "true", "2.0", '"1.5"', "[4]",
                                       "null", "1" * 5000])
    def test_bad_json_int_exits_two(self, workspace, tmp_path, capsys, value):
        config = tmp_path / "cfg.json"
        config.write_text('{"pvdm": {"dim": %s}}' % value)
        code = run("train-text", "--corpus", workspace / "corpus.jsonl", "--config", config,
                   "--model-out", tmp_path / "t.pv")
        err = capsys.readouterr().err.strip()
        assert code == EXIT_USAGE and err.startswith("error: usage:") and "\n" not in err
        assert "[pvdm] dim" in err or "not valid JSON" in err
        assert not (tmp_path / "t.pv").exists()

    @pytest.mark.parametrize("text, key", [
        ("[pvdm]\ndim = 1.5\n", "[pvdm] dim"),
        ("[pvdm]\ndim = true\n", "[pvdm] dim"),
        ('{"run": {"seed": true}}', "[run] seed"),
        ('{"run": {"seed": 7.0}}', "[run] seed"),
        ('{"pvdm": {"final_lr": false}}', "[pvdm] final_lr"),
        ('{"train": {"lr": "fast"}}', "[train] lr"),
    ])
    def test_value_of_the_wrong_type_names_its_key(self, tmp_path, text, key):
        with pytest.raises(UsageError, match=re.escape(key)):
            resolve_config(tmp_path, "bad", text)

    @pytest.mark.parametrize("text, message", [
        ('{"pvdm": {"initial_lr": Infinity}}', "final_lr <= initial_lr < inf, got 0.0001 / inf"),
        ('{"pvdm": {"initial_lr": 1e400}}', "final_lr <= initial_lr < inf, got 0.0001 / inf"),
        ("[pvdm]\nfinal_lr = nan\n", "final_lr <= initial_lr < inf, got nan / 0.025"),
        ("[train]\nlr = nan\n", "must be finite and > 0, got nan"),
        ('{"train": {"lr": -Infinity}}', "must be finite and > 0, got -inf"),
    ])
    def test_non_finite_float_is_an_input_error(self, tmp_path, text, message):
        """The config types' check, which flags reach too (TestExitCodes): exit 3."""
        with pytest.raises(InputError, match=re.escape(message)):
            resolve_config(tmp_path, "bad", text)

    @pytest.mark.parametrize("flag", ["--initial-lr=inf", "--initial-lr=nan", "--final-lr=nan"])
    def test_non_finite_pvdm_rate_flag_exits_three(self, workspace, tmp_path, capsys, flag):
        """As the same value in a config file does, before anything trains."""
        code = run("train-text", "--corpus", workspace / "corpus.jsonl", flag,
                   "--model-out", tmp_path / "t.pv")
        assert code == EXIT_INPUT
        assert "final_lr <= initial_lr < inf" in capsys.readouterr().err
        assert not (tmp_path / "t.pv").exists()

    @pytest.mark.parametrize("text, message", [
        ('{"pvdm": {"dim": 99999999999999999999}}', "dim must be in [1, 4294967295]"),
        ('{"pvdm": {"dim": 4294967296}}', "dim must be in [1, 4294967295], got 4294967296"),
        ('{"train": {"hidden": 100000000000000000000}}', "hidden must be in [1, 4294967295]"),
        ("[train]\nfused = 4294967296\n", "fused must be in [1, 4294967295], got 4294967296"),
        ("[train]\nfused = 0\n", "fused must be in [1, 4294967295], got 0"),
    ])
    def test_dimension_beyond_its_u32_file_field_is_an_input_error(self, tmp_path, text,
                                                                   message):
        """The model file and the checkpoint store these as u32 fields."""
        with pytest.raises(InputError, match=re.escape(message)):
            resolve_config(tmp_path, "bad", text)

    def test_huge_dim_exits_three(self, workspace, tmp_path, capsys):
        config = tmp_path / "cfg.json"
        config.write_text('{"pvdm": {"dim": 99999999999999999999}}')
        code = run("train-text", "--corpus", workspace / "corpus.jsonl", "--config", config,
                   "--model-out", tmp_path / "t.pv")
        err = capsys.readouterr().err.strip()
        assert code == EXIT_INPUT and err.startswith("error: input: dim must be in")
        assert not (tmp_path / "t.pv").exists()

    @given(value=CONFIG_VALUES.filter(lambda value: not isinstance(value, str)))
    @example(value=True)
    @example(value=[1])
    @settings(max_examples=50, deadline=None)
    def test_non_string_path_names_its_key(self, tmp_path_factory, value):
        """A [paths] value is a string: in JSON, anything else is a usage
        error naming the key, never a file named str(value)."""
        config = tmp_path_factory.mktemp("cfg") / "paths.json"
        config.write_text(json.dumps({"paths": {"out": value}}), encoding="utf-8")
        args = build_parser().parse_args(["loso", "--source", "s", "--config", str(config)])
        with pytest.raises(UsageError, match=re.escape("for [paths] out: expected a string")):
            build_run_config(args, optional=("out",))

    def test_non_string_corpus_path_exits_two(self, tmp_path, capsys, monkeypatch):
        monkeypatch.chdir(tmp_path)
        (tmp_path / "True").write_text("")
        config = tmp_path / "cfg.json"
        config.write_text('{"paths": {"corpus": true}}')
        assert run("vocab", "--config", config) == EXIT_USAGE
        assert "bad value True for [paths] corpus" in capsys.readouterr().err

    @pytest.mark.parametrize("text, dim", [
        ('{"pvdm": {"dim": 12}}', 12), ('{"pvdm": {"dim": "12"}}', 12),
        ("[pvdm]\ndim = 12\n", 12), ("[pvdm]\ndim =  1_2 \n", 12),
        ('{"pvdm": {"dim": 4294967295}}', 2**32 - 1),  # the largest the model file holds
    ])
    def test_integers_are_read(self, tmp_path, text, dim):
        config, _ = resolve_config(tmp_path, "good", text)
        assert config.pipeline.pvdm.dim == dim

    @given(
        ini=st.booleans(),
        values=st.lists(
            st.tuples(st.sampled_from(CONFIG_KEYS), CONFIG_VALUES)
            | st.tuples(st.just(("paths", "out")), PATH_VALUES),
            min_size=1,
            max_size=3,
        ),
    )
    @example(ini=False, values=[(("pvdm", "dim"), float("inf"))])  # int(inf): OverflowError
    @example(ini=False, values=[(("paths", "out"), " x.txt ")])  # INI strips the spaces
    @example(ini=False, values=[(("paths", "out"), "c%1.jsonl")])  # "%" interpolates in INI
    @example(ini=False, values=[(("paths", "out"), "a\rb")])  # read back as two lines
    @example(ini=True, values=[(("train", "lr"), "nan")])  # would not equal itself once read back
    @settings(max_examples=150, deadline=None)
    def test_mutated_values_are_refused_or_round_trip(self, tmp_path_factory, ini, values):
        """Each config text with mutated values raises UsageError or
        InputError, or resolves to a config whose --dump-config, read back,
        resolves to the same config."""
        sections = {}
        for (section, key), value in values:
            sections.setdefault(section, {})[key] = value
        if ini:
            text = "".join(
                f"[{section}]\n" + "".join(f"{k} = {v}\n" for k, v in body.items())
                for section, body in sections.items()
            )
        else:
            text = json.dumps(sections)
        tmp_path = tmp_path_factory.mktemp("cfg")
        try:
            config, dump = resolve_config(tmp_path, "first", text)
        except (UsageError, InputError):
            return
        again, _ = resolve_config(tmp_path, "second", dump.read_text(encoding="utf-8"))
        assert again == config


class TestMakeSynthetic:
    COMMON = {"-h", "--help", "--config", "--seed", "--json-logs", "--dump-config"}

    def test_help_lists_the_same_flags(self, capsys):
        """The flags generated from SyntheticSpec keep every spelling."""
        with pytest.raises(SystemExit):
            run("make-synthetic", "--help")
        listed = set(re.findall(r"--[a-z][a-z-]*", capsys.readouterr().out)) - self.COMMON
        assert listed == {
            "--out", "--n-samples", "--feature-dim", "--signal-dims", "--signal-scale",
            "--signal-noise", "--nuisance-scale", "--label-correlation", "--left-fraction",
            "--words-per-topic", "--shared-words", "--sentences-per-doc",
            "--words-per-sentence", "--topic-sentence-anywhere", "--sources-per-side",
        }
        assert option_strings(subparsers()["make-synthetic"]) - self.COMMON == listed

    def test_every_spec_field_but_the_seed_has_a_flag(self):
        parser = subparsers()["make-synthetic"]
        dests = {action.dest for action in parser._actions if action.option_strings}
        fields = {f.name for f in dataclasses.fields(SyntheticSpec)}
        assert fields - {"seed"} <= dests  # the seed is the common --seed
        args = parser.parse_args(["--topic-sentence-anywhere"])
        assert args.n_samples == 200 and args.topic_sentence_last is False
        spec = SyntheticSpec(**{f: getattr(args, f) for f in fields - {"seed"}})
        assert spec == SyntheticSpec(n_samples=200, topic_sentence_last=False)

    def test_fixed_seed_byte_identical(self, tmp_path, capsys):
        a, b = tmp_path / "a.jsonl", tmp_path / "b.jsonl"
        assert run("make-synthetic", "--out", a, "--n-samples", 50,
                   "--seed", 7) == 0
        assert run("make-synthetic", "--out", b, "--n-samples", 50,
                   "--seed", 7) == 0
        assert a.read_bytes() == b.read_bytes()

    def test_seed_changes_the_corpus(self, tmp_path, capsys):
        a, b = tmp_path / "a.jsonl", tmp_path / "b.jsonl"
        assert run("make-synthetic", "--out", a, "--n-samples", 50,
                   "--seed", 7) == 0
        assert run("make-synthetic", "--out", b, "--n-samples", 50,
                   "--seed", 8) == 0
        assert a.read_bytes() != b.read_bytes()


class TestArtifacts:
    def test_corpus_written(self, workspace):
        assert len(load_corpus(str(workspace / "corpus.jsonl"))) == 200

    def test_text_model_round_trips(self, workspace):
        model = load_model(str(workspace / "text.pv"))
        assert model.doc_vectors.shape == (200, 12)
        assert (model.config.window, model.config.epochs, model.config.min_count) == (2, 2, 1)
        assert model.doc_ids == load_corpus(str(workspace / "corpus.jsonl")).ids()

    def test_train_text_prints_epochs_then_saves(self, workspace, tmp_path, capsys):
        assert run("train-text", "--corpus", workspace / "corpus.jsonl",
                   "--model-out", tmp_path / "t.pv", "--embeddings-out", tmp_path / "e.jsonl",
                   "--dim", 4, "--epochs", 3, "--min-count", 1, "--json-logs") == 0
        events = [json.loads(line) for line in capsys.readouterr().err.splitlines()]
        assert [(e["event"], e.get("stage"), e.get("epoch")) for e in events] == [
            ("epoch", "pvdm", 0), ("epoch", "pvdm", 1), ("epoch", "pvdm", 2),
            ("saved", None, None), ("saved", None, None),
        ]
        assert load_model(str(tmp_path / "t.pv")).epoch_losses == []  # not saved
        assert "model" in events[3] and "embeddings" in events[4]

    def test_window_beyond_int64_infers_as_the_longest_document(self, tmp_path, capsys):
        """A window of 2**63 - 2 is carried by the model file; inference
        clamps it to the longest document, where it gives the bits of any
        window at least that long."""
        corpus = tmp_path / "c.jsonl"
        save_corpus(make_corpus([("a", "red blue red green", SideLabel.LEFT),
                                 ("b", "blue green green red blue", SideLabel.RIGHT)]),
                    str(corpus))
        for window in (2**63 - 2, 5):
            assert run("train-text", "--corpus", corpus, "--model-out", tmp_path / f"{window}.pv",
                       "--dim", 3, "--epochs", 2, "--min-count", 1, "--window", window) == 0
            assert load_model(str(tmp_path / f"{window}.pv")).config.window == window
            assert run("infer-text", "--model", tmp_path / f"{window}.pv", "--corpus", corpus,
                       "--embeddings-out", tmp_path / f"{window}.jsonl", "--steps", 3) == 0
        assert (tmp_path / f"{2**63 - 2}.jsonl").read_bytes() == (tmp_path / "5.jsonl").read_bytes()

    def test_training_embeddings_unit_norm(self, workspace):
        embeddings = load_embeddings(str(workspace / "emb.bin"))
        assert len(embeddings) == 200
        norms = [np.linalg.norm(v) for v in embeddings.values()]
        np.testing.assert_allclose(norms, 1.0, rtol=1e-5)

    def test_vocab_report(self, workspace, capsys):
        assert run("vocab", "--corpus", workspace / "corpus.jsonl",
                   "--min-count", 1) == 0
        payload = json.loads(capsys.readouterr().out)
        assert payload["size"] == len(payload["counts"]) > 0

    def test_infer_text_covers_the_corpus(self, workspace, tmp_path, capsys):
        out = tmp_path / "inferred.bin"
        assert run("infer-text", "--model", workspace / "text.pv",
                   "--corpus", workspace / "corpus.jsonl",
                   "--embeddings-out", out, "--steps", 3, "--seed", 5) == 0
        inferred = load_embeddings(str(out))
        corpus = load_corpus(str(workspace / "corpus.jsonl"))
        assert set(inferred) == set(corpus.ids())

    def test_infer_text_names_the_out_of_vocabulary_sample(
        self, workspace, tmp_path, capsys
    ):
        corpus = tmp_path / "oov.jsonl"
        save_corpus(
            make_corpus([("known", "red00 red01", SideLabel.LEFT),
                         ("unheard", "qqq zzz", SideLabel.RIGHT)]),
            str(corpus),
        )
        assert run("infer-text", "--model", workspace / "text.pv",
                   "--corpus", corpus, "--embeddings-out", tmp_path / "e.jsonl",
                   "--steps", 2) == EXIT_INPUT
        assert "'unheard' has no in-vocabulary tokens" in capsys.readouterr().err
        assert not (tmp_path / "e.jsonl").exists()

    def test_infer_text_reruns_byte_identical(self, workspace, tmp_path, capsys):
        outs = [tmp_path / "a.jsonl", tmp_path / "b.jsonl"]
        for out in outs:
            assert run("infer-text", "--model", workspace / "text.pv",
                       "--corpus", workspace / "corpus.jsonl",
                       "--embeddings-out", out, "--steps", 3, "--seed", 5) == 0
        assert outs[0].read_bytes() == outs[1].read_bytes()

    def test_nearest_words_output(self, workspace, capsys):
        assert run("nearest-words", "--model", workspace / "text.pv",
                   "--query", "red00 red01", "--n", 3, "--seed", 5) == 0
        lines = capsys.readouterr().out.strip().splitlines()
        assert len(lines) == 3
        for line in lines:
            word, similarity = line.split("\t")
            assert -1.0 <= float(similarity) <= 1.0

    @pytest.mark.parametrize("embed", ["infer", "average"])
    def test_nearest_words_without_vocabulary_tokens_exits_three(self, workspace, capsys,
                                                                  embed):
        assert run("nearest-words", "--model", workspace / "text.pv",
                   "--query", "zzzz qqq", "--embed", embed) == EXIT_INPUT
        captured = capsys.readouterr()
        assert captured.err == "error: input: query has no in-vocabulary tokens\n"
        assert captured.out == ""

    def test_dedup_writes_corpus_and_report(self, workspace, tmp_path, capsys):
        out, report = tmp_path / "dedup.jsonl", tmp_path / "clusters.jsonl"
        assert run("dedup", "--corpus", workspace / "corpus.jsonl",
                   "--threshold", "1e-6", "--out", out, "--report", report,
                   "--seed", 5) == 0
        assert len(load_corpus(str(out))) == 200  # nothing that close
        assert report.exists()

    def test_dedup_histogram_rows(self, workspace, capsys):
        assert run("dedup", "--corpus", workspace / "corpus.jsonl",
                   "--histogram", "--bins", 5, "--sample-size", 20,
                   "--seed", 5) == 0
        rows = capsys.readouterr().out.strip().splitlines()
        assert len(rows) == 5
        low, high, count = rows[0].split("\t")
        assert float(low) < float(high) and int(count) >= 0

    def test_dedup_without_threshold_exits_two(self, workspace, tmp_path, capsys):
        code = run("dedup", "--corpus", workspace / "corpus.jsonl",
                   "--out", tmp_path / "x.jsonl")
        assert code == EXIT_USAGE

    def test_checkpoints_load(self, workspace):
        stage2 = load_checkpoint(str(workspace / "s2.ckpt"))
        assert stage2.head2 is not None

    def test_train_stage1_matches_the_library_call(self, workspace, tmp_path, capsys):
        """train-stage1 --epochs 2 trains exactly what stage_spec gives."""
        out, expected = tmp_path / "cli.ckpt", tmp_path / "lib.ckpt"
        assert run("train-stage1", "--corpus", workspace / "corpus.jsonl",
                   "--embeddings", workspace / "emb.bin", "--model-out", out,
                   "--epochs", 2, "--lr", "1e-3", "--hidden", 16, "--fused", 8,
                   "--seed", 5) == 0
        corpus = load_corpus(str(workspace / "corpus.jsonl"))
        cfg = PipelineConfig(pvdm=PvdmConfig(), stage1_epochs=2, lr=1e-3,
                             hidden=16, fused=8, seed=5)
        model = train_stage1(
            corpus, load_embeddings(str(workspace / "emb.bin")),
            cfg.stage_spec("stage1", corpus), hidden=cfg.hidden, fused=cfg.fused,
        )
        save_checkpoint(model, str(expected))
        assert out.read_bytes() == expected.read_bytes()

    def test_same_seed_gives_identical_checkpoints(self, workspace, tmp_path, capsys):
        """The root seed fully determines a training run."""
        a, b = tmp_path / "a.ckpt", tmp_path / "b.ckpt"
        for path in (a, b):
            assert run("train-stage1", "--corpus", workspace / "corpus.jsonl",
                       "--embeddings", workspace / "emb.bin",
                       "--model-out", path, "--epochs", 1, "--lr", "1e-3",
                       "--hidden", 16, "--fused", 8, "--seed", 21) == 0
        assert a.read_bytes() == b.read_bytes()

    def test_ablate_ignores_the_text_input(self, workspace, tmp_path, capsys):
        out = tmp_path / "ablated.ckpt"
        assert run("ablate", "--model", workspace / "s2.ckpt",
                   "--model-out", out) == 0
        model = load_checkpoint(str(out))
        corpus = load_corpus(str(workspace / "corpus.jsonl"))
        x = corpus.features()[:8]
        rng = np.random.default_rng(0)
        noise = rng.normal(size=(8, model.text_dim)).astype(np.float32)
        zeros = np.zeros_like(noise)
        assert np.array_equal(forward_stage1(model, x, noise),
                              forward_stage1(model, x, zeros))

    def test_json_logs_epoch_lines(self, workspace, tmp_path, capsys):
        assert run("train-stage2", "--corpus", workspace / "corpus.jsonl",
                   "--model", workspace / "s1.ckpt",
                   "--model-out", tmp_path / "s2b.ckpt",
                   "--epochs", 2, "--lr", "1e-3", "--seed", 5,
                   "--json-logs") == 0
        events = [json.loads(line)
                  for line in capsys.readouterr().err.strip().splitlines()]
        epochs = [e for e in events if e["event"] == "epoch"]
        assert [e["epoch"] for e in epochs] == [0, 1]
        assert all(np.isfinite(e["loss"]) for e in epochs)


class TestWordHeadCommands:
    def test_select_train_rank(self, workspace, tmp_path, capsys):
        words_file = tmp_path / "words.txt"
        assert run("select-words", "--corpus", workspace / "corpus.jsonl",
                   "--keep", 5, "--out", words_file) == 0
        words = words_file.read_text().splitlines()
        assert len(words) == 5
        model_out = tmp_path / "words.ckpt"
        assert run("train-words", "--corpus", workspace / "corpus.jsonl",
                   "--embeddings", workspace / "emb.bin",
                   "--model", workspace / "s1.ckpt",
                   "--words", words_file, "--model-out", model_out,
                   "--epochs", 1, "--lr", "1e-3", "--seed", 5) == 0
        assert run("rank-images", "--corpus", workspace / "corpus.jsonl",
                   "--embeddings", workspace / "emb.bin",
                   "--model", model_out, "--word", words[0], "--top", 4) == 0
        ids = capsys.readouterr().out.strip().splitlines()
        corpus = load_corpus(str(workspace / "corpus.jsonl"))
        assert len(ids) == 4 and all(i in corpus for i in ids)


class TestTokensOnFirstUse:
    def test_commands_without_text_never_tokenize(self, workspace, tmp_path, monkeypatch, capsys):
        """dedup, the classifier stages and eval read no text, so loading
        their corpus must not tokenize it; vocab, which does, is the control."""
        calls = []
        monkeypatch.setattr("weakbias.corpus.tokenize", lambda text: calls.append(text) or [])
        corpus = workspace / "corpus.jsonl"
        assert run("dedup", "--corpus", corpus, "--threshold", "0.5",
                   "--out", tmp_path / "d.jsonl", "--report", tmp_path / "r.jsonl",
                   "--seed", 5) == 0
        assert run("train-stage1", "--corpus", corpus, "--embeddings", workspace / "emb.bin",
                   "--model-out", tmp_path / "s1.ckpt", "--epochs", 1,
                   "--hidden", 16, "--fused", 8, "--seed", 5) == 0
        assert run("train-stage2", "--corpus", corpus, "--model", tmp_path / "s1.ckpt",
                   "--model-out", tmp_path / "s2.ckpt", "--epochs", 1, "--seed", 5) == 0
        assert run("eval", "--corpus", corpus, "--model", workspace / "s2.ckpt") == 0
        assert run("eval", "--corpus", corpus, "--model", workspace / "s1.ckpt",
                   "--stage1", "--embeddings", workspace / "emb.bin") == 0
        assert calls == []
        assert run("vocab", "--corpus", corpus) == EXIT_INPUT  # every text tokenizes to []
        assert len(calls) == 200


class TestUndecodableCorpus:
    @pytest.mark.parametrize("tail", [b"\xff\n", b"[" * 100_000 + b"]" * 100_000 + b"\n"],
                             ids=["non-utf8", "deep-nesting"])
    def test_exits_three(self, workspace, tmp_path, capsys, tail):
        """A byte that is not UTF-8 or JSON nested beyond the decoder's depth
        is an input error, not a traceback."""
        corpus = tmp_path / "c.jsonl"
        corpus.write_bytes((workspace / "corpus.jsonl").read_bytes() + tail)
        code = run("dedup", "--corpus", corpus, "--threshold", "1",
                   "--out", tmp_path / "d.jsonl")
        assert code == EXIT_INPUT
        err = capsys.readouterr().err.strip()
        assert err.startswith("error: input:") and "\n" not in err
        assert not (tmp_path / "d.jsonl").exists()


class TestUndecodableEmbeddingsAndConfig:
    """The embeddings sidecar and the config file fail as the corpus does:
    exit 3 with one input error line, never a traceback."""

    @pytest.mark.parametrize("tail, message", [
        (b"\xff", "emb.jsonl: not UTF-8 text: byte 0xff"),
        (b"[" * 100_000 + b"\n", "line 201: JSON nested too deeply"),
        (b'{"id": "extra", "embedding": [0.5]}\n',
         "line 201: embedding of 'extra' length 1 does not match length"),
    ], ids=["non-utf8", "deep-nesting", "mixed-length"])
    def test_embeddings_exit_three(self, workspace, tmp_path, capsys, tail, message):
        embeddings = tmp_path / "emb.jsonl"
        embeddings.write_bytes((workspace / "emb.bin").read_bytes() + tail)
        code = run("eval", "--corpus", workspace / "corpus.jsonl",
                   "--model", workspace / "s1.ckpt", "--stage1", "--embeddings", embeddings)
        assert code == EXIT_INPUT
        err = capsys.readouterr().err.strip()
        assert err.startswith("error: input:") and "\n" not in err
        assert message in err

    @pytest.mark.parametrize("body, message", [
        (b"[run]\nseed = \xff\n", "run.ini: not UTF-8 text: byte 0xff"),
        (b'{"run": ' + b"[" * 100_000 + b"}", "config JSON is nested too deeply"),
    ], ids=["non-utf8", "deep-nesting"])
    def test_config_exits_three(self, workspace, tmp_path, capsys, body, message):
        config = tmp_path / "run.ini"
        config.write_bytes(body)
        code = run("eval", "--config", config, "--corpus", workspace / "corpus.jsonl",
                   "--model", workspace / "s2.ckpt")
        assert code == EXIT_INPUT
        err = capsys.readouterr().err.strip()
        assert err.startswith("error: input:") and "\n" not in err
        assert message in err


class TestCorruptCountField:
    """A model or checkpoint whose header declares 2**32 - 1 of something, or
    that is of the first version, exits 3 with one input error line, not with
    a MemoryError traceback."""

    def corrupt(self, source, tmp_path, key):
        path = tmp_path / source.name
        data = source.read_bytes()
        if key is None:  # the header's byte length
            path.write_bytes(data[:8] + b"\xff" * 4 + data[12:])
        else:
            path.write_bytes(with_header_field(data, key, 2**32 - 1))
        return path

    def first_version(self, source, tmp_path):
        path = tmp_path / source.name
        data = source.read_bytes()
        path.write_bytes(data[:4] + (1).to_bytes(4, "little") + data[8:])
        return path

    def infer_text(self, model, workspace, tmp_path, capsys):
        code = run("infer-text", "--model", model, "--corpus", workspace / "corpus.jsonl",
                   "--embeddings-out", tmp_path / "emb.jsonl")
        assert code == EXIT_INPUT and not (tmp_path / "emb.jsonl").exists()
        err = capsys.readouterr().err.strip()
        assert "\n" not in err
        return err

    def eval_checkpoint(self, model, workspace, capsys):
        code = run("eval", "--corpus", workspace / "corpus.jsonl", "--model", model)
        assert code == EXIT_INPUT
        err = capsys.readouterr().err.strip()
        assert "\n" not in err
        return err

    @pytest.mark.parametrize("key", ["dim", None], ids=["dim", "header-length"])
    def test_infer_text_model_size(self, workspace, tmp_path, capsys, key):
        model = self.corrupt(workspace / "text.pv", tmp_path, key)
        err = self.infer_text(model, workspace, tmp_path, capsys)
        assert err.startswith("error: input: truncated file: wanted ")

    @pytest.mark.parametrize("key", ["feature_dim", None], ids=["feature_dim", "header-length"])
    def test_eval_checkpoint_size(self, workspace, tmp_path, capsys, key):
        model = self.corrupt(workspace / "s2.ckpt", tmp_path, key)
        err = self.eval_checkpoint(model, workspace, capsys)
        assert err.startswith("error: input: truncated file: wanted ")

    def test_version_1_files_exit_three(self, workspace, tmp_path, capsys):
        model = self.first_version(workspace / "text.pv", tmp_path)
        err = self.infer_text(model, workspace, tmp_path, capsys)
        assert err == "error: input: unsupported model version 1"
        checkpoint = self.first_version(workspace / "s2.ckpt", tmp_path)
        err = self.eval_checkpoint(checkpoint, workspace, capsys)
        assert err == "error: input: unsupported checkpoint version 1"


class TestEval:
    def test_json_report_with_top_k(self, workspace, capsys):
        assert run("eval", "--corpus", workspace / "corpus.jsonl",
                   "--model", workspace / "s2.ckpt", "--group-by", "source",
                   "--top-k", "2") == 0
        payload = json.loads(capsys.readouterr().out)
        assert 0.0 <= payload["overall_accuracy"] <= 1.0
        assert payload["metadata"]["group_by"] == "source"
        assert "2" in payload["metadata"]["top_k_accuracy"]

    def test_csv_report(self, workspace, capsys):
        assert run("eval", "--corpus", workspace / "corpus.jsonl",
                   "--model", workspace / "s2.ckpt", "--group-by", "topic",
                   "--csv") == 0
        lines = capsys.readouterr().out.strip().splitlines()
        assert lines[0] == "group,accuracy,count"
        assert len(lines) >= 2

    def test_stage1_eval_uses_embeddings(self, workspace, capsys):
        assert run("eval", "--corpus", workspace / "corpus.jsonl",
                   "--model", workspace / "s1.ckpt", "--stage1",
                   "--embeddings", workspace / "emb.bin") == 0
        payload = json.loads(capsys.readouterr().out)
        assert payload["metadata"]["stage"] == 1

    def test_stage1_eval_without_embeddings_exits_two(self, workspace, capsys):
        code = run("eval", "--corpus", workspace / "corpus.jsonl",
                   "--model", workspace / "s1.ckpt", "--stage1")
        assert code == EXIT_USAGE


@pytest.fixture(scope="module")
def split_corpora(tmp_path_factory):
    root = tmp_path_factory.mktemp("sweep")
    assert run("make-synthetic", "--out", root / "tr.jsonl",
               "--n-samples", 80, "--seed", 9) == 0
    assert run("make-synthetic", "--out", root / "te.jsonl",
               "--n-samples", 40, "--seed", 10) == 0
    return root


class TestRetrainingProtocols:
    _tiny = ("--dim", 8, "--window", 2, "--pvdm-epochs", 1, "--min-count", 1,
             "--stage1-epochs", 1, "--stage2-epochs", 1,
             "--hidden", 8, "--fused", 4, "--seed", 3)

    def test_truncation_sweep_map(self, split_corpora, capsys):
        assert run("truncation-sweep", "--train", split_corpora / "tr.jsonl",
                   "--test", split_corpora / "te.jsonl", "--ks", "1",
                   *self._tiny) == 0
        payload = json.loads(capsys.readouterr().out)
        assert set(payload) == {"1", "full"}

    def test_loso_reports_both_arms(self, split_corpora, capsys):
        assert run("loso", "--train", split_corpora / "tr.jsonl",
                   "--test", split_corpora / "te.jsonl", "--source", "l0",
                   *self._tiny) == 0
        payload = json.loads(capsys.readouterr().out)
        assert set(payload) == {"source", "with", "without"}
