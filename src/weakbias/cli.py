"""Command-line interface: one subcommand per pipeline operation.

Settings resolve as flags > config file > built-in defaults. The config
file is INI with [paths], [pvdm], [train], and [run] sections; a JSON
object with the same section layout is accepted too, and any other section
is refused. Every random choice flows from a single root seed (--seed,
then [run] seed, then the WEAKBIAS_SEED environment variable, then 0)
through stable named sub-seeds, so rerunning one stage never perturbs
another.

The [pvdm] and [train] keys are the fields of PvdmConfig and the scalar
fields of PipelineConfig. Their flags are generated from those fields, and
each flag sets exactly one key: --epochs is [pvdm] epochs on train-text and
[train] stage1_epochs, stage2_epochs or words_epochs on train-stage1,
train-stage2 or train-words, while the pipeline commands (truncation-sweep,
loso) spell the PV-DM one --pvdm-epochs. A command resolves, validates and
dumps only the sections it has flags for. make-synthetic's flags are
likewise the fields of SyntheticSpec.

Progress goes to stderr (JSON lines with --json-logs), results to stdout
or the requested output file. Exit codes: 0 success, 2 usage, 3 input,
4 numeric failure.
"""

from __future__ import annotations

import argparse
import configparser
import dataclasses
import functools
import io
import json
import os
import sys

import numpy as np

from .binio import atomic_write
from .classifier import (
    ablate_zero_text,
    argmax_sides,
    embedding_matrix,
    forward_stage1,
    load_checkpoint,
    predict_batch,
    rank_images_for_word,
    save_checkpoint,
    select_visual_words,
    train_stage1,
    train_stage2,
    train_word_head,
)
from .corpus import (
    build_vocabulary,
    load_corpus,
    save_corpus,
    save_corpus_lines,
    tokenize,
)
from .dedup import (
    deduplicate,
    knn_distance_histogram,
    save_cluster_report,
)
from .doc2vec import (
    PvdmConfig,
    infer_documents,
    load_embeddings,
    load_model,
    nearest_words,
    save_embeddings,
    save_model,
    train_pvdm,
)
from .errors import InputError, NumericError, UsageError, not_utf8
from .evaluation import (
    group_accuracy,
    leave_one_source_out,
    report_to_csv,
    report_to_json,
    sentence_truncation_sweep,
    top_k_source_accuracy,
)
from .pipeline import (
    PipelineConfig,
    make_pipeline,
    normalize_embedding,
    training_embeddings,
)
from .seeding import derive_seed
from .synthetic import SyntheticSpec, make_synthetic

EXIT_USAGE = 2
EXIT_INPUT = 3
EXIT_NUMERIC = 4

_SECTIONS = ("paths", "pvdm", "train", "run")

_BOOL_WORDS = {
    "true": True,
    "false": False,
    "yes": True,
    "no": False,
    "1": True,
    "0": False,
}


_SECTION_TYPES = {"pvdm": PvdmConfig, "train": PipelineConfig}


@dataclasses.dataclass
class RunConfig:
    """Effective settings for one invocation.

    Input paths are checked for existence when the config is built.
    `sections` are the [pvdm] and [train] sections the command reads; the
    others keep their defaults in `pipeline`, whose seed is the root seed."""

    paths: dict[str, str]
    pipeline: PipelineConfig
    sections: tuple[str, ...]


class Progress:
    """Stderr progress lines: human-readable, or JSON with --json-logs."""

    def __init__(self, json_mode: bool):
        self.json_mode = json_mode

    def event(self, event: str, **fields) -> None:
        if self.json_mode:
            print(json.dumps({"event": event, **fields}), file=sys.stderr)
        else:
            detail = " ".join(f"{k}={v}" for k, v in fields.items())
            print(f"{event} {detail}".rstrip(), file=sys.stderr)

    def history(self, stage: str, losses: list[float]) -> None:
        for epoch, loss in enumerate(losses):
            self.event("epoch", stage=stage, epoch=epoch, loss=float(loss))

    def error(self, kind: str, message: str) -> None:
        flat = " ".join(str(message).split())
        if self.json_mode:
            print(
                json.dumps({"event": "error", "kind": kind, "message": flat}),
                file=sys.stderr,
            )
        else:
            print(f"error: {kind}: {flat}", file=sys.stderr)


# --- configuration plumbing -------------------------------------------------


def parse_config_text(text: str) -> dict[str, dict[str, object]]:
    """Sections from an INI document, or a JSON object of sections.

    A section other than [paths], [pvdm], [train] and [run] raises
    UsageError, and JSON nested too deeply to decode an InputError."""
    if text.lstrip().startswith("{"):
        try:
            obj = json.loads(text)
        except ValueError as exc:  # a JSONDecodeError, or an int over int()'s digit limit
            raise UsageError(f"config is not valid JSON: {exc}") from None
        except RecursionError:
            raise InputError("config JSON is nested too deeply") from None
        if not isinstance(obj, dict) or not all(
            isinstance(body, dict) for body in obj.values()
        ):
            raise UsageError("JSON config must map section names to objects")
        sections = {section: dict(body) for section, body in obj.items()}
    else:
        parser = configparser.ConfigParser()
        try:
            parser.read_string(text)
            # items() expands %(name)s references, and can fail doing so.
            sections = {name: dict(parser.items(name)) for name in parser.sections()}
        except configparser.Error as exc:
            raise UsageError(f"bad config file: {exc}") from None
    unknown = sorted(set(sections) - set(_SECTIONS))
    if unknown:
        raise UsageError(
            "unknown config sections: " + ", ".join(f"[{name}]" for name in unknown)
        )
    return sections


def _coerce(kind, raw, where: str):
    """A section value as `kind` (bool, int or float). INI values are strings
    that kind() must accept; JSON values keep their type, so an int key takes
    only an integer and a float key only a number, never a boolean. Anything
    else is a UsageError naming the key. The config types check the values'
    ranges, finiteness included, for flags and files alike."""
    if kind is bool:
        if isinstance(raw, bool):
            return raw
        word = str(raw).strip().lower()
        if word not in _BOOL_WORDS:
            raise UsageError(f"bad boolean {raw!r} for {where}")
        return _BOOL_WORDS[word]
    numbers = (int, float) if kind is float else int
    if not isinstance(raw, str) and (isinstance(raw, bool) or not isinstance(raw, numbers)):
        raise UsageError(f"bad value {raw!r} for {where}: expected {kind.__name__}")
    try:
        return kind(raw)  # ValueError: int("1.5"), or more digits than int() reads
    except (ValueError, OverflowError):  # OverflowError: float(10**400)
        raise UsageError(f"bad value {raw!r} for {where}") from None


def _section_fields(section_name: str) -> dict[str, dataclasses.Field]:
    """The settable fields of a [pvdm] or [train] section by lowercase key;
    seeds never come from sections, and [pvdm] is a section of its own."""
    fields = dataclasses.fields(_SECTION_TYPES[section_name])
    return {f.name.lower(): f for f in fields if f.name not in ("pvdm", "seed")}


def _resolved(args, file_cfg: dict, section_name: str) -> dict | None:
    """Field values of a section: its own flag, then file key, then default.

    A flag's destination is "<section>.<field>", so a flag sets exactly one
    key, and a command reads a section only if its parser declares one of
    these destinations; otherwise this returns None, after refusing unknown
    keys as for every command. INI keys are case-insensitive."""
    section = {str(k).lower(): v for k, v in file_cfg.get(section_name, {}).items()}
    known = _section_fields(section_name)
    unknown = set(section) - set(known)
    if unknown:
        names = ", ".join(sorted(unknown))
        if section_name == "train" and "epochs" in unknown:
            names += "; epochs is now stage1_epochs, stage2_epochs and words_epochs"
        raise UsageError(f"unknown keys in [{section_name}]: {names}")
    if not any(name.startswith(f"{section_name}.") for name in vars(args)):
        return None
    values = {}
    for lowered, f in known.items():
        value = getattr(args, f"{section_name}.{f.name}", None)
        if value is None and lowered in section:
            where = f"[{section_name}] {f.name}"
            value = _coerce(type(f.default), section[lowered], where)
        values[f.name] = f.default if value is None else value
    return values


def resolve_seed(args, file_cfg: dict) -> int:
    if getattr(args, "seed", None) is not None:
        return args.seed
    run = {str(k).lower(): v for k, v in file_cfg.get("run", {}).items()}
    if "seed" in run:
        return _coerce(int, run["seed"], "[run] seed")
    env = os.environ.get("WEAKBIAS_SEED")
    if env is not None:
        try:
            return int(env)
        except ValueError:
            raise UsageError(
                f"WEAKBIAS_SEED must be an integer, got {env!r}"
            ) from None
    return 0


def _require_input(path: str, what: str) -> str:
    if not os.path.exists(path):
        raise InputError(f"{what} does not exist: {path}")
    return path


def _resolve_path(args, file_cfg: dict, name: str) -> str | None:
    """A path's flag, else its [paths] key, which must be a string."""
    value = getattr(args, name, None)
    if value is None:
        paths = {str(k).lower(): v for k, v in file_cfg.get("paths", {}).items()}
        value = paths.get(name)
        if name in paths and not isinstance(value, str):
            raise UsageError(f"bad value {value!r} for [paths] {name}: expected a string")
    return value


def build_run_config(
    args, *, inputs=(), outputs=(), optional=()
) -> RunConfig:
    """Resolve one invocation's settings and validate its input paths."""
    file_cfg: dict = {}
    config_path = getattr(args, "config", None)
    if config_path:
        with open(_require_input(config_path, "config file"), encoding="utf-8") as fh:
            try:
                text = fh.read()
            except UnicodeDecodeError as exc:
                raise not_utf8(config_path, exc) from None
        file_cfg = parse_config_text(text)
    seed = resolve_seed(args, file_cfg)
    paths: dict[str, str] = {}
    for name in (*inputs, *outputs, *optional):
        value = _resolve_path(args, file_cfg, name)
        if value is None and name not in optional:
            raise UsageError(f"missing required path --{name.replace('_', '-')}")
        if name in inputs:
            value = _require_input(value, name.replace("_", " "))
        if value is not None:
            paths[name] = value
    resolved = {name: _resolved(args, file_cfg, name) for name in _SECTION_TYPES}
    config = RunConfig(
        paths=paths,
        pipeline=PipelineConfig(
            pvdm=PvdmConfig(**resolved["pvdm"] or {}),
            **resolved["train"] or {},
            seed=seed,
        ),
        sections=tuple(name for name, values in resolved.items() if values is not None),
    )
    dump_path = getattr(args, "dump_config", None)
    if dump_path:
        text = dump_config(config)
        with atomic_write(dump_path) as fh:
            fh.write(text)
    return config


def dump_config(config: RunConfig) -> str:
    """Effective settings as INI; parsing the dump rebuilds an equal config.
    A path the dump would not give back (INI strips leading and trailing
    spaces; a path byte that is not UTF-8 reaches argv as a lone surrogate,
    which the UTF-8 file cannot hold) raises InputError naming it."""
    parser = configparser.ConfigParser()
    if config.paths:  # "%" starts an interpolation, "%%" reads back as "%"
        parser["paths"] = {k: config.paths[k].replace("%", "%%") for k in sorted(config.paths)}
    for section_name in config.sections:
        instance = config.pipeline.pvdm if section_name == "pvdm" else config.pipeline
        parser[section_name] = {
            f.name: str(getattr(instance, f.name))
            for f in _section_fields(section_name).values()
        }
    parser["run"] = {"seed": str(config.pipeline.seed)}
    out = io.StringIO()
    parser.write(out)
    text = out.getvalue()
    # The file as --config reads it: UTF-8 (a surrogate written as "?"), universal newlines.
    stored = io.TextIOWrapper(io.BytesIO(text.encode("utf-8", "replace")), encoding="utf-8")
    try:
        read_back = parse_config_text(stored.read()).get("paths", {})
    except UsageError:  # a path's line break can leave a line INI cannot parse
        read_back = {}
    for name, value in config.paths.items():
        if read_back.get(name) != value:
            raise InputError(f"--dump-config: the {name.replace('_', ' ')} path {value!r} "
                             "would not read back the same from the settings file")
    return text


# --- shared helpers ----------------------------------------------------------


def _write_result(path: str | None, text: str) -> None:
    if not text.endswith("\n"):
        text += "\n"
    if path is None:
        sys.stdout.write(text)
    else:
        with atomic_write(path) as fh:
            fh.write(text)


def _read_words(path: str) -> list[str]:
    with open(path, encoding="utf-8") as fh:
        words = [line.strip() for line in fh if line.strip()]
    if not words:
        raise InputError(f"word list {path} is empty")
    return words


# --- subcommands -------------------------------------------------------------


def _cmd_vocab(args, progress: Progress) -> int:
    config = build_run_config(args, inputs=("corpus",), optional=("out",))
    corpus = load_corpus(config.paths["corpus"])
    min_count = config.pipeline.pvdm.min_count
    vocab = build_vocabulary(corpus, min_count)
    progress.event("vocabulary", size=len(vocab), min_count=min_count)
    payload = {
        "min_count": min_count,
        "size": len(vocab),
        "counts": dict(zip(vocab.words, vocab.counts)),
    }
    _write_result(config.paths.get("out"), json.dumps(payload, indent=2))
    return 0


def _cmd_train_text(args, progress: Progress) -> int:
    config = build_run_config(
        args, inputs=("corpus",), outputs=("model_out",), optional=("embeddings_out",)
    )
    corpus = load_corpus(config.paths["corpus"])
    model = train_pvdm(corpus, config.pipeline.text_config())
    progress.history("pvdm", model.epoch_losses)
    save_model(model, config.paths["model_out"])
    progress.event(
        "saved", model=config.paths["model_out"], vocabulary=len(model.vocabulary)
    )
    embeddings_out = config.paths.get("embeddings_out")
    if embeddings_out:
        vectors = training_embeddings(model)
        if not args.raw:
            vectors = {k: normalize_embedding(v) for k, v in vectors.items()}
        save_embeddings(vectors, embeddings_out)
        progress.event("saved", embeddings=embeddings_out, count=len(vectors))
    return 0


def _cmd_infer_text(args, progress: Progress) -> int:
    config = build_run_config(
        args, inputs=("model", "corpus"), outputs=("embeddings_out",)
    )
    model = load_model(config.paths["model"])
    corpus = load_corpus(config.paths["corpus"])
    for sample in corpus:
        if not any(t in model.vocabulary for t in sample.tokens):
            raise InputError(f"sample {sample.id!r} has no in-vocabulary tokens")
    matrix = infer_documents(
        model,
        [sample.tokens for sample in corpus],
        steps=args.steps if args.steps is not None else 50,
        seeds=[
            derive_seed(config.pipeline.seed, f"infer-{sample.id}") for sample in corpus
        ],
    )
    vectors = {
        sample.id: vector if args.raw else normalize_embedding(vector)
        for sample, vector in zip(corpus, matrix)
    }
    save_embeddings(vectors, config.paths["embeddings_out"])
    progress.event(
        "saved", embeddings=config.paths["embeddings_out"], count=len(vectors)
    )
    return 0


def _cmd_nearest_words(args, progress: Progress) -> int:
    config = build_run_config(args, inputs=("model",), optional=("out",))
    model = load_model(config.paths["model"])
    neighbors = nearest_words(
        model,
        tokenize(args.query),
        n=args.n if args.n is not None else 10,
        steps=args.steps if args.steps is not None else 50,
        seed=derive_seed(config.pipeline.seed, "query"),
        embed=args.embed,
    )
    lines = [f"{word}\t{similarity:.6f}" for word, similarity in neighbors]
    _write_result(config.paths.get("out"), "\n".join(lines))
    return 0


def _cmd_dedup(args, progress: Progress) -> int:
    """Print the k-NN distance histogram, or write the corpus without its
    duplicates and, with --report, the clusters.

    The input is read once, and each kept record is written as the line it
    was read from, under the canonical header: dedup filters records, it
    does not re-encode them."""
    if args.histogram:
        config = build_run_config(args, inputs=("corpus",), optional=("out",))
        corpus = load_corpus(config.paths["corpus"])
        counts, edges = knn_distance_histogram(
            corpus,
            k=args.k,
            sample_size=args.sample_size,
            bins=args.bins,
            seed=derive_seed(config.pipeline.seed, "histogram"),
        )
        lines = [
            f"{edges[i]:.6f}\t{edges[i + 1]:.6f}\t{int(count)}"
            for i, count in enumerate(counts)
        ]
        _write_result(config.paths.get("out"), "\n".join(lines))
        return 0
    config = build_run_config(
        args, inputs=("corpus",), outputs=("out",), optional=("report",)
    )
    if args.threshold is None:
        raise UsageError("--threshold is required (or use --histogram to pick one)")
    lines: list[str] = []
    corpus = load_corpus(config.paths["corpus"], lines=lines)
    kept, clusters = deduplicate(corpus, args.threshold)
    line_of = dict(zip(corpus.ids(), lines))
    save_corpus_lines(config.paths["out"], kept.feature_dim, [line_of[s.id] for s in kept])
    report_path = config.paths.get("report")
    if report_path:
        save_cluster_report(clusters, report_path, corpus)
    progress.event(
        "deduplicated",
        kept=len(kept),
        removed=len(corpus) - len(kept),
        clusters=len(clusters),
    )
    return 0


def _cmd_train_stage1(args, progress: Progress) -> int:
    config = build_run_config(
        args, inputs=("corpus", "embeddings"), outputs=("model_out",)
    )
    corpus = load_corpus(config.paths["corpus"])
    embeddings = load_embeddings(config.paths["embeddings"])
    model = train_stage1(
        corpus,
        embeddings,
        config.pipeline.stage_spec("stage1", corpus),
        hidden=config.pipeline.hidden,
        fused=config.pipeline.fused,
    )
    progress.history("stage1", model.history["stage1"])
    save_checkpoint(model, config.paths["model_out"])
    progress.event("saved", model=config.paths["model_out"])
    return 0


def _cmd_train_stage2(args, progress: Progress) -> int:
    config = build_run_config(args, inputs=("corpus", "model"), outputs=("model_out",))
    corpus = load_corpus(config.paths["corpus"])
    model = load_checkpoint(config.paths["model"])
    model = train_stage2(model, corpus, config.pipeline.stage_spec("stage2", corpus))
    progress.history("stage2", model.history["stage2"])
    save_checkpoint(model, config.paths["model_out"])
    progress.event("saved", model=config.paths["model_out"])
    return 0


def _cmd_ablate(args, progress: Progress) -> int:
    config = build_run_config(args, inputs=("model",), outputs=("model_out",))
    model = ablate_zero_text(load_checkpoint(config.paths["model"]))
    save_checkpoint(model, config.paths["model_out"])
    progress.event("saved", model=config.paths["model_out"])
    return 0


def _cmd_truncation_sweep(args, progress: Progress) -> int:
    config = build_run_config(args, inputs=("train", "test"), optional=("out",))
    train = load_corpus(config.paths["train"])
    test = load_corpus(config.paths["test"])
    results = sentence_truncation_sweep(
        train,
        test,
        args.ks,
        make_pipeline(config.pipeline),
        seed=config.pipeline.seed,
    )
    payload = {str(k): acc for k, acc in results.items()}
    _write_result(config.paths.get("out"), json.dumps(payload, indent=2))
    return 0


def _cmd_loso(args, progress: Progress) -> int:
    config = build_run_config(args, inputs=("train", "test"), optional=("out",))
    train = load_corpus(config.paths["train"])
    test = load_corpus(config.paths["test"])
    with_source, without_source = leave_one_source_out(
        train,
        test,
        args.source,
        make_pipeline(config.pipeline),
        seed=config.pipeline.seed,
    )
    payload = {
        "source": args.source,
        "with": with_source,
        "without": without_source,
    }
    _write_result(config.paths.get("out"), json.dumps(payload, indent=2))
    return 0


def _cmd_select_words(args, progress: Progress) -> int:
    config = build_run_config(args, inputs=("corpus",), optional=("out",))
    corpus = load_corpus(config.paths["corpus"])
    words = select_visual_words(
        corpus, top_n_frequent=args.top_n_frequent, keep=args.keep
    )
    progress.event("selected", words=len(words))
    _write_result(config.paths.get("out"), "\n".join(words))
    return 0


def _cmd_train_words(args, progress: Progress) -> int:
    config = build_run_config(
        args,
        inputs=("corpus", "embeddings", "model", "words"),
        outputs=("model_out",),
    )
    corpus = load_corpus(config.paths["corpus"])
    embeddings = load_embeddings(config.paths["embeddings"])
    model = load_checkpoint(config.paths["model"])
    model = train_word_head(
        model,
        corpus,
        embeddings,
        _read_words(config.paths["words"]),
        config.pipeline.stage_spec("words", None),
    )
    progress.history("words", model.history["words"])
    save_checkpoint(model, config.paths["model_out"])
    progress.event("saved", model=config.paths["model_out"])
    return 0


def _cmd_rank_images(args, progress: Progress) -> int:
    config = build_run_config(
        args, inputs=("corpus", "embeddings", "model"), optional=("out",)
    )
    corpus = load_corpus(config.paths["corpus"])
    embeddings = load_embeddings(config.paths["embeddings"])
    model = load_checkpoint(config.paths["model"])
    ids = rank_images_for_word(
        model, corpus, embeddings, args.word, top=args.top
    )
    _write_result(config.paths.get("out"), "\n".join(ids))
    return 0


def _cmd_eval(args, progress: Progress) -> int:
    config = build_run_config(
        args, inputs=("corpus", "model"), optional=("embeddings", "out")
    )
    corpus = load_corpus(config.paths["corpus"])
    model = load_checkpoint(config.paths["model"])
    embeddings_path = config.paths.get("embeddings")
    if args.stage1:
        if embeddings_path is None:
            raise UsageError("--stage1 evaluation needs --embeddings")
        embeddings = load_embeddings(embeddings_path)
        text = embedding_matrix(corpus.samples, embeddings, np.float32)
        predictions = argmax_sides(forward_stage1(model, corpus.features(), text))
    else:
        predictions, _ = predict_batch(model, corpus.features())
    labels = [s.side for s in corpus]
    if args.group_by == "topic":
        keys = [sorted(s.topics) for s in corpus]
    else:
        keys = [s.source for s in corpus]
    report = group_accuracy(
        predictions,
        labels,
        keys,
        metadata={
            "corpus": config.paths["corpus"],
            "model": config.paths["model"],
            "group_by": args.group_by,
            "stage": 1 if args.stage1 else 2,
            "seed": config.pipeline.seed,
        },
    )
    if args.top_k is not None:
        report.metadata["top_k_accuracy"] = {
            str(k): top_k_source_accuracy(report, k, weighted=args.weighted)
            for k in args.top_k
        }
    progress.event("evaluated", overall=report.overall_accuracy, groups=len(report.per_group))
    text_out = report_to_csv(report) if args.csv else report_to_json(report)
    _write_result(config.paths.get("out"), text_out)
    return 0


def _cmd_make_synthetic(args, progress: Progress) -> int:
    config = build_run_config(args, outputs=("out",))
    fields = {name: getattr(args, name) for name in _synthetic_fields()}
    spec = SyntheticSpec(seed=config.pipeline.seed, **fields)
    corpus = make_synthetic(spec)
    save_corpus(corpus, config.paths["out"])
    progress.event("saved", corpus=config.paths["out"], samples=len(corpus))
    return 0


# --- parser ------------------------------------------------------------------


def _int_list(text: str) -> list[int]:
    try:
        return [int(part) for part in text.split(",") if part]
    except ValueError:
        raise argparse.ArgumentTypeError(f"expected comma-separated integers: {text!r}")


@functools.cache
def build_parser() -> argparse.ArgumentParser:
    """The CLI's parser, built once per process: parse_args keeps no state
    between calls, and building the subparsers costs milliseconds per call."""
    parser = argparse.ArgumentParser(
        prog="weakbias",
        description="Weakly supervised left/right bias prediction from image "
        "features, guided by paired article text at training time.",
    )
    common = argparse.ArgumentParser(add_help=False)
    common.add_argument("--config", help="INI or JSON settings file (flags win)")
    common.add_argument("--seed", type=int, help="root seed (default WEAKBIAS_SEED or 0)")
    common.add_argument(
        "--json-logs", action="store_true", help="JSON progress lines on stderr"
    )
    common.add_argument(
        "--dump-config", metavar="PATH", help="write the effective settings as INI"
    )
    sub = parser.add_subparsers(dest="command", required=True, metavar="command")

    p = sub.add_parser("vocab", parents=[common], help="build and report the vocabulary")
    p.add_argument("--corpus", help="corpus JSONL")
    _section_flags(p, "pvdm", "min_count")
    p.add_argument("--out", help="write word counts as JSON (default stdout)")
    p.set_defaults(func=_cmd_vocab)

    p = sub.add_parser("train-text", parents=[common], help="train paragraph vectors")
    p.add_argument("--corpus")
    p.add_argument("--model-out", dest="model_out")
    p.add_argument("--embeddings-out", dest="embeddings_out",
                   help="also save the training document vectors")
    p.add_argument("--raw", action="store_true",
                   help="save embeddings without unit-length normalization")
    _section_flags(p, "pvdm", "dim window epochs min_count initial_lr final_lr")
    p.set_defaults(func=_cmd_train_text)

    p = sub.add_parser("infer-text", parents=[common],
                       help="embed unseen documents with a trained text model")
    p.add_argument("--model")
    p.add_argument("--corpus")
    p.add_argument("--embeddings-out", dest="embeddings_out")
    p.add_argument("--steps", type=int, help="optimization passes per document")
    p.add_argument("--raw", action="store_true",
                   help="save embeddings without unit-length normalization")
    p.set_defaults(func=_cmd_infer_text)

    p = sub.add_parser("nearest-words", parents=[common],
                       help="vocabulary words closest to a query text")
    p.add_argument("--model")
    p.add_argument("--query", required=True)
    p.add_argument("--n", type=int)
    p.add_argument("--steps", type=int)
    p.add_argument("--embed", choices=("infer", "average"), default="infer")
    p.add_argument("--out")
    p.set_defaults(func=_cmd_nearest_words)

    p = sub.add_parser("dedup", parents=[common],
                       help="remove near-duplicate images")
    p.add_argument("--corpus")
    p.add_argument("--threshold", type=float,
                   help="squared-distance cutoff for duplicates")
    p.add_argument("--out", help="deduplicated corpus (or histogram with --histogram)")
    p.add_argument("--report", help="cluster report JSONL")
    p.add_argument("--histogram", action="store_true",
                   help="print a kNN distance histogram instead of deduplicating")
    p.add_argument("--sample-size", dest="sample_size", type=int, default=500)
    p.add_argument("--bins", type=int, default=50)
    p.add_argument("--k", type=int, default=200,
                   help="nearest neighbors per sampled query (--histogram)")
    p.set_defaults(func=_cmd_dedup)

    p = sub.add_parser("train-stage1", parents=[common],
                       help="train trunk+fusion on features and text embeddings")
    p.add_argument("--corpus")
    p.add_argument("--embeddings")
    p.add_argument("--model-out", dest="model_out")
    _section_flags(p, "train", "stage1_epochs lr batch_size hidden fused class_weights",
                   stage1_epochs="epochs")
    p.set_defaults(func=_cmd_train_stage1)

    p = sub.add_parser("train-stage2", parents=[common],
                       help="fit the image-only head on a frozen stage-1 model")
    p.add_argument("--corpus")
    p.add_argument("--model")
    p.add_argument("--model-out", dest="model_out")
    _section_flags(p, "train", "stage2_epochs lr batch_size class_weights",
                   stage2_epochs="epochs")
    p.set_defaults(func=_cmd_train_stage2)

    p = sub.add_parser("ablate", parents=[common],
                       help="zero the text path of a trained model")
    p.add_argument("--model")
    p.add_argument("--model-out", dest="model_out")
    p.set_defaults(func=_cmd_ablate)

    p = sub.add_parser("truncation-sweep", parents=[common],
                       help="retrain with clipped training articles for each k")
    p.add_argument("--train")
    p.add_argument("--test")
    p.add_argument("--ks", type=_int_list, required=True,
                   help="comma-separated sentence counts, e.g. 1,2,5")
    _pipeline_flags(p)
    p.add_argument("--out")
    p.set_defaults(func=_cmd_truncation_sweep)

    p = sub.add_parser("loso", parents=[common],
                       help="accuracy on one source with and without its training data")
    p.add_argument("--train")
    p.add_argument("--test")
    p.add_argument("--source", required=True)
    _pipeline_flags(p)
    p.add_argument("--out")
    p.set_defaults(func=_cmd_loso)

    p = sub.add_parser("select-words", parents=[common],
                       help="frequent words whose images cluster tightly")
    p.add_argument("--corpus")
    p.add_argument("--top-n-frequent", dest="top_n_frequent", type=int, default=10000)
    p.add_argument("--keep", type=int, default=1000)
    p.add_argument("--out")
    p.set_defaults(func=_cmd_select_words)

    p = sub.add_parser("train-words", parents=[common],
                       help="train the visual-word presence head")
    p.add_argument("--corpus")
    p.add_argument("--embeddings")
    p.add_argument("--model")
    p.add_argument("--words", help="word list, one per line")
    p.add_argument("--model-out", dest="model_out")
    _section_flags(p, "train", "words_epochs lr batch_size", words_epochs="epochs")
    p.set_defaults(func=_cmd_train_words)

    p = sub.add_parser("rank-images", parents=[common],
                       help="images scored highest for a visual word")
    p.add_argument("--corpus")
    p.add_argument("--embeddings")
    p.add_argument("--model")
    p.add_argument("--word", required=True)
    p.add_argument("--top", type=int, default=100)
    p.add_argument("--out")
    p.set_defaults(func=_cmd_rank_images)

    p = sub.add_parser("eval", parents=[common],
                       help="accuracy report with per-group breakdowns")
    p.add_argument("--corpus")
    p.add_argument("--model")
    p.add_argument("--embeddings", help="stage-1 evaluation needs these")
    p.add_argument("--stage1", action="store_true",
                   help="evaluate the stage-1 multimodal head instead of stage 2")
    p.add_argument("--group-by", dest="group_by", choices=("source", "topic"),
                   default="source")
    p.add_argument("--top-k", dest="top_k", type=_int_list,
                   help="also report mean accuracy over the k largest groups")
    p.add_argument("--weighted", action="store_true",
                   help="weight top-k means by group size")
    p.add_argument("--csv", action="store_true", help="per-group CSV instead of JSON")
    p.add_argument("--out")
    p.set_defaults(func=_cmd_eval)

    p = sub.add_parser("make-synthetic", parents=[common],
                       help="generate the synthetic benchmark corpus")
    p.add_argument("--out")
    for name, default in _synthetic_fields().items():
        if name == "topic_sentence_last":
            p.add_argument("--topic-sentence-anywhere", dest=name, action="store_const",
                           const=False, default=default,
                           help="spread topic words over all sentences, not just the last")
        else:
            p.add_argument(f"--{name.replace('_', '-')}", dest=name, type=type(default),
                           default=default)
    p.set_defaults(func=_cmd_make_synthetic)

    return parser


def _section_flags(p: argparse.ArgumentParser, section: str, names: str, **spelled):
    """One flag per named field of a [section], setting only that key.

    A flag is spelled --<field-name>, or as `spelled` gives it; a boolean
    field, on by default, gets --no-<field-name> instead."""
    fields = _section_fields(section)
    for name in names.split():
        kind, dest = type(fields[name].default), f"{section}.{name}"
        flag = spelled.get(name, name.replace("_", "-"))
        if kind is bool:
            p.add_argument(f"--no-{flag}", dest=dest, action="store_const",
                           const=False, help=f"sets [{section}] {name} = false")
        else:
            p.add_argument(f"--{flag}", dest=dest, type=kind, metavar=name.upper(),
                           help=f"sets [{section}] {name}")


def _synthetic_fields() -> dict[str, object]:
    """make-synthetic's flag defaults: every SyntheticSpec field but the seed,
    which is --seed, with the spec's default, and 200 samples."""
    fields = dataclasses.fields(SyntheticSpec)
    return {f.name: 200 if f.name == "n_samples" else f.default
            for f in fields if f.name != "seed"}


def _pipeline_flags(p: argparse.ArgumentParser) -> None:
    """The PV-DM and classifier settings of a whole-pipeline rerun."""
    _section_flags(p, "pvdm", "dim window epochs min_count", epochs="pvdm-epochs")
    names = "stage1_epochs stage2_epochs lr batch_size hidden fused class_weights"
    _section_flags(p, "train", names)


def main(argv: list[str] | None = None) -> int:
    args = build_parser().parse_args(argv)
    progress = Progress(bool(getattr(args, "json_logs", False)))
    try:
        return args.func(args, progress)
    except UsageError as exc:
        progress.error("usage", str(exc))
        return EXIT_USAGE
    except (InputError, OSError) as exc:
        progress.error("input", str(exc))
        return EXIT_INPUT
    except NumericError as exc:
        progress.error("numeric", str(exc))
        return EXIT_NUMERIC


if __name__ == "__main__":
    sys.exit(main())
