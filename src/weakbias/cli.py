"""Command-line interface: one subcommand per pipeline operation.

Settings resolve as flags > config file > built-in defaults. The config
file is INI with [paths], [pvdm], [train], and [run] sections; a JSON
object with the same section layout is accepted too, and any other section
is refused. Every random choice flows from a single root seed (--seed,
then [run] seed, then the WEAKBIAS_SEED environment variable, then 0)
through stable named sub-seeds, so rerunning one stage never perturbs
another.

Progress goes to stderr (JSON lines with --json-logs), results to stdout
or the requested output file. Exit codes: 0 success, 2 usage, 3 input,
4 numeric failure.
"""

from __future__ import annotations

import argparse
import configparser
import dataclasses
import io
import json
import os
import sys

import numpy as np

from .classifier import (
    TrainSpec,
    ablate_zero_text,
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
    SideLabel,
    build_vocabulary,
    class_weights,
    load_corpus,
    save_corpus,
    tokenize,
)
from .dedup import (
    deduplicate,
    knn_distance_histogram,
    save_cluster_report,
)
from .doc2vec import (
    PvdmConfig,
    infer_document,
    load_embeddings,
    load_model,
    nearest_words,
    save_embeddings,
    save_model,
    train_pvdm,
)
from .errors import InputError, NumericError, UsageError
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


@dataclasses.dataclass
class TrainSettings:
    """Classifier-stage knobs shared by the train-* and sweep subcommands."""

    epochs: int = 10
    stage1_epochs: int = 10
    stage2_epochs: int = 10
    lr: float = 1e-4
    batch_size: int = 64
    hidden: int = 256
    fused: int = 256
    class_weights: bool = True


@dataclasses.dataclass
class RunConfig:
    """Effective settings for one invocation.

    Input paths are checked for existence when the config is built; the
    seed inside pvdm is already the named "text" sub-seed of the root."""

    paths: dict[str, str]
    pvdm: PvdmConfig
    train: TrainSettings
    seed: int


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

    def epoch_hook(self, stage: str):
        def hook(*, epoch: int, loss: float) -> None:
            self.event("epoch", stage=stage, epoch=int(epoch), loss=float(loss))

        return hook

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
    UsageError."""
    if text.lstrip().startswith("{"):
        try:
            obj = json.loads(text)
        except json.JSONDecodeError as exc:
            raise UsageError(f"config is not valid JSON: {exc}") from None
        if not isinstance(obj, dict) or not all(
            isinstance(body, dict) for body in obj.values()
        ):
            raise UsageError("JSON config must map section names to objects")
        sections = {section: dict(body) for section, body in obj.items()}
    else:
        parser = configparser.ConfigParser()
        try:
            parser.read_string(text)
        except configparser.Error as exc:
            raise UsageError(f"bad config file: {exc}") from None
        sections = {name: dict(parser.items(name)) for name in parser.sections()}
    unknown = sorted(set(sections) - set(_SECTIONS))
    if unknown:
        raise UsageError(
            "unknown config sections: " + ", ".join(f"[{name}]" for name in unknown)
        )
    return sections


def _coerce(kind, raw, where: str):
    if kind is bool:
        if isinstance(raw, bool):
            return raw
        word = str(raw).strip().lower()
        if word not in _BOOL_WORDS:
            raise UsageError(f"bad boolean {raw!r} for {where}")
        return _BOOL_WORDS[word]
    try:
        return kind(raw)
    except (TypeError, ValueError):
        raise UsageError(f"bad value {raw!r} for {where}") from None


def _resolved(cls, args, file_cfg: dict, section_name: str) -> dict:
    """Field values for a config dataclass: flag, then file key, then default.

    Flags match on the field name, or on "<section>_<field>" where a
    subcommand needs to distinguish (--pvdm-epochs vs --epochs). INI keys
    are case-insensitive; seeds never come from sections."""
    section = {str(k).lower(): v for k, v in file_cfg.get(section_name, {}).items()}
    known = {f.name.lower(): f for f in dataclasses.fields(cls) if f.name != "seed"}
    unknown = set(section) - set(known)
    if unknown:
        raise UsageError(
            f"unknown keys in [{section_name}]: {', '.join(sorted(unknown))}"
        )
    values = {}
    for lowered, f in known.items():
        value = getattr(args, f.name, None)
        if value is None:
            value = getattr(args, f"{section_name}_{f.name}", None)
        if value is None and lowered in section:
            kind = bool if isinstance(f.default, bool) else type(f.default)
            value = _coerce(kind, section[lowered], f"[{section_name}] {f.name}")
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
    value = getattr(args, name, None)
    if value is None:
        paths = {str(k).lower(): v for k, v in file_cfg.get("paths", {}).items()}
        value = paths.get(name)
    return None if value is None else str(value)


def build_run_config(
    args, *, inputs=(), outputs=(), optional=()
) -> RunConfig:
    """Resolve one invocation's settings and validate its input paths."""
    file_cfg: dict = {}
    config_path = getattr(args, "config", None)
    if config_path:
        with open(_require_input(config_path, "config file"), encoding="utf-8") as fh:
            file_cfg = parse_config_text(fh.read())
    seed = resolve_seed(args, file_cfg)
    paths: dict[str, str] = {}
    for name in inputs:
        value = _resolve_path(args, file_cfg, name)
        if value is None:
            raise UsageError(f"missing required path --{name.replace('_', '-')}")
        paths[name] = _require_input(value, name.replace("_", " "))
    for name in outputs:
        value = _resolve_path(args, file_cfg, name)
        if value is None:
            raise UsageError(f"missing required path --{name.replace('_', '-')}")
        paths[name] = value
    for name in optional:
        value = _resolve_path(args, file_cfg, name)
        if value is not None:
            paths[name] = value
    config = RunConfig(
        paths=paths,
        pvdm=PvdmConfig(
            **_resolved(PvdmConfig, args, file_cfg, "pvdm"),
            seed=derive_seed(seed, "text"),
        ),
        train=TrainSettings(**_resolved(TrainSettings, args, file_cfg, "train")),
        seed=seed,
    )
    dump_path = getattr(args, "dump_config", None)
    if dump_path:
        with open(dump_path, "w", encoding="utf-8") as fh:
            fh.write(dump_config(config))
    return config


def dump_config(config: RunConfig) -> str:
    """Effective settings as INI; parsing the dump rebuilds an equal config."""
    parser = configparser.ConfigParser()
    if config.paths:
        parser["paths"] = {k: config.paths[k] for k in sorted(config.paths)}
    for section_name, instance in (("pvdm", config.pvdm), ("train", config.train)):
        parser[section_name] = {
            f.name: str(getattr(instance, f.name))
            for f in dataclasses.fields(instance)
            if f.name != "seed"
        }
    parser["run"] = {"seed": str(config.seed)}
    out = io.StringIO()
    parser.write(out)
    return out.getvalue()


# --- shared helpers ----------------------------------------------------------


def _write_result(path: str | None, text: str) -> None:
    if not text.endswith("\n"):
        text += "\n"
    if path is None:
        sys.stdout.write(text)
    else:
        with open(path, "w", encoding="utf-8") as fh:
            fh.write(text)


def _train_spec(config: RunConfig, stage_name: str, *, weights) -> TrainSpec:
    return TrainSpec(
        epochs=config.train.epochs,
        lr=config.train.lr,
        batch_size=config.train.batch_size,
        class_weights=weights,
        seed=derive_seed(config.seed, stage_name),
    )


def _maybe_weights(config: RunConfig, corpus):
    return class_weights(corpus) if config.train.class_weights else None


def _stacked_embeddings(corpus, embeddings) -> np.ndarray:
    missing = [s.id for s in corpus if s.id not in embeddings]
    if missing:
        raise InputError(
            f"{len(missing)} samples have no document embedding "
            f"(first: {missing[:3]})"
        )
    return np.stack([np.asarray(embeddings[s.id], np.float32) for s in corpus])


def _pipeline_config(config: RunConfig) -> PipelineConfig:
    return PipelineConfig(
        pvdm=config.pvdm,
        stage1_epochs=config.train.stage1_epochs,
        stage2_epochs=config.train.stage2_epochs,
        lr=config.train.lr,
        batch_size=config.train.batch_size,
        hidden=config.train.hidden,
        fused=config.train.fused,
        use_class_weights=config.train.class_weights,
        seed=config.seed,
    )


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
    vocab = build_vocabulary(corpus, config.pvdm.min_count)
    progress.event("vocabulary", size=len(vocab), min_count=config.pvdm.min_count)
    payload = {
        "min_count": config.pvdm.min_count,
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
    model = train_pvdm(
        corpus,
        config.pvdm,
        workers=args.workers or 1,
        on_epoch=progress.epoch_hook("pvdm"),
    )
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
    vectors: dict[str, np.ndarray] = {}
    for sample in corpus:
        vector = infer_document(
            model,
            sample.tokens,
            steps=args.steps if args.steps is not None else 50,
            seed=derive_seed(config.seed, f"infer-{sample.id}"),
        )
        vectors[sample.id] = vector if args.raw else normalize_embedding(vector)
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
        seed=derive_seed(config.seed, "query"),
        embed=args.embed,
    )
    lines = [f"{word}\t{similarity:.6f}" for word, similarity in neighbors]
    _write_result(config.paths.get("out"), "\n".join(lines))
    return 0


def _cmd_dedup(args, progress: Progress) -> int:
    if args.histogram:
        config = build_run_config(args, inputs=("corpus",), optional=("out",))
        corpus = load_corpus(config.paths["corpus"])
        counts, edges = knn_distance_histogram(
            corpus,
            k=args.k,
            sample_size=args.sample_size,
            bins=args.bins,
            seed=derive_seed(config.seed, "histogram"),
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
    corpus = load_corpus(config.paths["corpus"])
    kept, clusters = deduplicate(corpus, args.threshold)
    save_corpus(kept, config.paths["out"])
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
        _train_spec(config, "stage1", weights=_maybe_weights(config, corpus)),
        hidden=config.train.hidden,
        fused=config.train.fused,
    )
    progress.history("stage1", model.history["stage1"])
    save_checkpoint(model, config.paths["model_out"])
    progress.event("saved", model=config.paths["model_out"])
    return 0


def _cmd_train_stage2(args, progress: Progress) -> int:
    config = build_run_config(args, inputs=("corpus", "model"), outputs=("model_out",))
    corpus = load_corpus(config.paths["corpus"])
    model = load_checkpoint(config.paths["model"])
    model = train_stage2(
        model,
        corpus,
        _train_spec(config, "stage2", weights=_maybe_weights(config, corpus)),
    )
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
        make_pipeline(_pipeline_config(config)),
        seed=config.seed,
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
        make_pipeline(_pipeline_config(config)),
        seed=config.seed,
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
        _train_spec(config, "words", weights=None),
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
        text = _stacked_embeddings(corpus, load_embeddings(embeddings_path))
        logits = forward_stage1(model, corpus.features(), text)
        predictions = [
            SideLabel.LEFT if row[0] >= row[1] else SideLabel.RIGHT for row in logits
        ]
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
            "seed": config.seed,
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
    fields = {
        f.name: getattr(args, f.name)
        for f in dataclasses.fields(SyntheticSpec)
        if f.name != "seed" and getattr(args, f.name, None) is not None
    }
    spec = SyntheticSpec(seed=config.seed, **fields)
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


def build_parser() -> argparse.ArgumentParser:
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
    p.add_argument("--min-count", dest="min_count", type=int)
    p.add_argument("--out", help="write word counts as JSON (default stdout)")
    p.set_defaults(func=_cmd_vocab)

    p = sub.add_parser("train-text", parents=[common], help="train paragraph vectors")
    p.add_argument("--corpus")
    p.add_argument("--model-out", dest="model_out")
    p.add_argument("--embeddings-out", dest="embeddings_out",
                   help="also save the training document vectors")
    p.add_argument("--raw", action="store_true",
                   help="save embeddings without unit-length normalization")
    p.add_argument("--dim", type=int)
    p.add_argument("--window", type=int)
    p.add_argument("--epochs", type=int)
    p.add_argument("--min-count", dest="min_count", type=int)
    p.add_argument("--initial-lr", dest="initial_lr", type=float)
    p.add_argument("--final-lr", dest="final_lr", type=float)
    p.add_argument("--workers", type=int,
                   help="lock-free parallel training (nondeterministic)")
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
    p.add_argument("--epochs", type=int)
    p.add_argument("--lr", type=float)
    p.add_argument("--batch-size", dest="batch_size", type=int)
    p.add_argument("--hidden", type=int)
    p.add_argument("--fused", type=int)
    p.add_argument("--no-class-weights", dest="class_weights",
                   action="store_const", const=False)
    p.set_defaults(func=_cmd_train_stage1)

    p = sub.add_parser("train-stage2", parents=[common],
                       help="fit the image-only head on a frozen stage-1 model")
    p.add_argument("--corpus")
    p.add_argument("--model")
    p.add_argument("--model-out", dest="model_out")
    p.add_argument("--epochs", type=int)
    p.add_argument("--lr", type=float)
    p.add_argument("--batch-size", dest="batch_size", type=int)
    p.add_argument("--no-class-weights", dest="class_weights",
                   action="store_const", const=False)
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
    p.add_argument("--epochs", type=int)
    p.add_argument("--lr", type=float)
    p.add_argument("--batch-size", dest="batch_size", type=int)
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
    p.add_argument("--n-samples", dest="n_samples", type=int, default=200)
    p.add_argument("--feature-dim", dest="feature_dim", type=int)
    p.add_argument("--signal-dims", dest="signal_dims", type=int)
    p.add_argument("--signal-scale", dest="signal_scale", type=float)
    p.add_argument("--signal-noise", dest="signal_noise", type=float)
    p.add_argument("--nuisance-scale", dest="nuisance_scale", type=float)
    p.add_argument("--label-correlation", dest="label_correlation", type=float)
    p.add_argument("--left-fraction", dest="left_fraction", type=float)
    p.add_argument("--words-per-topic", dest="words_per_topic", type=int)
    p.add_argument("--shared-words", dest="shared_words", type=int)
    p.add_argument("--sentences-per-doc", dest="sentences_per_doc", type=int)
    p.add_argument("--words-per-sentence", dest="words_per_sentence", type=int)
    p.add_argument("--topic-sentence-anywhere", dest="topic_sentence_last",
                   action="store_const", const=False,
                   help="spread topic words over all sentences, not just the last")
    p.add_argument("--sources-per-side", dest="sources_per_side", type=int)
    p.set_defaults(func=_cmd_make_synthetic)

    return parser


def _pipeline_flags(p: argparse.ArgumentParser) -> None:
    p.add_argument("--dim", type=int, help="paragraph-vector dimension")
    p.add_argument("--window", type=int)
    p.add_argument("--pvdm-epochs", dest="pvdm_epochs", type=int)
    p.add_argument("--min-count", dest="min_count", type=int)
    p.add_argument("--stage1-epochs", dest="stage1_epochs", type=int)
    p.add_argument("--stage2-epochs", dest="stage2_epochs", type=int)
    p.add_argument("--lr", type=float)
    p.add_argument("--batch-size", dest="batch_size", type=int)
    p.add_argument("--hidden", type=int)
    p.add_argument("--fused", type=int)
    p.add_argument("--no-class-weights", dest="class_weights",
                   action="store_const", const=False)


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
