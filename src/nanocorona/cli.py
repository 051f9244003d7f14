"""Command-line entry points.

Exit codes: 0 success, 1 runtime failure, 2 usage error.
"""

from __future__ import annotations

import functools
import json
import os
import sys
from dataclasses import asdict

import click

from . import model, pipeline
from .encode import encode_view, predict as predict_records
from .errors import NanocoronaError, NoDataError
from .schema import parse_sample_table, write_json_atomic, write_table
from .splits import classification_view, regression_view


_SHARED_OPTIONS = (
    click.option("--config", required=True, type=click.Path(exists=True)),
    click.option("--set", "sets", multiple=True, metavar="KEY=VALUE"),
    click.option("--out", default=None, help="Output directory."),
    click.option("--seed", type=int, default=None),
    click.option("--provider",
                 type=click.Choice(pipeline.PROVIDER_KINDS),
                 default=None),
    click.option("--endpoint", default=None,
                 help="Remote embedding service URL."),
)


def _command(fn):
    """Give `fn` the shared options and call it with the loaded config, once
    its out dir exists; a bad config or --set exits 2, a package error is
    reported and exits 1.  The flags are overrides applied after the --set
    items."""
    @functools.wraps(fn)
    def command(config, sets, out, seed, provider, endpoint, **kwargs):
        flags = [("paths.out_dir", out), ("split.seed", seed),
                 ("model.seed", seed), ("provider.kind", provider),
                 ("provider.endpoint", endpoint)]
        overrides = [*sets, *(f"{key}={json.dumps(value)}"
                              for key, value in flags
                              if value not in (None, ""))]
        try:
            cfg = pipeline.apply_overrides(pipeline.load_config(config),
                                           overrides)
        except ValueError as exc:
            raise click.UsageError(f"bad config or --set: {exc}") from None
        os.makedirs(cfg["paths"]["out_dir"], exist_ok=True)
        try:
            fn(cfg, **kwargs)
        except NanocoronaError as exc:
            click.echo(str(exc), err=True)
            sys.exit(1)

    for option in reversed(_SHARED_OPTIONS):
        command = option(command)
    return command


@click.group()
def main():
    """Curate, train, and analyze nanomaterial-protein interaction models."""


def _stage_command(name):
    @main.command(name=name)
    @_command
    def command(cfg):
        manifest = pipeline.RunManifest(cfg, cfg["paths"]["out_dir"])
        for path in pipeline.run_stage(name, cfg, manifest):
            click.echo(path)


for _name in pipeline.RUN_ALL_ORDER:
    _stage_command(_name)


@main.command(name="run-all")
@_command
def run_all(cfg):
    """Run every stage in order with chained manifests."""
    pipeline.run_end_to_end(cfg)
    click.echo(cfg["paths"]["out_dir"])


@main.command()
@_command
@click.option("--checkpoint", required=True, type=click.Path(exists=True))
@click.option("--data", "data_path", required=True,
              type=click.Path(exists=True),
              help="Sample table for fine-tuning.")
def finetune(cfg, checkpoint, data_path):
    """Fine-tune only the prediction head on new data, for the checkpoint's
    task (regression targets through the run's boxcox.json), and score the
    tuned model on the rows fine-tuning held out."""
    schema, catalog, providers = pipeline.load_encoding(cfg)
    records = parse_sample_table(data_path, schema)
    base = model.load_checkpoint(checkpoint)
    if base.config.task == "regression":
        transform = pipeline.load_transform(cfg)
        if transform is None:
            raise NoDataError("boxcox.json has a null lambda: split fitted "
                              "no transform for regression targets")
        view = regression_view(records, transform)
    else:
        view = classification_view(records)
    data = encode_view(view.records, view.labels, schema, catalog,
                       providers, base.config.modality)
    tuned, history, (_, _, idx_test) = model.finetune(base, data,
                                                      base.config)
    out_path = pipeline._out(cfg, "model_finetuned.ckpt")
    model.save_checkpoint(tuned, out_path)
    hist_path = pipeline._out(cfg, "history_finetuned.json")
    write_json_atomic(hist_path, asdict(history), indent=1)
    task, labels = base.config.task, data[2][idx_test]
    scores = model.forward(tuned, *(None if m is None else m.take(idx_test)
                                    for m in data[:2]))
    metrics_path = pipeline._out(cfg, "metrics_finetuned.json")
    write_json_atomic(metrics_path, {
        "n": len(idx_test), "metric_kind": model.metric_kind(labels, task),
        "value": model.score(scores, labels, task) if len(labels) else None},
        indent=1)
    click.echo(out_path)
    click.echo(hist_path)
    click.echo(metrics_path)


@main.command()
@_command
@click.option("--checkpoint", required=True, type=click.Path(exists=True))
@click.option("--data", "data_path", required=True,
              type=click.Path(exists=True))
def predict(cfg, checkpoint, data_path):
    """Zero-shot predictions for a sample table."""
    schema, catalog, providers = pipeline.load_encoding(cfg)
    records = parse_sample_table(data_path, schema)
    params = model.load_checkpoint(checkpoint)
    scores = predict_records(params, records, providers, schema, catalog)
    click.echo(write_table(pipeline._out(cfg, "predictions.tsv"),
                           ("sample_id", "prediction"),
                           ((rec.sample_id, float(score))
                            for rec, score in zip(records, scores))))


if __name__ == "__main__":
    main()
