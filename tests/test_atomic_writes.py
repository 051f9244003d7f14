"""Fault injection for the one writer: a file is replaced whole or not at
all.  Rows that fail partway, or a crash at the final rename, leave the
previous file's bytes, and a write that succeeds leaves no tmp file."""

from __future__ import annotations

import os
from dataclasses import replace

import numpy as np
import pytest

from nanocorona.errors import CorruptError
from nanocorona.importance import write_importance_report
from nanocorona.model import init_params, load_checkpoint, save_checkpoint
from nanocorona.schema import SampleRecord, write_sample_table, write_table
from nanocorona.splits import SplitAssignment, write_split_manifest

from conftest import base_features, tiny_config


def _records(schema, n=6):
    rng = np.random.default_rng(0)
    return [SampleRecord(sample_id=f"s{i}", study_id="st", group_id="g",
                         origin_id=f"o{i}", features=base_features(schema, rng),
                         protein_accession=f"P{i:05d}", rpa=0.01 * i)
            for i in range(n)]


def sample_table(tmp_path, schema, fail):
    records = _records(schema)
    if fail:  # the fourth record's features are not a dict
        records[3] = replace(records[3], features=None)
    write_sample_table(records, tmp_path / "curated.tsv", schema)


class _BinsFailingAt(dict):
    def get(self, key, default=None):
        if key == "o3":
            raise RuntimeError("bin lookup failed")
        return super().get(key, default)


def split_manifest(tmp_path, schema, fail):
    origins = [f"o{i}" for i in range(6)]
    bins = {o: i for i, o in enumerate(origins)}
    write_split_manifest(SplitAssignment(
        assignment={o: "train" for o in origins},
        bins=_BinsFailingAt(bins) if fail else bins),
        tmp_path / "split_manifest.tsv")


def table(tmp_path, schema, fail):
    def rows():
        for i in range(6):
            if fail and i == 3:
                raise RuntimeError("row source failed")
            yield i, f"name{i}", 0.5 * i, None
    write_table(tmp_path / "fig.csv", ("i", "name", "value", "empty"),
                rows(), sep=",")


def importance_report(tmp_path, schema, fail):
    features = [{"feature": f"f{i}", "delta": 0.1 * i} for i in range(6)]
    if fail:  # the fourth row lacks its delta
        del features[3]["delta"]
    report = {"features": features,
              "interactions": [{"pair": ["f0", "f1"], "interaction": 0.2,
                                "magnitude": 0.2, "class": "synergy"}]}
    write_importance_report(report, tmp_path / "importance.json",
                            tmp_path / "fig_importance.csv")


@pytest.mark.parametrize("write, error", [
    (sample_table, AttributeError),
    (split_manifest, RuntimeError),
    (table, RuntimeError),
    (importance_report, KeyError),
])
def test_rows_failing_partway_leave_the_previous_file(tmp_path, schema,
                                                      write, error):
    write(tmp_path, schema, fail=False)
    before = {p.name: p.read_bytes() for p in tmp_path.iterdir()}
    assert before and not any(name.endswith(".tmp") for name in before)
    with pytest.raises(error):
        write(tmp_path, schema, fail=True)
    assert {p.name: p.read_bytes() for p in tmp_path.iterdir()} == before


def test_table_format(tmp_path):
    table(tmp_path, None, fail=False)
    assert (tmp_path / "fig.csv").read_bytes() == (
        b"i,name,value,empty\n" + b"".join(
            f"{i},name{i},{0.5 * i},\n".encode() for i in range(6)))


@pytest.mark.parametrize("d_shared", [4, 16])
def test_crash_between_payload_and_header_is_corrupt(tmp_path, monkeypatch,
                                                     d_shared):
    path = tmp_path / "m.ckpt"
    save_checkpoint(init_params(tiny_config(d_shared=8)), path)
    assert sorted(os.listdir(tmp_path)) == ["m.ckpt", "m.ckpt.bin"]
    rename = os.replace

    def crash_at_header(src, dst):
        if str(dst) == str(path):
            raise OSError("crash before the header's rename")
        rename(src, dst)

    monkeypatch.setattr(os, "replace", crash_at_header)
    with pytest.raises(OSError, match="crash"):
        save_checkpoint(init_params(tiny_config(d_shared=d_shared)), path)
    with pytest.raises(CorruptError):
        load_checkpoint(path)
