"""Digest pin of everything `run`, `sweep` and `audit` produce.

The harness's scoring, the Reac baseline and the CSV writers may be
rewritten for speed, but what they write must not change by a bit. Each
file's bytes are hashed after two run-specific fields are removed: the
record header's `wall_time_s` and the resolved config's `out_dir`. The
`audit` stdout of one record per scenario is hashed too.

`run` writes its records across the process's CPUs, so the bytes are pinned
both when one process writes them all and when a forked child writes a share.
"""

import contextlib
import hashlib
import io
import json
import os

import pytest

from pdomd.cli import main
from pdomd.config import config_from_mapping
from pdomd.experiment import run_experiment, sweep_rates

RECORD_PREFIX = "# pdomd-run v1 "

CONFIGS = {
    "datacenter": {"scenario": "datacenter", "T": 200, "seeds": [0, 1]},
    "synthetic": {
        "scenario": "synthetic",
        "T": 200,
        "seeds": [0, 1],
        "variant": "general",
        "synthetic": {"d": 10, "n_ineq": 2, "n_eq": 2, "instance_seed": 0},
    },
    "sweep": {"scenario": "synthetic", "seeds": [0, 1], "sweep_T": [50, 100]},
    "synthetic-simplex": {
        "scenario": "synthetic",
        "T": 200,
        "seeds": [0, 1],
        "variant": "simplex",
        "synthetic": {"d": 10, "n_ineq": 2, "n_eq": 2, "instance_seed": 0},
    },
}

PINNED = {
    "datacenter": {
        "config_resolved.json": "380f7243dc2eae71e3d2fdf6dc8b1c5f1f24bdf0a17189a2b6565a74256eeb56",
        "cost_cumulative.csv": "0f75ccacbbfd3e70b017665f5f63d4aa9eb1ba3f34e64dc35c63287114e7417f",
        "metrics.csv": "e04323477acd664eda8f936b2944ed75eed3430842bfb68f1238ab83fb238653",
        "records/run_seed0.csv": "9c83f4cb1e47cdacc28bfc99228ffa3fd77bb0485f37dc362b7b74b1b07383a2",
        "records/run_seed1.csv": "95d9b442949f3224824cd0bac263451d4a50a58641cc3904ee0690fc98ba7464",
        "violation_eq.csv": "8797506d52134ad46b0a48af7ff8913c4a4c29c87fa7fc97217cb7e852957cdf",
        "violation_ineq.csv": "1397677d9610c4b9cbecc4651d8ecf339cdac948d2004a717d4d4497c438551b",
        "audit_stdout": "3163f9264f5cc02da9e7e8336bb5e64d25de1587d660c30ad3c67aa3be6f9c5c",
    },
    "sweep": {
        "sweep_means.csv": "bb40d4b454b69ebe191755e3826e8a55c50b9f5261dc0b778e46a8bc51f5e91b",
        "sweep_report.json": "61360dd4c67d14a435417b4a50b0ac1fe6f60a86b495a50a57aad173e910903a",
    },
    "synthetic": {
        "config_resolved.json": "2c709f8769debf064d5d6f2e0b345c62cd5d7c6e5ee2e05432f6d1fffceae71a",
        "cost_cumulative.csv": "9d30fc05ea30816710a6bbad79009337e2a0a6532e23c467f1d06bfacbacec76",
        "metrics.csv": "7b240e7b3f50572b3a201799ba598bd0c1dd7492d1d91ffcd8d9c9011e2c8707",
        "records/run_seed0.csv": "ad51d0376ea3332ffbde8ba69587b41a9c5cb34da5ebe5d3314c43caa8f6b706",
        "records/run_seed1.csv": "4e34ae4ce5331ea7fd175a9bfc2cc0fe954e8fb04b7a2073d2e31ebd40ba8ab8",
        "violation_eq.csv": "ac814f765346ab814c6b83d478f9275c4143074598911fb8eb4035837dea2d7a",
        "violation_ineq.csv": "dd43a8abc8af0e48faf295fa301b29adba911bccd8d60f8e7578d5136850132e",
        "audit_stdout": "9e1142f1e03eb4dba5ca1e962d0b5221d4d6aa642abfbcdfa8f8373e95342056",
    },
    "synthetic-simplex": {
        "config_resolved.json": "102221b2d40f5a16774c81dd36fdcb7bceed799bd1d9e14545feb1a38ae10b64",
        "cost_cumulative.csv": "b508fcd0a68104e5153756b017944dd40521c90da68ab3cf5d4a686292cfd249",
        "metrics.csv": "7975933c3237182f6299c38bf443b2b3871753b528e51b446c0d6a59bfb41eb0",
        "records/run_seed0.csv": "2eed3aa022fb849588f9fd208c8b5a05851ff195799f33ff5fb95fc5b6e9075b",
        "records/run_seed1.csv": "fd7da7c47b4a620777a1db7716d9c198636800f5462e3263005606f1ba208b1a",
        "violation_eq.csv": "d007e1af9d939472237e3c4d98ec8c04a093deb66022e5d8bab07c92f5e57f7d",
        "violation_ineq.csv": "45032e37ba917f58c8b4faf31f72df7d9b76a13f6fcdef2b03dd066a124371e6",
        "audit_stdout": "77ff4edf0c789c89db804c29d0efb0b7bcebd2b31794c2247a982223a5bb1896",
    },
}


def canonical_bytes(path) -> bytes:
    """The file's bytes without the fields that differ from run to run."""
    data = path.read_bytes()
    if path.suffix == ".json":
        payload = json.loads(data)
        payload.pop("out_dir", None)
        return json.dumps(payload, sort_keys=True).encode()
    if data.startswith(RECORD_PREFIX.encode()):
        first, rest = data.split(b"\n", 1)
        header = json.loads(first[len(RECORD_PREFIX):])
        del header["wall_time_s"]
        return RECORD_PREFIX.encode() + json.dumps(header).encode() + b"\n" + rest
    return data


def digests(out_dir) -> dict:
    return {
        path.relative_to(out_dir).as_posix(): hashlib.sha256(canonical_bytes(path)).hexdigest()
        for path in sorted(out_dir.rglob("*"))
        if path.is_file()
    }


def audit_stdout(out_dir) -> str:
    printed = io.StringIO()
    with contextlib.redirect_stdout(printed):
        code = main([
            "audit",
            "--config", str(out_dir / "config_resolved.json"),
            "--record", str(out_dir / "records" / "run_seed0.csv"),
        ])
    assert code == 0
    return printed.getvalue()


def produce(name: str, out_dir) -> dict:
    config = config_from_mapping({**CONFIGS[name], "out_dir": str(out_dir)})
    if name == "sweep":
        sweep_rates(config)
        return digests(out_dir)
    run_experiment(config)
    found = digests(out_dir)
    found["audit_stdout"] = hashlib.sha256(audit_stdout(out_dir).encode()).hexdigest()
    return found


@pytest.mark.parametrize("name", sorted(CONFIGS))
def test_outputs_match_pinned_digests(tmp_path, name):
    assert produce(name, tmp_path / "out") == PINNED[name]


@pytest.mark.parametrize("cpus", [1, 2], ids=["in-process", "forked"])
@pytest.mark.parametrize("name", ["datacenter", "synthetic", "synthetic-simplex"])
def test_record_splits_match_pinned_digests(tmp_path, monkeypatch, name, cpus):
    monkeypatch.setattr(os, "sched_getaffinity", lambda pid: set(range(cpus)))
    assert produce(name, tmp_path / "out") == PINNED[name]
