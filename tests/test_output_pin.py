"""Digest pin of everything `run`, `sweep` and `audit` produce.

The harness's scoring, the Reac baseline and the CSV writers may be
rewritten for speed, but what they write must not change by a bit. Each
file's bytes are hashed after two run-specific fields are removed: the
record header's `wall_time_s` and the resolved config's `out_dir`. The
`audit` stdout of one record per scenario is hashed too.
"""

import contextlib
import hashlib
import io
import json

import pytest

from pdomd.cli import config_from_mapping, main, run_experiment, sweep_rates

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
        "records/run_seed0.csv": "e7ec39302bb5d831a6b37ec4cca0ddfc34b017eded1ef823f4976c0c2446b6b6",
        "records/run_seed1.csv": "47ae36e4e4b7a056ed09a38eeece894c1d1b8f56d581bdbbecfd82b97882f09f",
        "violation_eq.csv": "8797506d52134ad46b0a48af7ff8913c4a4c29c87fa7fc97217cb7e852957cdf",
        "violation_ineq.csv": "1397677d9610c4b9cbecc4651d8ecf339cdac948d2004a717d4d4497c438551b",
        "audit_stdout": "3163f9264f5cc02da9e7e8336bb5e64d25de1587d660c30ad3c67aa3be6f9c5c",
    },
    "sweep": {
        "sweep_means.csv": "5a5708bcb30f766ba83055ff24d1f6208250a881100f028f10ff2fef4c2b85c9",
        "sweep_report.json": "c39afa8ef17564b09b96659c0a4debb05588a7c779b6b2a7f7327d8f9a33749f",
    },
    "synthetic": {
        "config_resolved.json": "2c709f8769debf064d5d6f2e0b345c62cd5d7c6e5ee2e05432f6d1fffceae71a",
        "cost_cumulative.csv": "040e44a11679141e37848e148b1feb949de288dc5bcc315f9bb255da2caf8704",
        "metrics.csv": "6e75af310632fccd1f50c56166d634166a6edb3601647c9ae0e3b97dd29fde95",
        "records/run_seed0.csv": "c9ee7537556dcb89c5f0d977834c2654a71f23128085b1e229e68a9b4fde3738",
        "records/run_seed1.csv": "b506b30d0ea1203fd2253dc488862145c46f69b0efd0b3b9ddf3c2da40821d9a",
        "violation_eq.csv": "8f0810e7af48ae3301334feaca19e6681c1cf429fa50ffc7d13dc8e3e7d75780",
        "violation_ineq.csv": "8ad9712304dedbf818b57fb2ed15cc6cdd500199b450dbeda7d9681d85817287",
        "audit_stdout": "9e1142f1e03eb4dba5ca1e962d0b5221d4d6aa642abfbcdfa8f8373e95342056",
    },
    "synthetic-simplex": {
        "config_resolved.json": "102221b2d40f5a16774c81dd36fdcb7bceed799bd1d9e14545feb1a38ae10b64",
        "cost_cumulative.csv": "4b808415a1ecdcbcefbd72a30cfc8467f5191a32839328c52eb389ff8ba0178e",
        "metrics.csv": "b9d22fe179d3c5d39413beb60c4eb207ffde572e168ff703d87d72ddd132fe80",
        "records/run_seed0.csv": "55e5a96b23f5b21839da87f14eb10eb538f7b3a1dd56362f59aaae7f163687f0",
        "records/run_seed1.csv": "4f25302b87ea017590f014ae52902b411242ed3188541d1c2fe8ef5e5489f537",
        "violation_eq.csv": "160f1d62454d6cd83079ee82df5218bc2b7c3be4534ab93f1c0335fb75691feb",
        "violation_ineq.csv": "5a3c93bdcc8dd041ffe3417f98bd0336e931be423666d8dbde3d40f55fd52048",
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
