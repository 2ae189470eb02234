import ast
import collections
import dataclasses
import importlib.util
import json
import math
import multiprocessing
import os
import re
import resource
import subprocess
import sys
import warnings
from pathlib import Path

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from pdomd import (
    build_synthetic_problem, cli, core, experiment, hindsight_optimum, iterate_run, run,
)
from pdomd.problems import SEED_BLOCK, reac_schedule
from pdomd.cli import main
from pdomd.config import (
    ExperimentConfig,
    build_problem,
    config_from_mapping,
    config_to_mapping,
    generate_price_trace,
    ingest_price_trace,
    parse_config,
    parse_seed_range,
    write_price_trace,
)
from pdomd.experiment import run_experiment, sweep_rates
from pdomd.errors import ConfigError, PdomdError
from pdomd.telemetry import COLUMNS, compute_metrics, import_record
from reference import member


REPO = Path(__file__).resolve().parents[1]


def write_config(path, **entries):
    path.write_text(json.dumps(entries))
    return path


class TestConfigParsing:
    def test_minimal_defaults(self, tmp_path):
        path = write_config(tmp_path / "c.json", scenario="synthetic", T=400)
        config = parse_config(path)
        assert config.horizon == 400
        assert config.seeds == tuple(range(20))
        assert config.resolved_variant == "simplex"
        assert config.sweep_horizons == (100, 400, 1600, 6400)
        # defaults defer to the schedule: V = sqrt(T), alpha = T
        params = config.params_for(400)
        assert params.objective_weight == pytest.approx(20.0)
        assert params.prox_weight == pytest.approx(400.0)

    def test_unknown_key_rejected_by_name(self):
        with pytest.raises(ConfigError, match="alpha_beta"):
            config_from_mapping({"scenario": "synthetic", "alpha_beta": 1})

    def test_nested_path_in_diagnostics(self):
        with pytest.raises(ConfigError, match=r"synthetic\.d"):
            config_from_mapping({"synthetic": {"d": "ten"}})
        with pytest.raises(ConfigError, match=r"synthetic\.n_ineq"):
            config_from_mapping({"synthetic": {"n_ineq": -1}})
        with pytest.raises(ConfigError, match=r"datacenter\.pareto_shape"):
            config_from_mapping({"datacenter": {"pareto_shape": 0.5}})

    def test_non_finite_numbers_rejected(self, tmp_path, capsys):
        # Python's json accepts NaN and Infinity; a config must not.
        for entries, key in (
            ({"V": float("nan")}, "V"),
            ({"alpha": float("inf")}, "alpha"),
            ({"theta": float("-inf")}, "theta"),
            ({"scenario": "datacenter", "datacenter": {"pareto_shape": float("nan")}}, "pareto_shape"),
            ({"V": 10**400}, "V"),
        ):
            path = write_config(tmp_path / "c.json", **entries)
            assert main(["run", "--config", str(path)]) == 2
            assert key in capsys.readouterr().err

    def test_override_ranges_rejected_by_key(self, tmp_path, capsys):
        # before the run starts, under the config's key, not the params field
        for entries, message in (
            ({"V": -1}, "V: must exceed 0"),
            ({"alpha": 0}, "alpha: must exceed 0"),
            ({"theta": 1.5}, "theta: must lie in [0, 1)"),
        ):
            path = write_config(tmp_path / "c.json", T=50, seeds=[0], **entries)
            out = tmp_path / "out"
            assert main(["run", "--config", str(path), "--out", str(out)]) == 2
            assert message in capsys.readouterr().err
            assert not out.exists()
        assert config_from_mapping({"V": 1e-300, "alpha": 5e-324, "theta": 0}).mixing_weight == 0

    def test_theta_rejected_on_general_variant(self):
        with pytest.raises(ConfigError, match="theta"):
            config_from_mapping({"variant": "general", "theta": 0.01})
        with pytest.raises(ConfigError, match="theta"):
            config_from_mapping({"scenario": "datacenter", "theta": 0.01})
        assert config_from_mapping({"theta": 0.01}).mixing_weight == 0.01

    def test_short_horizon_rejected(self):
        with pytest.raises(ConfigError, match="T"):
            config_from_mapping({"T": 1})

    def test_boolean_not_an_integer(self):
        with pytest.raises(ConfigError, match="expected an integer"):
            config_from_mapping({"T": True})

    def test_datacenter_refuses_simplex_variant(self):
        with pytest.raises(ConfigError, match="box"):
            config_from_mapping({"scenario": "datacenter", "variant": "simplex"})

    def test_duplicate_seeds_rejected(self):
        with pytest.raises(ConfigError, match="duplicate"):
            config_from_mapping({"seeds": [0, 1, 1]})

    def test_sweep_horizons_must_increase(self):
        with pytest.raises(ConfigError, match="increasing"):
            config_from_mapping({"sweep_T": [400, 100]})

    def test_equalities_bounded_by_dimension(self):
        with pytest.raises(ConfigError, match=r"synthetic\.n_eq"):
            config_from_mapping({"synthetic": {"d": 3, "n_eq": 3}})

    def test_invalid_json_named(self, tmp_path):
        path = tmp_path / "broken.json"
        # the second text nests too deep for the decoder's recursion limit
        for text in ("{not json", "[" * 200_000 + "]" * 200_000):
            path.write_text(text)
            with pytest.raises(ConfigError, match="not valid JSON"):
                parse_config(path)

    def test_non_utf8_named(self, tmp_path):
        path = tmp_path / "latin.json"
        path.write_bytes(b"\xff\xfe{bad")
        with pytest.raises(ConfigError, match="cannot read config .*latin.json"):
            parse_config(path)

    def test_missing_file_named(self, tmp_path):
        with pytest.raises(ConfigError, match="cannot read config"):
            parse_config(tmp_path / "absent.json")

    def test_hash_ignores_out_dir(self):
        a = config_from_mapping({"T": 64, "out_dir": "left"})
        b = config_from_mapping({"T": 64, "out_dir": "right"})
        assert a.config_hash() == b.config_hash()
        c = config_from_mapping({"T": 65, "out_dir": "left"})
        assert a.config_hash() != c.config_hash()


_FINITE = st.floats(allow_nan=False, allow_infinity=False)
_POSITIVE = st.floats(0.0, exclude_min=True, allow_infinity=False)


@st.composite
def config_mappings(draw):
    """A mapping config_from_mapping accepts, with small T and seeds."""
    scenario = draw(st.sampled_from(["synthetic", "datacenter"]))
    variants = [None, "general"] + (["simplex"] if scenario == "synthetic" else [])
    variant = draw(st.sampled_from(variants))
    d = draw(st.integers(2, 12))
    mapping = {
        "scenario": scenario,
        "T": draw(st.integers(2, 64)),
        "seeds": draw(st.lists(st.integers(0, 2**31), min_size=1, max_size=3, unique=True)),
        "out_dir": draw(st.text(min_size=1, max_size=8)),
        "sweep_T": sorted(draw(st.sets(st.integers(2, 10**5), max_size=4))),
        "synthetic": {
            "d": d,
            "n_ineq": draw(st.integers(0, 4)),
            "n_eq": draw(st.integers(0, d - 1)),
            "instance_seed": draw(st.integers(0, 2**31)),
        },
        "datacenter": {
            "trace": draw(st.none() | st.text(max_size=8)),
            "trace_seed": draw(st.integers(0, 2**31)),
            "pareto_shape": draw(st.floats(1.0, 1e6, exclude_min=True)),
        },
    }
    if variant is not None:
        mapping["variant"] = variant
    for key in ("V", "alpha"):
        if draw(st.booleans()):
            mapping[key] = draw(_POSITIVE)
    if (variant or ("general" if scenario == "datacenter" else "simplex")) == "simplex":
        if draw(st.booleans()):
            mapping["theta"] = draw(st.floats(0.0, 1.0, exclude_max=True))
    return mapping


@settings(max_examples=100, deadline=None)
@given(mapping=config_mappings())
def test_config_round_trip_property(mapping):
    config = config_from_mapping(mapping)
    written = json.loads(json.dumps(config_to_mapping(config)))  # as config_resolved.json
    back = config_from_mapping(written)
    # the written mapping names the resolved variant; nothing else changes
    assert back == dataclasses.replace(config, variant=config.resolved_variant)
    assert back.config_hash() == config.config_hash()


# Per key: the JSON types a well-formed value may have. Any other type is
# ill-typed; "none" is a null, which only optional keys accept.
_KEY_TYPES = {
    ("scenario",): {"str"},
    ("T",): {"int"},
    ("seeds",): {"list"},
    ("variant",): {"str", "none"},
    ("V",): {"int", "float", "none"},
    ("alpha",): {"int", "float", "none"},
    ("theta",): {"int", "float", "none"},
    ("synthetic",): {"dict"},
    ("synthetic", "d"): {"int"},
    ("synthetic", "n_ineq"): {"int"},
    ("synthetic", "n_eq"): {"int"},
    ("synthetic", "instance_seed"): {"int"},
    ("datacenter",): {"dict"},
    ("datacenter", "trace"): {"str", "none"},
    ("datacenter", "trace_seed"): {"int"},
    ("datacenter", "pareto_shape"): {"int", "float"},
    ("out_dir",): {"str"},
    ("sweep_T",): {"list"},
}
_VALUES = {
    "str": st.text(max_size=5),
    "int": st.integers(),
    "float": st.floats(allow_nan=False).filter(lambda x: not x.is_integer()),
    "list": st.lists(st.integers(), max_size=2),
    "dict": st.dictionaries(st.text(max_size=3), st.integers(), max_size=2),
    "bool": st.booleans(),
    "none": st.none(),
}
_NUMBER_KEYS = [
    ("T",), ("V",), ("alpha",), ("theta",), ("synthetic", "d"), ("datacenter", "pareto_shape")
]
_SEED_KEYS = [("seeds", 0), ("synthetic", "instance_seed"), ("datacenter", "trace_seed")]


@st.composite
def broken_config_mappings(draw):
    """A well-formed mapping with one non-finite, unknown, ill-typed or
    out-of-range key, or one negative seed."""
    mapping = draw(config_mappings())
    kind = draw(st.sampled_from(
        ["non-finite", "unknown", "ill-typed", "negative-seed", "out-of-range"]
    ))
    if kind == "non-finite":
        path = draw(st.sampled_from(_NUMBER_KEYS))
        value = draw(st.sampled_from([math.nan, math.inf, -math.inf]))
    elif kind == "out-of-range":
        path = draw(st.sampled_from([("V",), ("alpha",), ("theta",)]))
        out_of_range = st.floats(max_value=0.0, allow_infinity=False)
        if path == ("theta",):  # theta's [0, 1) holds 0.0 and -0.0: draw below both, or from 1 up
            out_of_range = st.floats(max_value=-math.ulp(0.0), allow_infinity=False) | st.floats(
                1.0, allow_infinity=False
            )
        value = draw(out_of_range)
    elif kind == "negative-seed":
        path = draw(st.sampled_from(_SEED_KEYS))
        value = draw(st.integers(max_value=-1))
    elif kind == "unknown":
        section = draw(st.sampled_from([(), ("synthetic",), ("datacenter",)]))
        known = {key[-1] for key in _KEY_TYPES if key[:-1] == section} | {"config_hash"}
        path = section + (draw(st.text(max_size=8).filter(lambda k: k not in known)),)
        value = draw(st.integers())
    else:
        path = draw(st.sampled_from(sorted(_KEY_TYPES)))
        value = draw(st.one_of(*(_VALUES[t] for t in sorted(set(_VALUES) - _KEY_TYPES[path]))))
    owner = mapping
    for key in path[:-1]:
        owner = owner[key]
    owner[path[-1]] = value
    return mapping


@settings(max_examples=150, deadline=None)
@given(mapping=broken_config_mappings())
def test_broken_config_is_exit_2_property(tmp_path_factory, mapping):
    path = tmp_path_factory.mktemp("config") / "c.json"
    path.write_text(json.dumps(mapping))
    out = str(path.with_name("out"))  # never written: parsing must fail first
    assert main(["run", "--config", str(path), "--out", out]) == 2


# Each mapping and the exact ConfigError it raises: one bad value per
# setting, each rule that links two fields, non-objects, unknown keys, and
# mappings with several faults, where the first fault in check order is named.
_CONFIG_ERRORS = [
    ({"scenario": "lab"}, "scenario: must be 'synthetic' or 'datacenter'"),
    ({"T": 1}, "T: must be at least 2"),
    ({"T": 2.5}, "T: expected an integer"),
    ({"seeds": []}, "seeds: expected a nonempty list of integers"),
    ({"seeds": [0, -1]}, "seeds[1]: must be at least 0"),
    ({"seeds": [0, "1"]}, "seeds[1]: expected an integer"),
    ({"variant": "mirror"}, "variant: must be one of ('general', 'simplex')"),
    ({"V": "10"}, "V: expected a number"),
    ({"alpha": math.inf}, "alpha: expected a finite number"),
    ({"theta": True}, "theta: expected a number"),
    ({"synthetic": {"d": 1}}, "synthetic.d: must be at least 2"),
    ({"synthetic": {"n_ineq": -1}}, "synthetic.n_ineq: must be at least 0"),
    ({"synthetic": {"n_eq": None}}, "synthetic.n_eq: expected an integer"),
    ({"synthetic": {"instance_seed": -3}}, "synthetic.instance_seed: must be at least 0"),
    ({"datacenter": {"trace": 7}}, "datacenter.trace: expected a path string or null"),
    ({"datacenter": {"pareto_shape": "2"}}, "datacenter.pareto_shape: expected a number"),
    ({"datacenter": {"pareto_shape": 10**400}}, "datacenter.pareto_shape: expected a finite number"),
    ({"datacenter": {"trace_seed": False}}, "datacenter.trace_seed: expected an integer"),
    ({"out_dir": ""}, "out_dir: expected a nonempty string"),
    ({"sweep_T": 100}, "sweep_T: expected a list of integers"),
    ({"sweep_T": [100, 1]}, "sweep_T[1]: must be at least 2"),
    ({"config_hash": 5}, "config_hash: expected a string"),
    # rules
    ({"seeds": [0, 1, 1]}, "seeds: duplicate entries"),
    (
        {"scenario": "datacenter", "variant": "simplex"},
        "variant: the datacenter decision set is a box; the simplex variant does not apply",
    ),
    ({"synthetic": {"d": 3, "n_eq": 3}}, "synthetic.n_eq: must be smaller than synthetic.d"),
    ({"datacenter": {"pareto_shape": 1}}, "datacenter.pareto_shape: must exceed 1"),
    ({"sweep_T": [400, 100]}, "sweep_T: horizons must be strictly increasing"),
    ({"sweep_T": [100, 100]}, "sweep_T: horizons must be strictly increasing"),
    ({"variant": "general", "theta": 0.01}, "theta: the general variant has no mixing step"),
    ({"scenario": "datacenter", "theta": 0.01}, "theta: the general variant has no mixing step"),
    (
        {"T": 64, "config_hash": "0" * 64},
        "config_hash: declared 000000000000 does not match the configured values (965f7b717aa3)",
    ),
    # non-objects and unknown keys
    ([], "config: expected an object"),
    ("config", "config: expected an object"),
    ({"synthetic": [1]}, "synthetic: expected an object"),
    ({"datacenter": None}, "datacenter: expected an object"),
    ({"alpha_beta": 1}, "unknown key 'alpha_beta'"),
    ({"synthetic": {"dimension": 5}}, "unknown key 'synthetic.dimension'"),
    ({"datacenter": {"shape": 2.0}}, "unknown key 'datacenter.shape'"),
    # several faults
    ({"datacenter": {"trace_seed": -1, "pareto_shape": 0.5}}, "datacenter.pareto_shape: must exceed 1"),
    ({"T": 1, "unknown": 0}, "unknown key 'unknown'"),
    ({"synthetic": {"d": 1, "extra": 0}}, "unknown key 'synthetic.extra'"),
    ({"T": 1, "synthetic": {"extra": 0}}, "T: must be at least 2"),
    ({"seeds": [2, 2], "variant": "mirror"}, "seeds: duplicate entries"),
    (
        {"scenario": "datacenter", "variant": "simplex", "V": "x", "out_dir": ""},
        "variant: the datacenter decision set is a box; the simplex variant does not apply",
    ),
    (
        {"synthetic": {"d": 3, "n_eq": 3}, "datacenter": {"pareto_shape": 0}},
        "synthetic.n_eq: must be smaller than synthetic.d",
    ),
    ({"datacenter": {"trace": 1, "pareto_shape": 0}}, "datacenter.trace: expected a path string or null"),
    ({"out_dir": "", "sweep_T": [1]}, "out_dir: expected a nonempty string"),
    (
        {"sweep_T": [5, 4], "variant": "general", "theta": 1},
        "sweep_T: horizons must be strictly increasing",
    ),
    ({"variant": "general", "theta": 1, "config_hash": 5}, "theta: the general variant has no mixing step"),
    # override ranges, checked when the config is read: V and alpha at their
    # rows, theta's [0, 1) after the general-variant rule
    ({"V": -1}, "V: must exceed 0"),
    ({"V": 0}, "V: must exceed 0"),
    ({"alpha": 0}, "alpha: must exceed 0"),
    ({"alpha": -2.5}, "alpha: must exceed 0"),
    ({"theta": 1.5}, "theta: must lie in [0, 1)"),
    ({"theta": 1}, "theta: must lie in [0, 1)"),
    ({"theta": -0.01}, "theta: must lie in [0, 1)"),
    ({"V": 0, "variant": "mirror"}, "variant: must be one of ('general', 'simplex')"),
    ({"alpha": 0, "synthetic": {"d": 1}}, "alpha: must exceed 0"),
    ({"theta": 2, "synthetic": {"d": 1}}, "synthetic.d: must be at least 2"),
    ({"theta": 2, "sweep_T": [5, 4]}, "sweep_T: horizons must be strictly increasing"),
    ({"theta": 2, "variant": "general"}, "theta: the general variant has no mixing step"),
    ({"theta": 2, "config_hash": "0" * 64}, "theta: must lie in [0, 1)"),
]


@pytest.mark.parametrize("mapping, message", _CONFIG_ERRORS)
def test_config_error_messages_pinned(mapping, message):
    with pytest.raises(ConfigError) as caught:
        config_from_mapping(mapping)
    assert str(caught.value) == message


# A config that sets every key, its config_hash declared.
_EVERY_KEY = {
    "scenario": "synthetic",
    "T": 250,
    "seeds": [3, 1, 4],
    "variant": "simplex",
    "V": 12.5,
    "alpha": 300,
    "theta": 0.25,
    "synthetic": {"d": 6, "n_ineq": 3, "n_eq": 1, "instance_seed": 9},
    "datacenter": {"trace": "prices.csv", "trace_seed": 5, "pareto_shape": 3},
    "out_dir": "elsewhere",
    "sweep_T": [50, 200],
    "config_hash": "bbacb65ffbecd6ddc404cd5971cd1f45022cb167195f4b0ebedbc3e37f109b80",
}


def test_config_hashes_pinned():
    default = ExperimentConfig()
    assert default.config_hash() == (
        "61cd09ebc1256b02fc25bfaf2a1688f2b3b542bb235dc5c00b442cf5a043303e"
    )
    config = config_from_mapping(_EVERY_KEY)
    assert config.config_hash() == _EVERY_KEY["config_hash"]
    assert json.dumps(config_to_mapping(config), sort_keys=True) == (
        '{"T": 250, "V": 12.5, "alpha": 300.0, "datacenter": {"pareto_shape": 3.0, '
        '"trace": "prices.csv", "trace_seed": 5}, "out_dir": "elsewhere", '
        '"scenario": "synthetic", "seeds": [3, 1, 4], "sweep_T": [50, 200], '
        '"synthetic": {"d": 6, "instance_seed": 9, "n_eq": 1, "n_ineq": 3}, '
        '"theta": 0.25, "variant": "simplex"}'
    )
    assert repr(config) == (
        "ExperimentConfig(scenario='synthetic', horizon=250, seeds=(3, 1, 4), "
        "variant='simplex', objective_weight=12.5, prox_weight=300.0, "
        "mixing_weight=0.25, synthetic=SyntheticSettings(dimension=6, n_ineq=3, "
        "n_eq=1, instance_seed=9), datacenter=DatacenterSettings(trace='prices.csv', "
        "trace_seed=5, pareto_shape=3.0), out_dir='elsewhere', sweep_horizons=(50, 200))"
    )
    assert config.has_param_overrides and not default.has_param_overrides
    params = config.params_for(50)
    assert (params.objective_weight, params.prox_weight, params.mixing_weight) == (
        12.5, 300.0, 0.25,
    )


def test_readme_config_table_matches_defaults():
    readme = (REPO / "README.md").read_text()
    table = readme.split("Config schema", 1)[1].split("\n\n")[1].splitlines()
    documented = {}
    for line in table[2:]:  # past the header and its rule
        key_cell, default_cell = line.strip("| ").split(" | ")[:2]
        for key in re.findall(r"`(\w+)`", key_cell):
            documented[key] = default_cell.strip("`")
    defaults = config_to_mapping(ExperimentConfig())
    assert set(documented) == set(defaults) | {"V", "alpha", "theta"}
    for key, default in documented.items():
        if key in ("V", "alpha", "theta"):  # unset: the schedule supplies them
            assert default == "schedule"
        elif key == "variant":
            assert default == "per scenario"
        elif key == "seeds":
            assert list(parse_seed_range(default.strip("[]"))) == defaults[key]
        else:
            assert json.loads(default) == defaults[key], key


class TestSeedRange:
    def test_range_is_inclusive(self):
        assert parse_seed_range("4..7") == (4, 5, 6, 7)

    def test_single_seed(self):
        assert parse_seed_range(" 5 ") == (5,)

    def test_backwards_range(self):
        with pytest.raises(ConfigError, match="end before start"):
            parse_seed_range("7..4")

    def test_negative_seed_rejected(self):
        for text in ("-1", "-2..3"):
            with pytest.raises(ConfigError, match="--seeds must be nonnegative"):
                parse_seed_range(text)

    def test_garbage(self):
        with pytest.raises(ConfigError):
            parse_seed_range("a..b")
        with pytest.raises(ConfigError):
            parse_seed_range("five")


class TestPriceTraces:
    def test_write_ingest_round_trip(self, tmp_path):
        trace = generate_price_trace(50, seed=3)
        path = tmp_path / "trace.csv"
        write_price_trace(trace, path)
        back = ingest_price_trace(path)
        assert back.zones == trace.zones
        # prices are written with repr, so the round trip is exact
        assert np.array_equal(back.prices, trace.prices)

    def test_zone_offsets_ordered(self):
        trace = generate_price_trace(4000, seed=1)
        means = trace.prices.mean(axis=0)
        assert np.argmax(means) == 4  # offset 1.2
        assert np.argmin(means) == 3  # offset 0.8

    def test_header_enforced(self, tmp_path):
        path = tmp_path / "bad.csv"
        path.write_text("slot,price,zone\n0,Z,1.0\n")
        with pytest.raises(ConfigError, match="header"):
            ingest_price_trace(path)

    def test_ragged_zones_rejected(self, tmp_path):
        path = tmp_path / "ragged.csv"
        path.write_text(
            "slot,zone,price\n0,a,1.0\n1,a,1.0\n0,b,2.0\n"
        )
        with pytest.raises(ConfigError, match="ragged"):
            ingest_price_trace(path)

    def test_missing_slot_rejected(self, tmp_path):
        path = tmp_path / "gap.csv"
        path.write_text(
            "slot,zone,price\n0,a,1.0\n2,a,1.0\n0,b,2.0\n2,b,2.0\n"
        )
        with pytest.raises(ConfigError, match="missing slot 1"):
            ingest_price_trace(path)

    def test_duplicate_slot_rejected(self, tmp_path):
        path = tmp_path / "dup.csv"
        path.write_text("slot,zone,price\n0,a,1.0\n0,a,1.5\n")
        with pytest.raises(ConfigError, match="duplicate slot"):
            ingest_price_trace(path)

    def test_non_numeric_rejected(self, tmp_path):
        path = tmp_path / "text.csv"
        path.write_text("slot,zone,price\n0,a,cheap\n")
        with pytest.raises(ConfigError, match="non-numeric"):
            ingest_price_trace(path)

    def test_non_finite_rejected(self, tmp_path):
        path = tmp_path / "inf.csv"
        for price in ("nan", "inf", "1e999"):
            path.write_text(f"slot,zone,price\n0,a,1.0\n1,a,{price}\n")
            with pytest.raises(ConfigError, match="inf.csv:3: non-finite price"):
                ingest_price_trace(path)

    def test_non_utf8_rejected(self, tmp_path):
        path = tmp_path / "latin.csv"
        path.write_bytes(b"slot,zone,price\n0,z\xe9,1.0\n")
        with pytest.raises(ConfigError, match="cannot read trace .*latin.csv"):
            ingest_price_trace(path)

    def test_empty_rejected(self, tmp_path):
        path = tmp_path / "empty.csv"
        path.write_text("slot,zone,price\n")
        with pytest.raises(ConfigError, match="no rows"):
            ingest_price_trace(path)


def small_config(tmp_path, **extra):
    entries = {
        "scenario": "synthetic",
        "T": 60,
        "seeds": [0, 1],
        "synthetic": {"d": 5, "n_ineq": 1, "n_eq": 1},
        "out_dir": str(tmp_path / "out"),
    }
    entries.update(extra)
    return config_from_mapping(entries)


class TestRunExperiment:
    def test_output_files_and_headers(self, tmp_path):
        config = small_config(tmp_path)
        result = run_experiment(config)
        out = result["out_dir"]
        for stem in ("cost_cumulative", "violation_ineq", "violation_eq", "metrics"):
            assert (out / f"{stem}.csv").exists()
        for seed in (0, 1):
            assert (out / "records" / f"run_seed{seed}.csv").exists()
        chash = result["config_hash"]
        for stem in ("cost_cumulative", "metrics"):
            first = (out / f"{stem}.csv").read_text().splitlines()[0]
            assert first.startswith("# pdomd-experiment v1 ")
            assert chash in first
        resolved = json.loads((out / "config_resolved.json").read_text())
        assert resolved["config_hash"] == chash
        assert resolved["T"] == 60

    def test_series_shapes_and_policies(self, tmp_path):
        config = small_config(tmp_path)
        result = run_experiment(config)
        series = result["series"]
        assert set(series["cost"]) == {"algorithm", "hindsight"}
        assert series["cost"]["algorithm"].shape == (60,)
        # cumulative mean cost increases roughly linearly; sanity only
        assert series["cost"]["algorithm"][-1] > series["cost"]["algorithm"][0]

    def test_deterministic_outputs(self, tmp_path):
        config_a = small_config(tmp_path / "a")
        config_b = small_config(tmp_path / "b")
        result_a = run_experiment(config_a)
        result_b = run_experiment(config_b)
        for stem in ("metrics", "cost_cumulative"):
            bytes_a = (result_a["out_dir"] / f"{stem}.csv").read_bytes()
            bytes_b = (result_b["out_dir"] / f"{stem}.csv").read_bytes()
            assert bytes_a == bytes_b

    def test_override_recorded_in_headers(self, tmp_path):
        config = small_config(tmp_path, V=1)
        assert config.params_for(60).objective_weight == 1.0
        result = run_experiment(config)
        first = (result["out_dir"] / "metrics.csv").read_text().splitlines()[0]
        meta = json.loads(first.removeprefix("# pdomd-experiment v1 "))
        assert meta["V"] == 1.0
        assert meta["alpha"] == pytest.approx(60.0)  # schedule value kept

    def test_override_changes_hash(self, tmp_path):
        assert (
            small_config(tmp_path, V=1).config_hash()
            != small_config(tmp_path).config_hash()
        )

    def test_resolved_config_round_trips(self, tmp_path):
        config = small_config(tmp_path)
        result = run_experiment(config)
        reloaded = parse_config(result["out_dir"] / "config_resolved.json")
        assert reloaded.config_hash() == result["config_hash"]
        assert reloaded.canonical() == config.canonical()

    def test_each_slot_drawn_once(self, tmp_path, monkeypatch):
        draws = count_draws(monkeypatch)
        run_experiment(small_config(tmp_path))
        assert draws == {t: 2 for t in range(60)}  # two seeds, one draw each

    @pytest.mark.parametrize(
        "entries",
        [
            {"synthetic": {"d": 5, "n_ineq": 1, "n_eq": 1}},
            {"scenario": "datacenter", "T": 40, "seeds": [0, 1]},
        ],
        ids=["synthetic", "datacenter"],
    )
    def test_in_pass_metrics_match_the_replay(self, tmp_path, entries):
        # The harness summarises on the draws it ran; the audit path replays
        # the exported record. Both must give the same numbers exactly.
        config = small_config(tmp_path, **entries)
        result = run_experiment(config)
        problem = build_problem(config)
        for seed, summary in result["metrics"]:
            record = import_record(result["out_dir"] / "records" / f"run_seed{seed}.csv")
            assert compute_metrics(record, result["hindsight"], problem) == summary

    @pytest.mark.parametrize(
        "entries",
        [
            {"synthetic": {"d": 6, "n_ineq": 2, "n_eq": 2}, "variant": "general"},
            {"synthetic": {"d": 5, "n_ineq": 1, "n_eq": 0}},
            {"scenario": "datacenter", "T": 40},
        ],
        ids=["synthetic", "synthetic-no-eq", "datacenter"],
    )
    def test_batched_scoring_matches_a_slot_loop(self, tmp_path, entries):
        # Reference: each policy's point scored on each slot's own functions.
        config = small_config(tmp_path, **entries)
        problem = build_problem(config)
        horizon = config.horizon
        hindsight = hindsight_optimum(problem, 0, horizon)
        [(_, summary, columns)] = experiment._scored_pass(problem, config, horizon, (1,), hindsight)
        slots = [fns for _, _, fns, _ in iterate_run(
            problem, horizon, config.params_for(horizon), 1, config.resolved_variant
        )]
        points = {"hindsight": [hindsight[0]] * horizon}
        if config.scenario == "datacenter":
            points["reac"] = reac_schedule([fns.inequalities.levels[0] for fns in slots])
        assert set(columns) == {"algorithm", *points}
        for name, policy_points in points.items():
            cost, ineq, eq = columns[name]
            for t, (fns, point) in enumerate(zip(slots, policy_points)):
                assert cost[t] == fns.objective @ point, (name, t)
                assert np.array_equal(ineq[t], fns.inequalities.values(point)), (name, t)
                assert np.array_equal(eq[t], fns.eq_matrix @ point), (name, t)
        running = 0.0
        for t in range(horizon):
            running += columns["hindsight"][0][t]
        assert summary.realized_regret == float(np.sum(columns["algorithm"][0])) - running

    def test_non_finite_lane_is_exit_3(self, tmp_path, monkeypatch, capsys):
        build = build_synthetic_problem
        monkeypatch.setattr(
            "pdomd.config.build_synthetic_problem", lambda *args: poisoned(build(*args), 4, 5)
        )
        config_path = write_config(
            tmp_path / "c.json",
            scenario="synthetic",
            T=20,
            seeds=[3, 4, 5],
            synthetic={"d": 4, "n_ineq": 1, "n_eq": 1},
            out_dir=str(tmp_path / "out"),
        )
        assert main(["run", "--config", str(config_path)]) == 3
        assert "seed 4, slot 5: observation is not finite" in capsys.readouterr().err
        assert not (tmp_path / "out" / "records" / "run_seed3.csv").exists()

    @pytest.mark.parametrize("seeds", [[4], [3, 4]], ids=["one seed", "lanes"])
    def test_non_finite_last_slot_is_exit_3(self, tmp_path, monkeypatch, capsys, seeds):
        # no step consumes the last slot's observation, so it is checked apart
        build = build_synthetic_problem
        monkeypatch.setattr(
            "pdomd.config.build_synthetic_problem", lambda *args: poisoned(build(*args), seeds[0], 19)
        )
        config_path = write_config(
            tmp_path / "c.json", scenario="synthetic", T=20, seeds=seeds,
            synthetic={"d": 4, "n_ineq": 1, "n_eq": 1}, out_dir=str(tmp_path / "out"),
        )
        assert main(["run", "--config", str(config_path)]) == 3
        assert f"seed {seeds[0]}, slot 19: observation is not finite" in capsys.readouterr().err
        assert not list((tmp_path / "out" / "records").glob("*.csv"))

    def test_failed_walk_leaves_nothing_behind(self, tmp_path, monkeypatch):
        # a forked writer has had rows of the first blocks when the last slot fails
        monkeypatch.setattr(os, "sched_getaffinity", lambda pid: {0, 1})
        build = build_synthetic_problem
        monkeypatch.setattr(
            "pdomd.config.build_synthetic_problem", lambda *args: poisoned(build(*args), 3, 599)
        )
        entries = dict(
            scenario="synthetic", T=600, seeds=[3, 4],
            synthetic={"d": 4, "n_ineq": 1, "n_eq": 1}, out_dir=str(tmp_path / "out"),
        )
        fds = len(os.listdir("/proc/self/fd"))
        with pytest.raises(PdomdError, match="seed 3, slot 599: observation is not finite"):
            run_experiment(config_from_mapping(entries))
        assert not list((tmp_path / "out" / "records").glob("*.csv"))
        assert multiprocessing.active_children() == []
        assert len(os.listdir("/proc/self/fd")) == fds
        monkeypatch.undo()
        monkeypatch.setattr(os, "sched_getaffinity", lambda pid: {0, 1})
        run_experiment(config_from_mapping(entries))
        assert len(list((tmp_path / "out" / "records").glob("*.csv"))) == 2
        assert multiprocessing.active_children() == []
        assert len(os.listdir("/proc/self/fd")) == fds

    @pytest.mark.parametrize(
        "blocked, named",
        [([2], 2), ([1, 2], 1), ([0, 1], 0)],
        ids=["child fails", "both fail, second writer's seed lower",
             "both fail, first writer's seed lower"],
    )
    def test_unwritable_record_is_exit_3(self, tmp_path, monkeypatch, capsys, blocked, named):
        # on three CPUs one forked writer takes seeds 0 and 2, another seed 1
        monkeypatch.setattr(os, "sched_getaffinity", lambda pid: {0, 1, 2})
        config_path = write_config(
            tmp_path / "c.json", scenario="synthetic", T=20, seeds=[0, 1, 2],
            synthetic={"d": 4, "n_ineq": 1, "n_eq": 1}, out_dir=str(tmp_path / "out"),
        )
        records = tmp_path / "out" / "records"
        for seed in blocked:
            (records / f"run_seed{seed}.csv").mkdir(parents=True)
        assert main(["run", "--config", str(config_path)]) == 3
        err = capsys.readouterr().err
        assert err.startswith("error: ") and str(records / f"run_seed{named}.csv") in err
        assert multiprocessing.active_children() == []

    def test_record_writer_death_is_exit_3(self, tmp_path, monkeypatch, capsys):
        monkeypatch.setattr(os, "sched_getaffinity", lambda pid: {0, 1})
        parent, record_rows = os.getpid(), experiment.record_rows

        def record_rows_or_die(*args):
            if os.getpid() != parent:
                os._exit(7)
            return record_rows(*args)

        monkeypatch.setattr(experiment, "record_rows", record_rows_or_die)
        config_path = write_config(
            tmp_path / "c.json", scenario="synthetic", T=20, seeds=[0, 1],
            synthetic={"d": 4, "n_ineq": 1, "n_eq": 1}, out_dir=str(tmp_path / "out"),
        )
        assert main(["run", "--config", str(config_path)]) == 3
        assert "record writer of seed 0 exited with code 7" in capsys.readouterr().err
        assert multiprocessing.active_children() == []

    def test_resolved_config_detects_tampering(self, tmp_path):
        config = small_config(tmp_path)
        result = run_experiment(config)
        path = result["out_dir"] / "config_resolved.json"
        resolved = json.loads(path.read_text())
        resolved["T"] = 61  # edit a value without refreshing the hash
        path.write_text(json.dumps(resolved))
        with pytest.raises(ConfigError, match="config_hash"):
            parse_config(path)


LANE_SCENARIOS = {
    "synthetic-general": {"synthetic": {"d": 6, "n_ineq": 2, "n_eq": 2}, "variant": "general"},
    "synthetic-simplex": {"synthetic": {"d": 6, "n_ineq": 2, "n_eq": 2}, "variant": "simplex"},
    "datacenter": {"scenario": "datacenter"},
}


@settings(max_examples=30, deadline=None)
@given(
    scenario=st.sampled_from(sorted(LANE_SCENARIOS)),
    seeds=st.lists(st.integers(0, 40), min_size=1, max_size=6, unique=True),
    horizon=st.integers(2, 90),
    block=st.integers(1, 40),
)
def test_lane_pass_matches_one_seed_runs(scenario, seeds, horizon, block):
    """The lane pass's records equal each seed's own `core.run` bit for
    bit, and its hindsight and Reac columns equal each slot's own functions
    scored at the point and at `reac_schedule` over the whole horizon, at
    any size of the blocks the walk draws and scores."""
    config = config_from_mapping({
        **LANE_SCENARIOS[scenario], "T": horizon, "seeds": seeds, "out_dir": "unused"
    })
    problem = build_problem(config)
    params, variant = config.params_for(horizon), config.resolved_variant
    point = member(problem.decision_set, np.random.default_rng(horizon))
    stock = core.BLOCK_LANE_SLOTS
    core.BLOCK_LANE_SLOTS = block
    try:
        passes = experiment._scored_pass(problem, config, horizon, seeds, (point, 0.0))
    finally:
        core.BLOCK_LANE_SLOTS = stock
    assert [record.seed for record, _, _ in passes] == seeds
    for seed, (record, _, columns) in zip(seeds, passes):
        alone = run(problem, horizon, params, seed, variant)
        for field, _ in COLUMNS:
            assert getattr(record, field).tobytes() == getattr(alone, field).tobytes(), field
        slots = [fns for _, _, fns, _ in iterate_run(problem, horizon, params, seed, variant)]
        points = {"hindsight": [point] * horizon}
        if scenario == "datacenter":
            points["reac"] = reac_schedule([fns.inequalities.levels[0] for fns in slots])
        assert set(columns) == {"algorithm", *points}
        for name, policy_points in points.items():
            expected = zip(*(
                (fns.objective @ at, fns.inequalities.values(at), fns.eq_matrix @ at)
                for fns, at in zip(slots, policy_points)
            ))
            for got, want in zip(columns[name], expected):
                assert got.tobytes() == np.array(want).tobytes(), name


def test_datacenter_lanes_cross_a_block_edge_as_one_seed_runs(tmp_path):
    """Six lanes draw 64 slots at a time and one seed 512, so at T=600 the
    two walks cut their blocks apart and both cross a seed-block edge; each
    exported record still equals its seed's own run bit for bit, and the
    equality rows equal the live walk's `eq_matrix @ decision`, as the
    bench compares them."""
    config = small_config(tmp_path, scenario="datacenter", T=600, seeds=[0, 1, 2, 3, 4, 5])
    result = run_experiment(config)
    problem = build_problem(config)
    params, variant = config.params_for(600), config.resolved_variant
    for seed in config.seeds:
        record = import_record(result["out_dir"] / "records" / f"run_seed{seed}.csv")
        alone = run(problem, 600, params, seed, variant)
        for field, _ in COLUMNS:
            assert getattr(record, field).tobytes() == getattr(alone, field).tobytes(), field
        live = np.array([obs.eq_matrix @ state.decision for state, _, _, obs in iterate_run(
            problem, 600, params, seed, variant)])
        assert live.tobytes() == record.eq_realized.tobytes()


@pytest.mark.parametrize(
    "entries",
    [{"scenario": "synthetic", "variant": "general"}, {"scenario": "datacenter"}],
    ids=["synthetic", "datacenter"],
)
def test_bench_tracer_still_runs(tmp_path, entries):
    # bench/run.py --trace 1 wraps the package's entry points with this
    # tracer; a name it patches that no longer fits would crash every traced run
    spec = importlib.util.spec_from_file_location("bench_tracer", REPO / "bench" / "tracer.py")
    tracer_module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(tracer_module)
    config = small_config(tmp_path, T=70, **entries)
    tracer = tracer_module.Tracer()
    with tracer.installed():
        cli.run_experiment(config)
    metrics, shares = tracer.summarize(70 * len(config.seeds))
    assert metrics and all(math.isfinite(value) for value in metrics.values()), metrics
    assert shares


class TestSweep:
    def test_single_horizon_rejected(self):
        config = ExperimentConfig(sweep_horizons=(64,))
        with pytest.raises(ConfigError, match="at least two"):
            sweep_rates(config)

    def test_datacenter_rejected(self):
        config = ExperimentConfig(scenario="datacenter")
        with pytest.raises(ConfigError, match="synthetic"):
            sweep_rates(config)

    def test_overrides_rejected(self):
        config = ExperimentConfig(prox_weight=50.0)
        with pytest.raises(ConfigError, match="override"):
            sweep_rates(config)

    def test_degenerate_curve_flagged(self, tmp_path):
        # no inequality constraints: the violation curve is identically zero
        config = dataclasses_replace_synthetic(
            ExperimentConfig(
                seeds=(0, 1),
                sweep_horizons=(16, 32),
                out_dir=str(tmp_path / "sweep"),
            ),
            dimension=4,
            n_ineq=0,
            n_eq=1,
        )
        report = sweep_rates(config)
        assert report["ineq_scaled"]["degenerate"] is True
        assert report["ineq_scaled"]["slope"] is None
        assert report["eq_scaled"]["degenerate"] is False
        assert (tmp_path / "sweep" / "sweep_report.json").exists()
        assert (tmp_path / "sweep" / "sweep_means.csv").exists()

    def test_each_slot_drawn_once(self, tmp_path, monkeypatch):
        draws = count_draws(monkeypatch)
        config = dataclasses_replace_synthetic(
            ExperimentConfig(
                seeds=(0, 1),
                sweep_horizons=(16, 32),
                out_dir=str(tmp_path / "sweep"),
            ),
            dimension=4,
        )
        sweep_rates(config)
        # two seeds per horizon; slots below 16 belong to both horizons
        assert draws == {t: 4 if t < 16 else 2 for t in range(32)}

    def test_report_written_matches_return(self, tmp_path):
        config = dataclasses_replace_synthetic(
            ExperimentConfig(
                seeds=(0,),
                sweep_horizons=(16, 32),
                out_dir=str(tmp_path / "sweep"),
            ),
            dimension=4,
            n_ineq=1,
            n_eq=1,
        )
        report = sweep_rates(config)
        on_disk = json.loads((tmp_path / "sweep" / "sweep_report.json").read_text())
        assert on_disk == json.loads(json.dumps(report))


def count_draws(monkeypatch, blocks=None):
    """Count the lane-slot draws of every synthetic problem `build_problem` builds, by slot;
    given a list, also append each drawn block's (first, end) to it."""
    draws = collections.Counter()
    build = build_synthetic_problem

    def counting_build(*args):
        problem = build(*args)

        def sample_block(seeds, first, end):
            if blocks is not None:
                blocks.append((first, end))
            for t in range(first, end):
                draws[t] += len(seeds)
            return problem.sample_block(seeds, first, end)

        return dataclasses.replace(problem, sample_block=sample_block)

    monkeypatch.setattr("pdomd.config.build_synthetic_problem", counting_build)
    return draws


def poisoned(problem, seed, slot):
    """The problem, with a NaN objective drawn at (seed, slot)."""

    def sample_block(seeds, first, end):
        block = problem.sample_block(seeds, first, end)
        if first <= slot < end and seed in seeds:
            block.objective[slot - first, list(seeds).index(seed)] = np.nan
        return block

    return dataclasses.replace(problem, sample_block=sample_block)


def dataclasses_replace_synthetic(config, **synth):
    import dataclasses

    return dataclasses.replace(
        config, synthetic=dataclasses.replace(config.synthetic, **synth)
    )


class TestMainExitCodes:
    def test_gen_trace_and_run_and_audit(self, tmp_path, capsys):
        trace_path = tmp_path / "trace.csv"
        assert main(["gen-trace", "--out", str(trace_path), "--slots", "30"]) == 0
        assert len(ingest_price_trace(trace_path)) == 30

        config_path = write_config(
            tmp_path / "c.json",
            scenario="synthetic",
            T=40,
            seeds=[0],
            synthetic={"d": 4, "n_ineq": 1, "n_eq": 1},
            out_dir=str(tmp_path / "out"),
        )
        assert main(["run", "--config", str(config_path)]) == 0
        record_path = tmp_path / "out" / "records" / "run_seed0.csv"
        assert record_path.exists()

        code = main(
            ["audit", "--config", str(config_path), "--record", str(record_path)]
        )
        assert code == 0
        assert "audit passed" in capsys.readouterr().out

        # the resolved config written next to the outputs audits the same
        # record, so a run directory is self-contained
        resolved = tmp_path / "out" / "config_resolved.json"
        code = main(["audit", "--config", str(resolved), "--record", str(record_path)])
        assert code == 0
        assert "audit passed" in capsys.readouterr().out

    def test_config_error_is_exit_2(self, tmp_path, capsys):
        bad = write_config(tmp_path / "bad.json", alpha_beta=1)
        assert main(["run", "--config", str(bad)]) == 2
        assert "alpha_beta" in capsys.readouterr().err

    @pytest.mark.parametrize("scenario", ["synthetic", "datacenter"])
    def test_subnormal_alpha_is_exit_2(self, tmp_path, capsys, scenario):
        # the prox step divides by alpha and 1 / 5e-324 overflows: the run must
        # stop before its first step, with no warning, on the simplex and the box
        path = write_config(tmp_path / "c.json", scenario=scenario, T=40, seeds=[0], alpha=5e-324)
        out = tmp_path / "out"
        with warnings.catch_warnings(record=True) as caught:
            warnings.simplefilter("always")
            assert main(["run", "--config", str(path), "--out", str(out)]) == 2
        assert [w.message for w in caught if issubclass(w.category, RuntimeWarning)] == []
        assert "prox_weight must be a normal float" in capsys.readouterr().err
        assert not out.exists()

    def test_unreadable_config_is_exit_2(self, tmp_path, capsys):
        latin = tmp_path / "latin.json"
        latin.write_bytes(b"\xff\xfe{bad")
        deep = tmp_path / "deep.json"
        deep.write_text("{\"T\": " + "[" * 200_000 + "]" * 200_000 + "}")
        for path in (latin, deep):
            for argv in (["run"], ["sweep"], ["audit", "--record", "r.csv"]):
                assert main([*argv, "--config", str(path)]) == 2
                err = capsys.readouterr().err
                assert err.startswith("config error:") and path.name in err

    def test_audit_hash_mismatch_is_exit_2(self, tmp_path, capsys):
        config_path = write_config(
            tmp_path / "c.json",
            scenario="synthetic",
            T=40,
            seeds=[0],
            synthetic={"d": 4, "n_ineq": 1, "n_eq": 1},
            out_dir=str(tmp_path / "out"),
        )
        assert main(["run", "--config", str(config_path)]) == 0
        other = write_config(
            tmp_path / "other.json",
            scenario="synthetic",
            T=44,
            seeds=[0],
            synthetic={"d": 4, "n_ineq": 1, "n_eq": 1},
        )
        record_path = tmp_path / "out" / "records" / "run_seed0.csv"
        code = main(["audit", "--config", str(other), "--record", str(record_path)])
        assert code == 2
        assert "hash mismatch" in capsys.readouterr().err

    def test_tampered_record_is_exit_3(self, tmp_path, capsys):
        config_path = write_config(
            tmp_path / "c.json",
            scenario="synthetic",
            T=40,
            seeds=[0],
            synthetic={"d": 4, "n_ineq": 1, "n_eq": 1},
            out_dir=str(tmp_path / "out"),
        )
        assert main(["run", "--config", str(config_path)]) == 0
        record_path = tmp_path / "out" / "records" / "run_seed0.csv"
        lines = record_path.read_text().splitlines()
        # perturb the recorded objective on the first data row; the row
        # layout is t, mu_0..mu_3, objective, ...
        header_rows = 2  # json header + column names
        fields = lines[header_rows].split(",")
        fields[5] = repr(float(fields[5]) + 0.5)
        lines[header_rows] = ",".join(fields)
        record_path.write_text("\n".join(lines) + "\n")
        code = main(
            ["audit", "--config", str(config_path), "--record", str(record_path)]
        )
        assert code == 3
        assert "error" in capsys.readouterr().err

    def test_malformed_record_rows_are_exit_3(self, tmp_path, capsys):
        config_path = write_config(
            tmp_path / "c.json",
            scenario="synthetic",
            T=40,
            seeds=[0],
            synthetic={"d": 4, "n_ineq": 1, "n_eq": 1},
            out_dir=str(tmp_path / "out"),
        )
        assert main(["run", "--config", str(config_path)]) == 0
        record_path = tmp_path / "out" / "records" / "run_seed0.csv"
        lines = record_path.read_text().splitlines()
        # lines[0] is the json header, lines[1] the column names
        truncated = lines[:5] + [lines[5].rsplit(",", 2)[0]] + lines[6:]

        def with_cell(value, line=3, column=2):  # by default mu_1 of slot 1
            fields = lines[line].split(",")
            fields[column] = value
            return lines[:line] + [",".join(fields)] + lines[line + 1:]

        broken_header = ["# pdomd-run v1 {broken"] + lines[1:]

        def with_param(field, value):
            header = json.loads(lines[0].removeprefix("# pdomd-run v1 "))
            header["params"][field] = value
            return ["# pdomd-run v1 " + json.dumps(header)] + lines[1:]

        def with_header(field, value):
            header = json.loads(lines[0].removeprefix("# pdomd-run v1 "))
            header[field] = value
            return ["# pdomd-run v1 " + json.dumps(header)] + lines[1:]

        def with_column_row(old, new):  # the cells stay as they are
            return [lines[0], lines[1].replace(old, new)] + lines[2:]

        # the only inequality column, dropped from every row: the record reads
        # as consistent, but with no inequalities where the problem has one
        g_index = lines[1].split(",").index("g_0")
        without_g = lines[:1] + [
            ",".join(cell for k, cell in enumerate(line.split(",")) if k != g_index)
            for line in lines[1:]
        ]
        no_column_row = lines[:1]
        json_without_columns = [lines[0].removeprefix("# pdomd-run v1 ")]
        deep = "[" * 200_000 + "]" * 200_000
        deep_json = ['{"columns": ' + deep + "}"]
        deep_header = ["# pdomd-run v1 " + deep] + lines[1:]
        # a data line's faults, in the order they are checked: its column
        # count, then its slot cell, then its cells; of faults on several
        # lines the first line is named, by its number in the file
        slot_first = with_cell("9", column=0)
        slot_first[6] = with_cell("x", line=6)[6]
        cell_then_truncated = with_cell("abc")[:5] + truncated[5:]
        two_cells = with_cell("abc", line=7)
        two_cells[3] = with_cell("x")[3]
        blank_then_fault = lines[:5] + [""] + with_cell("abc", line=7)[5:]
        blank_then_slot = lines[:5] + [""] + with_cell("3", line=6, column=0)[5:]
        cases = [
            (slot_first, "run_seed0.csv:4: slot cell '9', expected 1"),
            (cell_then_truncated, "run_seed0.csv:4: non-numeric cell"),
            (two_cells, "run_seed0.csv:4: non-numeric cell"),
            (blank_then_fault, "run_seed0.csv:9: non-numeric cell"),
            (blank_then_slot, "run_seed0.csv:8: slot cell '3', expected 4"),
            (with_cell('"0.25"'), "run_seed0.csv:4: non-numeric cell"),
            (with_cell("1_0"), "run_seed0.csv:4: non-numeric cell"),
            (with_cell('"1"', column=0), """run_seed0.csv:4: slot cell '"1"', expected 1"""),
            (truncated, "run_seed0.csv:6:"),
            (with_cell("abc"), "run_seed0.csv:4:"),
            (with_cell("nan"), "run_seed0.csv: non-finite decisions[1] at slot 1"),
            (with_cell("inf"), "run_seed0.csv: non-finite decisions[1] at slot 1"),
            (with_cell("abc", column=0), "run_seed0.csv:4: slot cell 'abc', expected 1"),
            (with_cell("77", line=4, column=0), "run_seed0.csv:5: slot cell '77', expected 2"),
            (broken_header, "run_seed0.csv"),
            (with_param("prox_weight", float("nan")), "run_seed0.csv: bad params header: prox_weight"),
            (with_param("prox_weight", -1.0), "run_seed0.csv: bad params header: prox_weight"),
            (with_header("seed", -1), "run_seed0.csv: bad seed header"),
            (with_header("seed", 2.5), "run_seed0.csv: bad seed header"),
            (with_header("geometry", "euclidean"), "run_seed0.csv: bad geometry header"),
            (with_header("variant", "bogus"), "run_seed0.csv: unknown variant 'bogus'"),
            (with_column_row("g_0", "gx"), "run_seed0.csv: column row does not match"),
            (with_column_row("q_norm,h_norm", "h_norm,q_norm"), "column row does not match"),
            (without_g, "record shape (d, L, M) = (4, 0, 1) is not the problem's (4, 1, 1)"),
            (no_column_row, "run_seed0.csv"),
            (json_without_columns, "run_seed0.csv"),
            (deep_json, "run_seed0.csv: malformed record (RecursionError"),
            (deep_header, "run_seed0.csv: malformed record (RecursionError"),
            (None, "missing.csv"),
        ]
        for rows, named in cases:
            path = record_path
            if rows is None:
                path = record_path.with_name("missing.csv")
            else:
                record_path.write_text("\n".join(rows) + "\n")
            code = main(["audit", "--config", str(config_path), "--record", str(path)])
            assert code == 3
            assert named in capsys.readouterr().err
        # "\r\n" and "\n" line ends and blank lines read alike, clean or not
        for ends in ("\r\n", "\n"):
            for rows, named in (
                (lines, None),
                (lines[:4] + [""] + lines[4:] + [""], None),
                (with_cell("abc", line=5), "run_seed0.csv:6: non-numeric cell"),
            ):
                record_path.write_bytes((ends.join(rows) + ends).encode())
                code = main(["audit", "--config", str(config_path), "--record", str(record_path)])
                err = capsys.readouterr().err
                if named is None:
                    assert code == 0, err
                else:
                    assert code == 3 and named in err

    def test_audit_draws_each_slot_once(self, tmp_path, monkeypatch):
        # the audit draws a one-lane walk's blocks: ceil(T / SEED_BLOCK) calls
        horizon = 2 * SEED_BLOCK + 60
        config_path = write_config(
            tmp_path / "c.json", T=horizon, seeds=[0], out_dir=str(tmp_path / "out")
        )
        assert main(["run", "--config", str(config_path)]) == 0
        blocks = []
        draws = count_draws(monkeypatch, blocks)
        record_path = tmp_path / "out" / "records" / "run_seed0.csv"
        assert main(["audit", "--config", str(config_path), "--record", str(record_path)]) == 0
        assert draws == {t: 1 for t in range(horizon)}
        assert blocks == [(0, SEED_BLOCK), (SEED_BLOCK, 2 * SEED_BLOCK), (2 * SEED_BLOCK, horizon)]

    def test_unknown_audit_flag_is_exit_2(self, capsys):
        # the audit checks every slot at its worst comparator: it takes no
        # sample count and no seed
        for flag in ("--samples", "--audit-seed"):
            argv = ["audit", "--config", "c.json", "--record", "r.csv", flag, "20"]
            with pytest.raises(SystemExit) as exit_info:
                main(argv)
            assert exit_info.value.code == 2
            assert f"unrecognized arguments: {flag} 20" in capsys.readouterr().err

    def test_audit_line_matches_the_bench_pattern(self, tmp_path, capsys):
        # bench/run.py reads each audit's residual with this pattern; an
        # audit line it cannot read counts as a failed operation there
        tree = ast.parse((REPO / "bench" / "run.py").read_text())
        pattern = next(
            node.value.args[0].value for node in ast.walk(tree)
            if isinstance(node, ast.Assign) and [t.id for t in node.targets] == ["RESIDUAL"]
        )
        config_path = write_config(
            tmp_path / "c.json", T=70, seeds=[0], synthetic={"d": 4, "n_ineq": 1, "n_eq": 1},
            out_dir=str(tmp_path / "out"),
        )
        assert main(["run", "--config", str(config_path)]) == 0
        capsys.readouterr()
        record_path = tmp_path / "out" / "records" / "run_seed0.csv"
        assert main(["audit", "--config", str(config_path), "--record", str(record_path)]) == 0
        found = re.search(pattern, capsys.readouterr().out)
        assert found is not None and float(found.group(1)) <= cli.AUDIT_TOL
        assert "over 69 samples" in found.group(0)  # one worst comparator per slot 1..T-1

    def test_negative_seed_flags_are_exit_2(self, tmp_path, capsys):
        argv = ["gen-trace", "--out", str(tmp_path / "t.csv"), "--seed", "-1"]
        assert main(argv) == 2
        err = capsys.readouterr().err
        assert "--seed" in err and err.count("\n") == 1
        assert not (tmp_path / "t.csv").exists()

    def test_unwritable_output_is_exit_3(self, tmp_path, capsys):
        blocker = tmp_path / "file"
        blocker.write_text("not a directory\n")
        config_path = write_config(
            tmp_path / "c.json", T=20, seeds=[0], synthetic={"d": 4, "n_ineq": 1, "n_eq": 1}
        )
        for argv in (
            ["run", "--config", str(config_path), "--out", str(blocker / "out")],
            ["gen-trace", "--out", str(blocker / "trace.csv"), "--slots", "5"],
        ):
            assert main(argv) == 3
            err = capsys.readouterr().err
            assert err.startswith("error:") and err.count("\n") == 1

    def test_unallocatable_sizes_are_exit_3(self, tmp_path):
        def cap_address_space():  # the allocation fails at once, never grows
            resource.setrlimit(resource.RLIMIT_AS, (1 << 30, 1 << 30))

        config_path = write_config(
            tmp_path / "c.json", T=20, seeds=[0], synthetic={"d": 10**11},
            out_dir=str(tmp_path / "out"),
        )
        paths = [str(REPO / "src"), os.environ.get("PYTHONPATH")]
        env = dict(os.environ, PYTHONPATH=os.pathsep.join(filter(None, paths)))
        env.update(OPENBLAS_NUM_THREADS="1", OMP_NUM_THREADS="1", MKL_NUM_THREADS="1")
        for argv in (
            ["run", "--config", str(config_path)],  # 745 GiB for d = 10**11
            ["gen-trace", "--out", str(tmp_path / "t.csv"), "--slots", str(10**12)],
        ):
            proc = subprocess.run(
                [sys.executable, "-m", "pdomd", *argv], capture_output=True, text=True,
                env=env, preexec_fn=cap_address_space, timeout=120,
            )
            assert proc.returncode == 3, proc.stderr
            assert proc.stderr.startswith("error: out of memory: Unable to allocate")
            assert proc.stderr.count("\n") == 1  # no traceback
        assert not (tmp_path / "out").exists() and not (tmp_path / "t.csv").exists()

    def test_seed_override_applies(self, tmp_path):
        config_path = write_config(
            tmp_path / "c.json",
            scenario="synthetic",
            T=30,
            seeds=[0, 1, 2],
            synthetic={"d": 4, "n_ineq": 1, "n_eq": 1},
            out_dir=str(tmp_path / "out"),
        )
        assert (
            main(["run", "--config", str(config_path), "--seeds", "5..6"]) == 0
        )
        records = sorted(p.name for p in (tmp_path / "out" / "records").iterdir())
        assert records == ["run_seed5.csv", "run_seed6.csv"]
