"""Spec replay verification layer."""

import json

from repro.parallel.base import ENGINE_REGISTRY
from repro.verify.specs import check_spec, round_trip_problems


def exemplar_spec(name, *, seed):
    return ENGINE_REGISTRY[name].exemplar_spec(seed)


def test_exemplar_spec_covers_every_engine():
    for name in ENGINE_REGISTRY:
        spec = exemplar_spec(name, seed=0)
        assert spec.engine.name == name
        assert spec.seed == 0
        assert round_trip_problems(spec) == []


def test_check_spec_passes_on_a_healthy_spec():
    outcome = check_spec(exemplar_spec("island", seed=4), runs=2)
    assert outcome.ok, outcome.describe()
    assert len(outcome.digest) == 64
    assert len(outcome.fingerprint) == 64
    assert "ok" in outcome.describe()


def test_check_spec_handles_sequential_engines():
    # sequential engines return EvolutionResult (no report schema to check)
    outcome = check_spec(exemplar_spec("generational", seed=1))
    assert outcome.ok, outcome.describe()


def test_spec_replay_cli_on_a_batch(tmp_path, capsys):
    from repro.verify.__main__ import main

    doc = {
        "schema": "repro-runspec-batch/v1",
        "experiments": {"EX": [exemplar_spec("island", seed=2).to_dict()]},
    }
    path = tmp_path / "batch.json"
    path.write_text(json.dumps(doc))
    assert main(["spec-replay", str(path)]) == 0
    assert "spec-replay: 1/1 ok" in capsys.readouterr().out
