"""Spec-built engines are the same object graph as hand-built ones.

For every registered engine: run the exemplar spec through ``run_spec``
and through direct construction with the same seed — the result
fingerprints must be identical.  This is the load-bearing property of
the spec layer: a JSON document reproduces the exact run.
"""

import pytest

from repro.parallel.base import ENGINE_REGISTRY, RunReport, engine_names
from repro.spec import (
    EngineSpec,
    RunSpec,
    UnknownComponentError,
    build_run,
    build_value,
    ga_config,
    problem,
    run_spec,
)
from repro.verify.digest import result_fingerprint

ENGINE_NAMES = engine_names()


def _exemplar(name):
    return ENGINE_REGISTRY[name].exemplar_spec(seed=11)


def test_every_engine_builds_through_the_generic_path():
    for name in ENGINE_NAMES:
        assert type(build_run(_exemplar(name))) is ENGINE_REGISTRY[name].cls


def test_total_population_selects_the_partitioned_constructor():
    spec = RunSpec(
        EngineSpec(
            "island",
            {"problem": problem("onemax", length=16), "n_islands": 3,
             "total_population": 31, "config": ga_config(elitism=1)},
        ),
        seed=4,
    )
    model = build_run(spec)
    assert [d.config.population_size for d in model.demes] == [10, 10, 10]
    with pytest.raises(TypeError, match="total_population"):
        build_run(RunSpec(EngineSpec("pool", {"problem": problem("onemax"),
                                              "total_population": 8})))


def test_unknown_engine_name_suggests_a_registered_one():
    with pytest.raises(UnknownComponentError, match="did you mean 'island'"):
        build_run(RunSpec(EngineSpec("iland", {"problem": problem("onemax")})))


@pytest.mark.parametrize("name", ENGINE_NAMES)
def test_spec_run_matches_direct_construction(name):
    spec = _exemplar(name)
    spec_result = run_spec(spec)

    params = {k: build_value(v) for k, v in spec.engine.params.items()}
    engine = ENGINE_REGISTRY[name].cls(seed=spec.seed, **params)
    run_kwargs = {k: build_value(v) for k, v in spec.run.items()}
    direct_result = engine.run(**run_kwargs)
    if isinstance(direct_result, RunReport):
        # run_spec stamps provenance the direct path doesn't have
        direct_result.extras["spec_digest"] = spec.digest()
    assert result_fingerprint(spec_result) == result_fingerprint(direct_result)


@pytest.mark.parametrize("name", ENGINE_NAMES)
def test_same_spec_same_fingerprint(name):
    spec = _exemplar(name)
    a = result_fingerprint(run_spec(spec))
    b = result_fingerprint(run_spec(RunSpec.from_json(spec.to_json())))
    assert a == b


def test_run_spec_stamps_spec_digest():
    spec = _exemplar("island")
    report = run_spec(spec)
    assert report.extras["spec_digest"] == spec.digest()


def test_build_run_returns_an_unrun_engine():
    spec = _exemplar("island")
    model = build_run(spec)
    # engine-mode trials drive it themselves; nothing has run yet
    assert model.total_evaluations() == 0
