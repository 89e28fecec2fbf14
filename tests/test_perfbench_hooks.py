"""The benchmark tracer still finds every function it wraps.

perfbench/tracing.py wraps public functions by name and counts the uplink
from aggregate's first argument. A renamed function or a changed argument
would otherwise only show in a traced benchmark run. The tracer module is
loaded from its file and used as it is.
"""
import importlib.util
import pathlib

import numpy as np

import fediot.aggregation as aggregation
import fediot.cli  # noqa: F401  (imports every layer the tracer wraps)
from fediot.neuralnet import ModelParameters, classifier_preset

TRACING = pathlib.Path(__file__).resolve().parents[1] / "perfbench" / "tracing.py"


def load_tracing():
    spec = importlib.util.spec_from_file_location("perfbench_tracing", TRACING)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


def test_tracer_wraps_every_hook_and_counts_the_uplink():
    tracer = load_tracing().Tracer()
    k, arch = 8, classifier_preset("A", input_dim=12)
    rng = np.random.default_rng(0)
    models = [ModelParameters(arch, row) for row in rng.normal(size=(k, arch.n_parameters))]
    spec = aggregation.AggregationSpec("tm", trim_c=2, resample_s=2)
    tracer.install()
    try:
        aggregation.aggregate(models, spec, rng)
    finally:
        tracer.uninstall()
    assert tracer.missing == []
    assert tracer.counts["aggregation.uplink_models"] == k
    assert tracer.counts["aggregation.uplink_bytes"] == k * arch.n_parameters * 8
    called = {tracer.names[name_id] for name_id, *_ in tracer.spans}
    assert called == {"aggregation.aggregate", "aggregation.s_resample", "aggregation.trimmed_mean"}
