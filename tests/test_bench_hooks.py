"""The benchmark imports package names and patches package functions.

`perfbench/tracing.py` lists the patched functions as (module, qualified
name) pairs and patches each one when `--trace 1` is on; the benchmark's
other modules import names from the package. A rename or deletion in
`src/` that breaks either would only show as a failing benchmark run, so
these tests resolve every target the way the tracer does and import
every benchmark module the way its worker process does.
"""

import importlib
import importlib.util
import os
import sys
from pathlib import Path
from unittest import mock

import numpy as np
import pytest

from audiotext.corpus import CaptionRecord
from audiotext.nnet import AudioTower, TextEmbedder, init_params
from helpers import random_word_table, small_config

BENCH = Path(__file__).resolve().parents[1] / "perfbench"
TRACING = BENCH / "tracing.py"


def _tracing_module():
    spec = importlib.util.spec_from_file_location("perfbench_tracing", TRACING)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


_TRACING = _tracing_module()


@pytest.mark.parametrize("module_name,qualname",
                         _TRACING.LAYER_TARGETS + _TRACING.ENTRY_TARGETS)
def test_trace_target_resolves(module_name, qualname):
    module = importlib.import_module(module_name)
    if "." in qualname:
        cls_name, meth = qualname.split(".")
        cls = getattr(module, cls_name)
        assert callable(cls.__dict__[meth])  # the tracer patches the class's own attribute
    else:
        assert callable(getattr(module, qualname))


@pytest.mark.parametrize("name", ["workloads", "gen", "checks", "worker"])
def test_benchmark_module_imports(name, tmp_path, monkeypatch):
    monkeypatch.syspath_prepend(str(BENCH))  # the worker imports its siblings by name
    before = set(sys.modules)
    try:
        with mock.patch.dict(os.environ):  # worker.py pins BLAS threads on import
            spec = importlib.util.spec_from_file_location(f"perfbench_{name}", BENCH / f"{name}.py")
            module = importlib.util.module_from_spec(spec)
            sys.modules[spec.name] = module  # dataclasses look their module up here
            spec.loader.exec_module(module)
        if name == "gen":  # the retrieve inputs import the model and checkpoint code lazily
            module.generate("retrieve", 5, "tiny", tmp_path / "retrieve")
    finally:
        for added in set(sys.modules) - before:
            if str(getattr(sys.modules[added], "__file__", "")).startswith(str(BENCH)):
                del sys.modules[added]


def test_tracer_hooks_read_call_arguments():
    # two hooks read arguments, not just names: the clip counter hashes
    # AudioTower.forward's frames and the OOV counter tests each token of
    # TextEmbedder.embed's record against the embedder's word table
    config = small_config()
    params = init_params(config, seed=0)
    embedder = TextEmbedder(config, params,
                            word_table=random_word_table(("dog", "barks"), 6, seed=1))
    tokens = ("dog", "zzz", "barks", "qqq", "dog")
    record = CaptionRecord("a.wav", 1, " ".join(tokens), tokens)
    frames = np.random.default_rng(0).standard_normal((12, 8)).astype(np.float32)
    tracer = _TRACING.Tracer()
    tracer.install()
    try:
        with tracer.command("probe"):
            embedder.embed(record)
            AudioTower(config, params).forward(frames)
    finally:
        tracer.uninstall()
    metrics = tracer.per_layer(0.0)
    assert metrics["nnet.model.TextEmbedder.embed.calls"] == 1
    assert metrics["nnet.model.TextEmbedder.embed.oov_tokens"] == 2
    assert metrics["nnet.model.AudioTower.forward.calls"] == 1
    assert metrics["nnet.model.AudioTower.forward.per_clip"] == 1.0
    assert embedder.oov_tokens == 2  # the embedder's own counter agrees
