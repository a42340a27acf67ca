"""The benchmark in ``perfbench/`` calls the library by name: its traced runs
wrap the functions listed in ``spans.LAYERS``, and its workloads build
trajectories and call the library directly. These tests read ``perfbench/``
and change nothing in it, so that a deleted or re-signed name fails here
rather than only in a benchmark run."""

import importlib
import json
import os

import pytest

from dispersive_lab.counting import BudgetExceededError

PERFBENCH = os.path.join(os.path.dirname(os.path.dirname(os.path.abspath(__file__))),
                         "perfbench")


@pytest.fixture
def perfbench(monkeypatch):
    monkeypatch.syspath_prepend(PERFBENCH)
    return importlib.import_module("spans"), importlib.import_module("workloads")


def test_every_traced_layer_resolves(perfbench):
    spans, _ = perfbench
    for layer, module, path, _units in spans.LAYERS:
        owner = importlib.import_module(f"{spans.PACKAGE}.{module}")
        *cls_path, attr = path.split(".")
        for part in cls_path:
            owner = getattr(owner, part)
        assert callable(owner.__dict__.get(attr)), f"{layer}: {module}.{path} is gone"


def _check_tiny_workload(workloads, name, out):
    with open(os.path.join(PERFBENCH, "references.json")) as fh:
        references = json.load(fh)
    workload = workloads.build(name, "tiny", 7, references, str(out))
    assert workload.ops
    for op in workload.ops:
        op.check(op.call())


def test_tiny_dispersive_workload_passes_its_checks(perfbench, tmp_path):
    _check_tiny_workload(perfbench[1], "dispersive", tmp_path)


def test_tiny_counting_workload_passes_its_checks(perfbench, tmp_path):
    # every exact count against references.json: a slip in the mirrored builds fails here
    _, workloads = perfbench
    with open(os.path.join(PERFBENCH, "references.json")) as fh:
        references = json.load(fh)
    workload = workloads.build("counting", "tiny", 7, references, str(tmp_path))
    refused = []
    for op in workload.ops:
        try:
            result = op.call()
        except BudgetExceededError:
            refused.append(op.name)
            continue
        op.check(result)
    assert refused == ["count_S d5 b4 N16"]


@pytest.mark.parametrize("name", ["levelset", "circle"])
def test_tiny_workload_passes_its_checks(perfbench, tmp_path, name):
    # level-set profiles and dlab levelset; K_1 arc samples, Phi_hat and dlab kernel
    _check_tiny_workload(perfbench[1], name, tmp_path)
