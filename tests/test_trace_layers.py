"""The traced benchmark run (perfbench/run.py --trace 1) wraps nzs
functions and methods by name, and a renamed one would silently record
no calls. This installs that tracer, runs one small solve per method and
checks that the per-layer names the benchmark reports still record calls.
It writes no files."""

import importlib
from pathlib import Path

import pytest

import nzs
import nzs.cli  # binds nzs.cli and nzs.serialize, which the tracer wraps

PERFBENCH = Path(__file__).resolve().parents[1] / "perfbench"

LAYERS = ("solvers.solve_apd_bilinear", "solvers.PdhgKernel.step",
          "solvers.SaddleSubproblem.operator", "icl.build_subproblem",
          "icl.check_inexactness")


@pytest.fixture()
def run(monkeypatch):
    monkeypatch.syspath_prepend(str(PERFBENCH))
    module = importlib.import_module("run")
    monkeypatch.setattr(module, "nzs", nzs, raising=False)
    return module


def test_traced_layers_record_calls(run):
    originals = (nzs.solvers.PdhgKernel.__dict__["step"], nzs.icl.solve_icl)
    tracer = run._install_tracer()
    try:
        game = nzs.gen_quadratic_known_ne(n_x=8, n_y=8, mu=0.2, nu=0.2,
                                          delta=0.05, coupling_norm=1.0,
                                          seed=0)
        config = nzs.SolverConfig(epsilon=1e-6)
        nzs.solve_icl(game, 1e-6)
        nzs.solve_ogda(game, config)
        nzs.solve_eg(game, config)
    finally:
        tracer.restore()
    totals = tracer.totals()
    assert {name: totals[name][0] > 0 for name in LAYERS} == \
        {name: True for name in LAYERS}
    for bucket in ("f", "h", "g", "cert"):
        assert tracer.counters[f"games.ledger.{bucket}"] > 0
    assert (nzs.solvers.PdhgKernel.__dict__["step"],
            nzs.icl.solve_icl) == originals


def test_zero_coupling_pass_records_its_steps(run):
    # a delta = 0 fee game under the certificate stop takes ICL's one
    # structured step at eta = inf, whose restarted PDHG must still be seen
    # by the traced solve_apd_bilinear and PdhgKernel.step
    _, meta = nzs.gen_sparse_experiment(40, 30, 200, 3, 1e-4, 1.0)
    M = meta.pop("M")
    tracer = run._install_tracer()
    try:
        rep, _ = nzs.cli.run_method(M, meta, 0.0, "icl", 1e-7)
    finally:
        tracer.restore()
    totals = tracer.totals()
    assert rep.iterations == rep.ledger.g_queries == 1
    assert totals["solvers.solve_apd_bilinear"][0] == 1
    assert totals["solvers.PdhgKernel.step"][0] == rep.ledger.h_queries > 0
    assert (tracer.counters["solvers.solve_apd_bilinear.iterations"]
            == rep.ledger.h_queries)
