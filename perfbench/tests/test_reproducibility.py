"""Reproducibility self-test of the benchmark.

Runs every workload traced, twice on one seed and once on another, with the
shortest measuring time (one untraced and one traced job each), and checks
that a seed fixes every count and every output bit, that another seed
changes the inputs, and that every metric name is well formed.  Takes about
two minutes on two cores:

    python3 -m pytest perfbench/tests -q
"""

import json
import pathlib
import re
import subprocess
import sys

import pytest

HERE = pathlib.Path(__file__).resolve().parent
RUN = HERE.parent / "run.py"
SPEC = json.loads((HERE.parents[1] / "BENCHMARK.json").read_text())
WORKLOADS = [w["name"] for w in SPEC["workloads"]]
NAME = re.compile(r"[A-Za-z0-9_.-]+")
COUNTS = ("calibrate.evals", "charfn.heston_cf.calls", "charfn.heston_cf.nodes",
          "fourier.carr_madan_cv.calls", "model.factorize_vols.calls",
          "montecarlo.path_steps", "trace.spans_per_job")


def run(workload: str, seed: int, trace: int) -> dict:
    proc = subprocess.run(
        [sys.executable, str(RUN), "--workload", workload, "--seed", str(seed),
         "--seconds", "1", "--trace", str(trace)],
        capture_output=True, text=True, timeout=175, check=True)
    lines = proc.stdout.strip().splitlines()
    header = next(line for line in lines if line.startswith(f"# {workload} "))
    fields = dict(tok.split("=", 1) for tok in header.split()[2:])
    return {"result": json.loads(lines[-1]), "inputs": fields["inputs"],
            "outputs": fields["outputs"]}


@pytest.fixture(scope="module", params=WORKLOADS)
def runs(request):
    name = request.param
    return name, [run(name, seed, 1) for seed in (7, 7, 8)]


def test_same_seed_same_counts_and_outputs(runs):
    name, (first, again, _) = runs
    for key in COUNTS:
        assert (first["result"]["metrics"][key]["value"]
                == again["result"]["metrics"][key]["value"]), (name, key)
    assert first["outputs"] == again["outputs"]
    assert first["inputs"] == again["inputs"]
    assert first["result"]["correct"] and first["result"]["failed"] == 0


def test_other_seed_other_inputs(runs):
    name, (first, _, other) = runs
    assert first["inputs"] != other["inputs"], name


def test_metric_names(runs):
    name, (first, _, _) = runs
    declared = [m["name"] for m in SPEC["per_layer"]]
    assert list(first["result"]["metrics"]) == declared
    untraced = run(name, 7, 0)["result"]["metrics"]
    assert list(untraced) == [m["name"] for m in SPEC["end_to_end"]]
    for metric in (*declared, *untraced, *WORKLOADS):
        assert NAME.fullmatch(metric) and len(metric) <= 64, metric
