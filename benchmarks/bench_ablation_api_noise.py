"""Ablation: what API response degradation does to OpenAPI.

The paper's theory assumes the API reports exact probabilities.  Real
services round for display or add noise as extraction defences.  OpenAPI's
certificate turns both into *detectable* failures: interpretations are
either still exact (degradation below the certificate's noise floor) or
explicitly refused — never silently wrong.

This bench sweeps probability rounding (decimals) and Gaussian response
noise over 60 instances, reporting accurate answers, refusals and,
crucially, the wrong-but-certified ("misleading") count, in two arms:

* ``paper``: :class:`~repro.core.OpenAPIInterpreter` at the paper's start
  edge 1.0;
* ``serving``: :class:`~repro.core.BatchOpenAPIInterpreter` at its
  default, which calibrates its start edge through the degraded API
  itself (a rounding or noisy API pushes the edge up, never down).

Rounding creates *plateaus*: inside a small enough neighbourhood every
rounded response is identical, a perfectly consistent constant system.
The certificate refuses such a pair — a constant log-odds has no signal
to certify, and the answers alone cannot tell an exact dead region from
a quantised live one — so quantisation turns interpretation into
refusal, never into a certified ``D = 0``.  Every certified answer must
be accurate, on every transform and in both arms.
"""

import numpy as np

from repro.api import NoisyResponse, PredictionAPI, RoundedResponse
from repro.core import BatchOpenAPIInterpreter, OpenAPIInterpreter
from repro.eval.reporting import render_table
from repro.exceptions import CertificateError
from repro.metrics import l1_distance
from repro.models.openbox import ground_truth_decision_features

WRONG_THRESHOLD = 1e-3

#: Instances per transform: at 6 the parent certificate's absolute floor
#: hid its misleading answers, at 60 it showed them.
N_INSTANCES = 60


def test_ablation_api_noise(benchmark, setups, config, record_result):
    setup = next(
        s for s in setups
        if s.model_name == "plnn" and s.dataset_name == "synthetic-fashion"
    )
    rng = np.random.default_rng(0)
    idx = rng.choice(setup.test.n_samples, size=N_INSTANCES, replace=False)
    instances = setup.test.X[idx]
    classes = setup.model.predict(instances)
    truths = [
        ground_truth_decision_features(setup.model, x0, int(c))
        for x0, c in zip(instances, classes)
    ]

    transforms = [
        ("exact", None),
        ("round 15 dp", RoundedResponse(15)),
        ("round 9 dp", RoundedResponse(9)),
        ("round 6 dp", RoundedResponse(6)),
        ("round 3 dp", RoundedResponse(3)),
        ("noise 1e-12", NoisyResponse(1e-12, seed=1)),
        ("noise 1e-9", NoisyResponse(1e-9, seed=1)),
        ("noise 1e-4", NoisyResponse(1e-4, seed=1)),
    ]

    def paper_arm(api):
        interpreter = OpenAPIInterpreter(seed=2, max_iterations=25)
        answers = []
        for x0, c in zip(instances, classes):
            try:
                answers.append(interpreter.interpret(api, x0, int(c)))
            except CertificateError:
                answers.append(None)
        return answers, 1.0

    def serving_arm(api):
        interpreter = BatchOpenAPIInterpreter(
            seed=2, max_iterations=25, per_instance_seed=True
        )
        edge = interpreter.start_edge(api)
        answers = interpreter.interpret_batch(
            api, instances, classes
        ).interpretations
        return answers, edge

    def run():
        rows = []
        for name, transform in transforms:
            for arm, solve in (("paper", paper_arm), ("serving", serving_arm)):
                api = PredictionAPI(setup.model, transform=transform)
                answers, edge = solve(api)
                accurate = misleading = refused = 0
                for interp, gt in zip(answers, truths):
                    if interp is None:
                        refused += 1
                    elif l1_distance(gt, interp.decision_features) <= WRONG_THRESHOLD:
                        accurate += 1
                    else:
                        misleading += 1
                rows.append([name, arm, f"{edge:.3g}", accurate, misleading,
                             refused, len(instances)])
        return rows

    rows = benchmark.pedantic(run, rounds=1, iterations=1)
    text = render_table(
        ["API response", "arm", "start edge", "accurate", "misleading",
         "refused", "n"],
        rows,
    )
    text += (
        "\n\nshape: exact responses certify everything accurately; rounding"
        "\nand noise turn interpretations into refusals.  The 'misleading'"
        "\ncolumn — certified and wrong — must be zero throughout, in both"
        "\narms: the paper's start edge and the serving arm's calibrated one."
    )
    record_result("ablation_api_noise", text)

    for name, arm, _, accurate, misleading, refused, n in rows:
        assert misleading == 0, f"{name} ({arm}): certified a misleading answer"
        assert accurate + refused == n
    for name, arm, _, accurate, _, _, n in rows:
        if name == "exact":
            assert accurate == n, f"exact API ({arm}) should always certify"
