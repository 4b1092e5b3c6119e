"""Ablation: hypercube shrink factor vs iterations and query cost.

Algorithm 1 halves the edge each failed round (shrink = 0.5).  A more
aggressive factor reaches a clean hypercube in fewer rounds but overshoots
to needlessly small cubes (risking the float64 noise floor); a lazier
factor spends more rounds.  This bench sweeps the factor on the PLNN and
reports iterations, queries, the final edge and the decision features'
worst distance to the white-box ground truth.

Also sweeps the initial edge, validating the paper's remark that its value
"has little influence" thanks to the adaptation — at the paper's 1.0, and
at the start edge :class:`~repro.core.batch.BatchOpenAPIInterpreter`
calibrates by default, where most solves certify in their first round.
"""

import numpy as np

from repro.api import PredictionAPI
from repro.core import BatchOpenAPIInterpreter, OpenAPIInterpreter
from repro.eval.reporting import render_table
from repro.models.openbox import ground_truth_decision_features

#: Ground-truth tolerance on decision features.
GROUND_TRUTH_TOL = 1e-6


def test_ablation_shrink_factor(benchmark, setups, config, record_result):
    setup = next(
        s for s in setups
        if s.model_name == "plnn" and s.dataset_name == "synthetic-digits"
    )
    rng = np.random.default_rng(0)
    idx = rng.choice(setup.test.n_samples, size=8, replace=False)
    instances = setup.test.X[idx]
    classes = setup.model.predict(instances)
    calibrated = BatchOpenAPIInterpreter(seed=3).start_edge(
        PredictionAPI(setup.model)
    )

    def measure(label, interpreter):
        api = PredictionAPI(setup.model)
        iters, edges, errors = [], [], []
        for x0, c in zip(instances, classes):
            interp = interpreter.interpret(api, x0, int(c))
            iters.append(interp.iterations)
            edges.append(interp.final_edge)
            truth = ground_truth_decision_features(setup.model, x0, int(c))
            errors.append(np.abs(interp.decision_features - truth).max())
        return [
            label, float(np.mean(iters)), int(np.max(iters)),
            float(np.median(edges)), api.query_count / len(instances),
            float(np.max(errors)),
        ]

    def run():
        rows = [
            measure(f"shrink={shrink}", OpenAPIInterpreter(seed=3, shrink=shrink))
            for shrink in (0.5, 0.25, 0.1)
        ]
        rows += [
            measure(f"initial={initial:.3g}",
                    OpenAPIInterpreter(seed=3, initial_edge=initial))
            for initial in (10.0, 1.0, 0.01)
        ]
        rows.append(measure(
            f"initial=calibrated ({calibrated:.3g})",
            OpenAPIInterpreter(seed=3, initial_edge=calibrated),
        ))
        return rows

    rows = benchmark.pedantic(run, rounds=1, iterations=1)
    text = render_table(
        ["setting", "mean iters", "max iters", "median final edge",
         "queries/instance", "max |D - truth|"],
        rows,
    )
    text += (
        "\n\nshape: aggressive shrinking trades iterations for overshoot;"
        "\nthe initial edge barely matters to exactness (the paper's"
        "\nobservation) — adaptation absorbs a 1000x initial-edge difference"
        "\nin a few extra halvings — but it sets the query cost: from the"
        "\ncalibrated start most solves certify in their first round."
    )
    record_result("ablation_shrink", text)

    by_name = {r[0]: r for r in rows}
    assert by_name["shrink=0.1"][1] <= by_name["shrink=0.5"][1], (
        "aggressive shrink should not need more iterations"
    )
    # Paper: iterations always < 20 in practice.
    for row in rows:
        assert row[2] < 20, f"{row[0]}: exceeded 20 iterations"
        assert row[5] <= GROUND_TRUTH_TOL, f"{row[0]}: answer off the truth"
    calibrated_row = rows[-1]
    assert calibrated_row[4] <= by_name["initial=1"][4], (
        "the calibrated start should not cost more queries than 1.0"
    )
