"""Ablation: API queries consumed per interpretation, per method.

Cloud APIs bill per query, so the practical cost of each method is its
query footprint.  Analytically:

* naive: ``d + 1`` queries;
* ZOO: ``2d`` queries;
* LIME: ``n_samples + 1`` (default ``2(d+1) + 1``);
* OpenAPI: ``1 + T (d+1)`` — the only method whose cost varies, because
  ``T`` is the number of shrink iterations until the certificate passes.

This bench measures the empirical distribution of OpenAPI's ``T`` on both
model families (the paper reports T < 20 always, typically much less) and
cross-checks the formulas.

It also keeps the paper's own sampling design measured.  The interpreters
query a randomly rotated regular simplex each round
(:func:`repro.core.sampling.simplex_directions`); the hypercube arm runs
Algorithm 1 on the paper's uniform hypercube draw, built here from
:func:`~repro.core.sampling.sample_hypercube` and
:func:`~repro.core.rounds.run_solve_round`.  Run standalone, the bench
compares the two designs at scale on the fleet's credit-scoring model:
queries and rounds per solve, plus decision features off the white-box
ground truth::

    PYTHONPATH=src python benchmarks/bench_ablation_query_cost.py
    PYTHONPATH=src python benchmarks/bench_ablation_query_cost.py \\
        --instances 8000 --seeds 90210 90211 90212
"""

from __future__ import annotations

import argparse

import numpy as np

from repro.api import PredictionAPI
from repro.baselines import LogOddsLIME, ZOOInterpreter
from repro.core import NaiveInterpreter, OpenAPIInterpreter
from repro.core.batch import BatchOpenAPIInterpreter
from repro.core.rounds import build_interpretation, run_solve_round
from repro.core.sampling import instance_generator, sample_hypercube
from repro.eval.reporting import render_table

#: Ground-truth tolerance on decision features (perfbench's).
GROUND_TRUTH_TOL = 1e-6


def hypercube_interpret(api, x0, c, rng, *, max_iterations=100,
                        initial_edge=1.0, shrink=0.5):
    """Algorithm 1 on the paper's design: each round draws ``d + 1``
    uniform samples from the hypercube ``|p_i - x0_i| <= edge``.

    Same defaults, engine and certificate as the interpreters (``c``
    ``None`` interprets the predicted class); returns the
    :class:`~repro.core.types.Interpretation`, or ``None`` when
    ``max_iterations`` rounds all fail.
    """
    d = x0.shape[0]
    y0 = api.predict_proba(x0)
    if c is None:
        c = int(np.argmax(y0))
    edge = initial_edge
    for iteration in range(1, max_iterations + 1):
        samples = sample_hypercube(x0, edge, d + 1, rng)
        points = np.vstack([x0[None, :], samples])
        probs = np.vstack([y0[None, :], api.predict_proba(samples)])
        round_ = run_solve_round(points, probs, samples, c, center=x0)
        if round_.certified:
            return build_interpretation(
                round_, method="openapi-hypercube", iterations=iteration,
                final_edge=edge, n_queries=1 + iteration * (d + 1),
            )
        edge *= shrink
    return None


def test_ablation_query_cost(benchmark, setups, config, record_result):
    def run():
        rows = []
        for setup in setups:
            d = setup.api.n_features
            rng = np.random.default_rng(0)
            idx = rng.choice(setup.test.n_samples, size=8, replace=False)
            instances = setup.test.X[idx]
            classes = setup.model.predict(instances)

            # Fresh metered APIs so counts are exact per method.
            methods = {
                "OpenAPI": OpenAPIInterpreter(seed=0),
                "naive(1e-4)": NaiveInterpreter(1e-4, seed=0),
            }
            for name, interpreter in methods.items():
                api = PredictionAPI(setup.model)
                iterations = []
                for x0, c in zip(instances, classes):
                    interp = interpreter.interpret(api, x0, int(c))
                    iterations.append(interp.iterations)
                rows.append([
                    setup.label, name,
                    api.query_count / len(instances),
                    float(np.mean(iterations)),
                    int(np.max(iterations)),
                ])

            api = PredictionAPI(setup.model)
            cube_rng = np.random.default_rng(0)
            iterations = []
            for x0, c in zip(instances, classes):
                interp = hypercube_interpret(api, x0, int(c), cube_rng)
                assert interp is not None
                iterations.append(interp.iterations)
            rows.append([setup.label, "OpenAPI-hypercube",
                         api.query_count / len(instances),
                         float(np.mean(iterations)),
                         int(np.max(iterations))])

            api = PredictionAPI(setup.model)
            zoo = ZOOInterpreter(api, h=1e-4, seed=0)
            for x0, c in zip(instances, classes):
                zoo.explain(x0, int(c))
            rows.append([setup.label, "ZOO(1e-4)",
                         api.query_count / len(instances), 1.0, 1])

            api = PredictionAPI(setup.model)
            lime = LogOddsLIME(api, h=1e-4, seed=0)
            for x0, c in zip(instances, classes):
                lime.explain(x0, int(c))
            rows.append([setup.label, "LIME-lin(1e-4)",
                         api.query_count / len(instances), 1.0, 1])
        return rows

    rows = benchmark.pedantic(run, rounds=1, iterations=1)
    text = render_table(
        ["setup", "method", "queries/instance", "mean iters", "max iters"],
        rows,
    )
    text += (
        "\n\nanalytic costs (d features): naive d+1, ZOO 2d, LIME 2(d+1)+1,"
        "\nOpenAPI 1 + T(d+1) with T the adaptive iteration count — the"
        "\nprice of the exactness certificate is a small multiple of d."
        "\nOpenAPI samples a rotated simplex; OpenAPI-hypercube is the"
        "\npaper's uniform hypercube draw."
    )
    record_result("ablation_query_cost", text)

    # Formula cross-checks (+1 for the class-inference query where used).
    for setup_label, name, queries, _, max_iters in rows:
        d = next(s.api.n_features for s in setups if s.label == setup_label)
        if name.startswith("ZOO"):
            assert queries == 2 * d
        elif name.startswith("naive"):
            assert queries == d + 1
        elif name.startswith("LIME"):
            assert queries == 2 * (d + 1) + 1
        else:  # OpenAPI, either design
            assert queries <= 1 + max_iters * (d + 1)


def compare_designs(model, X: np.ndarray, *, seed: int = 0) -> dict:
    """Both designs over the rows of ``X``, per-instance seeded.

    Returns per-design ``{"queries", "rounds", "failed", "errors",
    "worst_error"}``: mean queries and rounds per certified solve, solves
    that never certified, and certified decision features more than
    :data:`GROUND_TRUTH_TOL` off the ground truth (count and worst).
    """
    from repro.models.openbox import ground_truth_decision_features

    simplex = BatchOpenAPIInterpreter(seed=seed, per_instance_seed=True)
    api = PredictionAPI(model)
    solved = {"simplex": [], "hypercube": []}
    for lo in range(0, len(X), 256):
        solved["simplex"] += simplex.interpret_batch(
            api, X[lo:lo + 256]).interpretations
    for x0 in X:
        solved["hypercube"].append(hypercube_interpret(
            api, x0, None, instance_generator(seed, x0)))
    out = {}
    for design, interps in solved.items():
        done = [(x, it) for x, it in zip(X, interps) if it is not None]
        errors = np.asarray([
            np.abs(it.decision_features - ground_truth_decision_features(
                model, x, it.target_class)).max()
            for x, it in done
        ])
        out[design] = {
            "queries": float(np.mean([it.n_queries for _, it in done])),
            "rounds": float(np.mean([it.iterations for _, it in done])),
            "failed": len(X) - len(done),
            "errors": int(np.count_nonzero(errors > GROUND_TRUTH_TOL)),
            "worst_error": float(errors.max(initial=0.0)),
        }
    return out


def main(argv: list[str] | None = None) -> int:
    from repro.data import load_dataset
    from repro.serving.worker import train_worker_model

    parser = argparse.ArgumentParser(
        description="queries, rounds and ground-truth errors per solve: "
        "rotated-simplex design vs the paper's uniform hypercube"
    )
    parser.add_argument("--dataset", default="credit-scoring")
    parser.add_argument("--instances", type=int, default=2000)
    parser.add_argument(
        "--seeds", type=int, nargs="+", default=[90210],
        help="dataset seeds; each draws a fresh set of instances",
    )
    args = parser.parse_args(argv)

    model = train_worker_model(args.dataset, 0)[2]
    rows = []
    for data_seed in args.seeds:
        X = load_dataset(args.dataset, args.instances, seed=data_seed).X
        for design, m in compare_designs(model, X).items():
            rows.append([data_seed, design, m["queries"], m["rounds"],
                         m["failed"], m["errors"], m["worst_error"]])
    print(render_table(
        ["draw seed", "design", "queries/solve", "rounds/solve", "failed",
         f"errors > {GROUND_TRUTH_TOL:g}", "worst error"],
        rows,
    ))
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
