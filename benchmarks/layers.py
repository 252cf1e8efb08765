"""Per-layer metrics of a traced run and the workloads each layer serves."""

from __future__ import annotations

#: (metric name, unit), in the order BENCHMARK.json lists them.
LAYER_METRICS = (
    ("learner.loss.calls", "count"),
    ("learner.loss.self_ms", "ms"),
    ("learner.td_targets_batch.self_ms", "ms"),
    ("learner.NeuralFactorizedQ.q_tot_tape.self_ms", "ms"),
    ("numerics.backward.self_ms", "ms"),
    ("numerics.adam_step.self_ms", "ms"),
    ("learner.ReplayBuffer.add.self_ms", "ms"),
    ("learner.ReplayBuffer.take.self_ms", "ms"),
    ("learner.encode_step.self_ms", "ms"),
    ("learner.batch_rows", "count"),
    ("learner.batch.distinct_obs_frac", "ratio"),
    ("games.step.calls", "count"),
    ("games.step.self_ms", "ms"),
    ("learner.greedy_individual.calls", "count"),
    ("learner.greedy_individual.self_ms", "ms"),
    ("numerics.DenseNet.forward.calls", "count"),
    ("numerics.DenseNet.forward.rows", "count"),
    ("numerics.DenseNet.forward.self_ms", "ms"),
    ("evaluation.play_match.calls", "count"),
    ("evaluation.play_match.self_ms", "ms"),
    ("evaluation.round_robin.self_ms", "ms"),
    ("cli.cmd_train.self_ms", "ms"),
    ("cli.cmd_eval.self_ms", "ms"),
    ("numerics.params_document.self_ms", "ms"),
    ("numerics.parse_params_document.self_ms", "ms"),
    ("oracle.solve_superb_q.iterations", "count"),
    ("oracle.solve_superb_q.self_ms", "ms"),
    ("oracle.solve_superb_q.bytes_per_iter", "B"),
    ("oracle.best_response.calls", "count"),
    ("oracle.best_response.iterations", "count"),
    ("oracle.best_response.self_ms", "ms"),
    ("oracle.joint_policies_from_pair.self_ms", "ms"),
    ("oracle.policy_value.calls", "count"),
    ("oracle.policy_value.self_ms", "ms"),
    ("learner.exact_operator_apply.calls", "count"),
    ("learner.exact_operator_apply.self_ms", "ms"),
    ("baselines.selfplay_independent_train.self_ms", "ms"),
    ("trace.overhead_s", "s"),
)

#: Wrapped functions that must see at least one call on each workload: the
#: layers the workload is mapped to in benchmarks/README.md.
COVERAGE = {
    "saddle_train": (
        "learner.loss",
        "learner.td_targets_batch",
        "learner.NeuralFactorizedQ.q_tot_tape",
        "numerics.backward",
        "numerics.adam_step",
        "learner.ReplayBuffer.add",
        "learner.ReplayBuffer.take",
        "learner.encode_step",
        "oracle.best_response",
        "oracle.joint_policies_from_pair",
        "oracle.policy_value",
        "baselines.selfplay_independent_train",
    ),
    "grid_cli": (
        "learner.loss",
        "learner.ReplayBuffer.add",
        "learner.ReplayBuffer.take",
        "learner.encode_step",
        "games.step",
        "learner.greedy_individual",
        "numerics.DenseNet.forward",
        "evaluation.play_match",
        "evaluation.round_robin",
        "cli.cmd_train",
        "cli.cmd_eval",
        "numerics.params_document",
        "numerics.parse_params_document",
    ),
    "oracle_exact": (
        "oracle.solve_superb_q",
        "oracle.best_response",
        "learner.exact_operator_apply",
    ),
}


def _obs_key(record) -> bytes:
    """Everything the networks see for one batch row."""
    parts = [record.state_vec, *record.pro_obs, *record.ant_obs]
    return b"".join(part.tobytes() for part in parts)


def layer_metrics(tracer, overhead_s: float) -> dict:
    """Metric name -> value for every entry of LAYER_METRICS."""
    totals = tracer.totals()

    def calls(name):
        return totals.get(name, (0, 0.0))[0]

    def self_ms(name):
        return totals.get(name, (0, 0.0))[1]

    batches = tracer.observed["learner.loss"]
    rows = sum(len(batch) for batch in batches)
    distinct = sum(len({_obs_key(rec) for rec in batch}) for batch in batches)
    solves = tracer.observed["oracle.solve_superb_q"]
    vi_iterations = sum(iterations for iterations, _ in solves)
    vi_bytes = sum(iterations * nbytes for iterations, nbytes in solves)
    values = {
        "learner.batch_rows": rows,
        "learner.batch.distinct_obs_frac": distinct / rows if rows else 0.0,
        "numerics.DenseNet.forward.rows": sum(tracer.observed["numerics.DenseNet.forward"]),
        "oracle.solve_superb_q.iterations": vi_iterations,
        "oracle.solve_superb_q.bytes_per_iter": vi_bytes / vi_iterations if vi_iterations else 0.0,
        "oracle.best_response.iterations": sum(tracer.observed["oracle.best_response"]),
        "trace.overhead_s": overhead_s,
    }
    for name, _ in LAYER_METRICS:
        if name in values:
            continue
        span, _, field = name.rpartition(".")
        values[name] = calls(span) if field == "calls" else self_ms(span)
    return values
