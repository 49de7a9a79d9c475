"""The benchmark's workloads: one closed-loop ``engine.run`` configuration each.

Every repetition of a workload draws a fresh dataset and loop seed from
``rep_seed(seed, rep)``, so one benchmark run averages over several inputs
while a given ``--seed`` always produces the same inputs.  The loop's work
varies a lot with its inputs (how many positives exploration finds decides
how much is trained), so the workloads are sized for repetitions of 1.5-5 s:
a 40 s run then averages 8-20 of them.  Times below are from a 2-core host.
"""

from __future__ import annotations

from dataclasses import dataclass

COMMON = dict(ablations=(), lr=0.1, dpo_beta=0.1)


@dataclass(frozen=True)
class Workload:
    n_held_in: int
    n_held_out: int
    config: dict


WORKLOADS = {
    # Exploration dominates (~85% of iteration time, ~2 s a repetition): K=8
    # samples plus one refinement each, all at batch 1, and re-scoring them is
    # ~40% of exploration.  Training is small.  Batched exploration and free
    # self-reward show here and barely touch the other two workloads.
    "expr_explore": Workload(
        n_held_in=32, n_held_out=16,
        config=dict(env="expr_math", method="envisions", K=8, N1=5, N2=2,
                    iterations=2, train_mode="scratch", epochs_per_iter=5,
                    warmup_tasks=8)),
    # Training dominates (warmup plus iteration training are ~75% of a ~4.6 s
    # repetition): logic witnesses average ~35 tokens, against ~6 in expr and
    # ~2 in grid, so BPTT is the cost.  The default 150 warmup epochs are
    # what lets exploration find positives here; with N1=2 the surplus fills
    # U2, so the L2 refine-frame loss is trained too.
    "logic_train": Workload(
        n_held_in=24, n_held_out=12,
        config=dict(env="logic_rules", method="envisions", K=5, N1=2, N2=2,
                    iterations=1, train_mode="scratch", epochs_per_iter=15,
                    warmup_tasks=12)),
    # The same policy/autodiff layers used differently: continual SFT then
    # DPO with one batch_nll call per pair side (batch 1) and reference
    # margins from sequence_token_logps.  DPO batching shows only here.  The
    # DPO pair count swings widely with the seed, so one iteration (~1.6 s)
    # lets more repetitions into a run.
    "grid_dpo": Workload(
        n_held_in=30, n_held_out=12,
        config=dict(env="grid_agent", method="sft_dpo", K=5, N1=1, N2=2,
                    iterations=1, train_mode="continual", epochs_per_iter=10,
                    warmup_tasks=10)),
    # Not a benchmark workload: a configuration small enough for the
    # benchmark's own tests that still reaches every layer, DPO included.
    "tiny": Workload(
        n_held_in=6, n_held_out=3,
        config=dict(env="grid_agent", method="sft_dpo", K=3, N1=1, N2=1,
                    iterations=1, train_mode="continual", epochs_per_iter=2,
                    warmup_tasks=3, warmup_epochs=20, d=8, h=12, max_len=12)),
}


def rep_seed(seed: int, rep: int) -> int:
    """Seed of repetition ``rep`` of a run started with ``seed``."""
    return seed * 1000 + rep
