"""pcfmem: memory-policy learning for photonic-crystal-fiber design.

A PPO-trained controller picks memory-editing skills span by span over
design traces; a rule-based executor applies them to a per-trace memory
bank; an outer loop evolves the skill bank from clustered failures under
validation-gated acceptance. Everything is grounded in a deterministic
analytic fiber model with exact simulation-call accounting.
"""

__version__ = "0.1.0"

__all__ = [
    "baselines",
    "cli",
    "datagen",
    "designer",
    "embed",
    "evalsuite",
    "executor",
    "memory",
    "physics",
    "policy",
    "rollout",
    "skills",
    "trainer",
]
