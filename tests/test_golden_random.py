"""Golden outputs on seeded random models: the solver's and the
executor's results on each model below must keep their exact values.

Model ``i`` is drawn from ``random.Random(i)``: a ``random_domain`` of 4
to 8 atoms with at most 64 determinizations, and one
``random_determinization`` of it. For each ``k`` in 0, 1 and 2 the record
holds ``ff_lao_star``'s ``v_root`` and ``policy_size`` and the reports of
a 10-round ``monte_carlo_evaluate`` (seed ``i``, 60 actions a round);
``tests/golden_random.json`` keeps one SHA-256 of the records per model.
These are outputs, not work counters.

A change that alters an output on purpose regenerates the file with

    PYTHONPATH=src python tests/test_golden_random.py

and names the reason in CHANGES.md.
"""

from __future__ import annotations

import hashlib
import json
import random
from pathlib import Path

from sspkit.executor import monte_carlo_evaluate
from sspkit.grounding import ground
from sspkit.reduction import make_reduction
from sspkit.solver import DEFAULT_EPSILON, SolverConfig, ff_lao_star, policy_size

from randmodels import determinization_count, random_determinization, random_domain

GOLDEN = Path(__file__).with_name("golden_random.json")
MODELS = 200
MAX_DETERMINIZATIONS = 64


def model_record(seed: int) -> list[dict]:
    """Model ``seed``'s outputs at ``k`` 0, 1 and 2."""
    rng = random.Random(seed)
    while True:
        schema, problem = random_domain(rng, n_atoms=rng.randint(4, 8))
        if determinization_count(schema) <= MAX_DETERMINIZATIONS:
            break
    delta = random_determinization(rng, schema)
    grounded = ground(schema, problem)
    records = []
    for k in (0, 1, 2):
        model = make_reduction(grounded, delta, k)
        tables, report = ff_lao_star(model, SolverConfig())
        stats, reports = monte_carlo_evaluate(
            grounded, delta, k, DEFAULT_EPSILON, 10, seed, max_actions=60)
        records.append({
            "k": k,
            "v_root": report.v_root,
            "policy_size": policy_size(tables, model, model.initial),
            "eval": stats.as_dict(),
            "rounds": [r.as_dict() for r in reports],
        })
    return records


def digests() -> dict[str, str]:
    return {f"model-{seed:03d}": hashlib.sha256(
                json.dumps(model_record(seed), sort_keys=True).encode()
            ).hexdigest()
            for seed in range(MODELS)}


def test_random_models_keep_their_outputs():
    golden = json.loads(GOLDEN.read_text())
    now = digests()
    assert list(golden) == list(now)
    moved = [name for name in golden if golden[name] != now[name]]
    assert not moved, f"{len(moved)} random models moved: {', '.join(moved)}"


if __name__ == "__main__":
    result = digests()
    GOLDEN.write_text(json.dumps(result, indent=1) + "\n")
    print(f"wrote {len(result)} digests to {GOLDEN}")
