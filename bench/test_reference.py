"""The benchmark's reference evaluator against the test suite's brute-force oracle.

    python3 -m pytest bench/test_reference.py

The oracle in `tests/oracles.py` finds fixpoints by enumerating node sets,
so agreement on every sentence here is evidence that the reference, which
iterates, computes the semantics the benchmark checks the engines against.
"""

import random
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
for _path in (ROOT / "src", ROOT / "tests", ROOT / "bench"):
    sys.path.insert(0, str(_path))

import inputs  # noqa: E402
import reference  # noqa: E402
from mugnn import graph_from_json, parse  # noqa: E402
from oracles import naive_evaluate  # noqa: E402


def small_set():
    """Seeded sentences, with the workloads' two fixed ones, on graphs of 1 to 5 nodes."""
    rng = random.Random("reference-check")
    sentences = [inputs.REACH, inputs.GRADED] + [
        inputs.random_sentence(rng, inputs.PROPS_SMALL, max_size=15, max_fixpoints=3,
                               max_nesting=3, max_grade=3)
        for _ in range(80)
    ]
    for i, phi in enumerate(sentences):
        n = 1 + i % 5
        labels = inputs.random_labels(rng, n, inputs.PROPS_SMALL, 0.5)
        edges = inputs.dense_random_edges(rng, n, 0.4)
        yield phi, inputs.graph_json(inputs.PROPS_SMALL, labels, edges, rng)


def test_reference_matches_brute_force_oracle():
    mismatches = []
    for phi, data in small_set():
        want = naive_evaluate(parse(inputs.to_text(phi)), graph_from_json(data), {})
        truth = reference.holds(phi, reference.Graph(data))
        got = {i for i, t in enumerate(truth) if t}
        if got != want:
            mismatches.append((inputs.to_text(phi), data))
    assert not mismatches
