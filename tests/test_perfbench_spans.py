"""perfbench's tracer finds every name it wraps, and sees estimator sampling.

``perfbench/spans.py`` replaces repro functions by attribute name (for
example ``repro.engine.batch.sample_worlds`` and
``RecursiveStratifiedSampler.reliability``), so deleting or renaming one
breaks ``perfbench/run.py --trace 1``, and an estimator that samples
around the wrapped names drops out of the traces silently.  ``install``
patches modules for the life of the process, so it runs in a child.
"""

import json
import os
import subprocess
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parents[1]

CHILD = """
import json
import spans
from repro.graph import UncertainGraph
from repro.reliability import estimator_names, make_estimator

tracer = spans.Tracer(always=True)
spans.install(tracer)
graph = UncertainGraph.from_edges([(0, 1, 0.5), (1, 2, 0.5), (0, 2, 0.2)])


def calls(name):
    return tracer.summary()["names"].get(name, [0])[0]


seen = {}
for name in estimator_names():
    before = calls("engine.kernel.sample")
    make_estimator(name, 128, seed=1).reliability(graph, 0, 2)
    seen[name] = calls("engine.kernel.sample") - before
before = calls("engine.batch.sweep")
make_estimator("mc", 128, seed=1).pair_reliabilities(graph, [(0, 2), (1, 2)])
seen["mc pair sweeps"] = calls("engine.batch.sweep") - before
print(json.dumps(seen))
"""


def test_install_wraps_every_name_and_times_estimator_sampling():
    env = dict(
        os.environ,
        PYTHONPATH=os.pathsep.join([str(ROOT / "src"), str(ROOT / "perfbench")]),
    )
    proc = subprocess.run(
        [sys.executable, "-c", CHILD], env=env, capture_output=True,
        text=True, timeout=120,
    )
    assert proc.returncode == 0, proc.stderr
    seen = json.loads(proc.stdout.strip().splitlines()[-1])
    for name, sampled in seen.items():
        assert sampled >= 1, (name, seen)
