"""Fixture-driven self-tests for the repro-check lint pass.

Each REPxxx rule is exercised against minimal violating and conforming
sources, plus the suppression mechanism, path scoping, and the CLI
surface (exit codes, --list-rules, unknown paths).
"""

import os
import subprocess
import sys
from pathlib import Path

import pytest

from repro.analysis import ALL_RULES, check_source
from repro.analysis.checker import check_paths, main, suppressed_lines


def codes(source, path="src/repro/example.py", package_path=None, select=None):
    return [
        d.code
        for d in check_source(
            source, path, package_path=package_path, select=select
        )
    ]


# ----------------------------------------------------------------------
# REP001 — unseeded / module-level RNG
# ----------------------------------------------------------------------

@pytest.mark.parametrize("source", [
    "import numpy as np\nx = np.random.rand(3)\n",
    "import numpy as np\nnp.random.seed(0)\n",
    "import numpy as np\nrng = np.random.default_rng()\n",
    "import numpy.random as npr\nx = npr.random()\n",
    "from numpy import random\nx = random.standard_normal()\n",
    "import random\nx = random.random()\n",
    "import random\nx = random.randint(0, 5)\n",
    "import random as _random\nrng = _random.Random()\n",
    "from random import random\nx = random()\n",
])
def test_rep001_flags_unseeded_rng(source):
    assert codes(source) == ["REP001"]


@pytest.mark.parametrize("source", [
    "import numpy as np\nrng = np.random.default_rng(7)\n",
    "import numpy as np\nrng = np.random.default_rng(seed)\n",
    "import numpy as np\ng = np.random.Generator(np.random.PCG64(3))\n",
    "import random\nrng = random.Random(42)\n",
    # A *local* name shadowing `random` is not the module.
    "def f(random):\n    return random.random()\n",
    # Methods on a generator instance are fine — it carries its seed.
    "import random\nx = random.Random(3).random()\n",
])
def test_rep001_allows_seeded_rng(source):
    assert codes(source) == []


# ----------------------------------------------------------------------
# REP002 — UncertainGraph mutators must bump version
# ----------------------------------------------------------------------

REP002_VIOLATION = """
class UncertainGraph:
    def clear_edges(self):
        self._succ = {}
        self._pred = {}
"""

REP002_SUBSCRIPT_VIOLATION = """
class UncertainGraph:
    def poke(self, u, v, p):
        self._succ[u][v] = p
"""

REP002_DELETE_VIOLATION = """
class UncertainGraph:
    def drop(self, u, v):
        del self._succ[u][v]
"""

REP002_OK_DIRECT_BUMP = """
class UncertainGraph:
    def clear_edges(self):
        self._succ = {}
        self._pred = {}
        self._version += 1
"""

REP002_OK_DELEGATED = """
class UncertainGraph:
    def set_probability(self, u, v, p):
        self.add_edge(u, v, p)
"""

REP002_OK_FOREIGN_TARGET = """
class UncertainGraph:
    def copy(self):
        clone = UncertainGraph()
        clone._succ = {}
        clone._num_edges = 0
        return clone
"""


def test_rep002_flags_unbumped_state_writes():
    assert codes(REP002_VIOLATION) == ["REP002"]
    assert codes(REP002_SUBSCRIPT_VIOLATION) == ["REP002"]
    assert codes(REP002_DELETE_VIOLATION) == ["REP002"]


def test_rep002_accepts_bumping_and_delegating_methods():
    assert codes(REP002_OK_DIRECT_BUMP) == []
    assert codes(REP002_OK_DELEGATED) == []
    # Writes to *another* object's state (copy()) are not this graph's.
    assert codes(REP002_OK_FOREIGN_TARGET) == []


def test_rep002_ignores_other_classes():
    source = "class Other:\n    def f(self):\n        self._succ = {}\n"
    assert codes(source) == []


# ----------------------------------------------------------------------
# REP003 — no .version in the disk tier
# ----------------------------------------------------------------------

def test_rep003_flags_version_in_index_package():
    source = "def key(graph):\n    return graph.version\n"
    assert codes(source, package_path=("index", "store.py")) == ["REP003"]


def test_rep003_scoped_to_index_only():
    source = "def key(graph):\n    return graph.version\n"
    assert codes(source, package_path=("engine", "csr.py")) == []
    # schema_version is a different attribute.
    ok = "def v(meta):\n    return meta.schema_version\n"
    assert codes(ok, package_path=("index", "schema.py")) == []


def test_rep003_real_path_scoping(tmp_path):
    pkg = tmp_path / "repro" / "index"
    pkg.mkdir(parents=True)
    bad = pkg / "cache.py"
    bad.write_text("def key(g):\n    return g.version\n")
    assert [d.code for d in check_paths([str(bad)])] == ["REP003"]


# ----------------------------------------------------------------------
# REP004 — WorldBatch arrays immutable outside the kernel
# ----------------------------------------------------------------------

@pytest.mark.parametrize("source", [
    "def f(batch, row):\n    batch.alive[0] = row\n",
    "def f(batch, mask):\n    batch.alive |= mask\n",
    "def f(batch, mask):\n    batch.valid[2:] = mask\n",
    "def f(batch, words):\n    batch.words = words\n",
    "import numpy as np\ndef f(batch, row):\n    np.copyto(batch.alive, row)\n",
    "import numpy as np\ndef f(b, row):\n    np.copyto(b.alive[3], row)\n",
])
def test_rep004_flags_batch_mutation(source):
    assert codes(source) == ["REP004"]


def test_rep004_exempts_kernel_and_reads():
    mutation = "def f(batch, row):\n    batch.alive[0] = row\n"
    assert codes(mutation, package_path=("engine", "kernel.py")) == []
    reads = "def f(batch):\n    return batch.alive[0] & batch.valid\n"
    assert codes(reads) == []
    # Freezing a batch is not mutation of the array contents.
    freeze = "def f(batch):\n    batch.alive.flags.writeable = False\n"
    assert codes(freeze) == []


# ----------------------------------------------------------------------
# REP005 — wall clock
# ----------------------------------------------------------------------

def test_rep005_flags_wall_clock():
    source = "import time\nstart = time.time()\n"
    assert codes(source) == ["REP005"]
    aliased = "import time as clock\nstart = clock.time()\n"
    assert codes(aliased) == ["REP005"]
    from_import = "from time import time\nstart = time()\n"
    assert codes(from_import) == ["REP005"]


def test_rep005_allows_perf_counter():
    source = "import time\nstart = time.perf_counter()\n"
    assert codes(source) == []


# ----------------------------------------------------------------------
# REP006 — fault seams are literal, allocation-free, armed-gated
# ----------------------------------------------------------------------

@pytest.mark.parametrize("source", [
    # dynamic seam name: the seam table stops being enumerable
    "from repro.faults import fault_point\n"
    "name = 'store.catalog'\n"
    "fault_point(name)\n",
    # f-string seam name allocates on every disarmed call
    "from repro.faults import fault_point\n"
    "op = 'catalog'\n"
    "fault_point(f'store.{op}')\n",
    # not a dotted lowercase identifier
    "from repro.faults import fault_point\n"
    "fault_point('store.*')\n",
    "from repro.faults import fault_point\n"
    "fault_point('Store.Catalog')\n",
    # error= must be a bare class reference, not an expression
    "from repro.faults import fault_point\n"
    "fault_point('store.catalog', type('E', (Exception,), {}))\n",
    "from repro.faults import fault_point\n"
    "fault_point('store.catalog', error=RuntimeError('boom'))\n",
    # wrong arity / unexpected keywords
    "from repro.faults import fault_point\n"
    "fault_point('store.catalog', RuntimeError, 3)\n",
    "from repro.faults import fault_point\n"
    "fault_point('store.catalog', p=0.5)\n",
    # bypassing the registry entirely
    "from repro.faults import FaultError\n"
    "def f():\n"
    "    raise FaultError('store.catalog')\n",
])
def test_rep006_flags_unsafe_seams(source):
    assert codes(source) == ["REP006"]


def test_rep006_accepts_literal_allocation_free_seams():
    source = (
        "from repro.faults import fault_point\n"
        "from repro.index.store import StoreError\n"
        "fault_point('store.catalog')\n"
        "fault_point('store.catalog', StoreError)\n"
        "fault_point('serve.http.read', error=ConnectionError)\n"
    )
    assert codes(source) == []


def test_rep006_exempts_the_faults_package_itself():
    source = (
        "def fault_point(name, error=None):\n"
        "    raise FaultError(name)\n"
    )
    assert codes(source, package_path=("faults", "registry.py")) == []


# ----------------------------------------------------------------------
# suppressions
# ----------------------------------------------------------------------

def test_inline_suppression_silences_one_rule():
    source = "import time\nnow = time.time()  # repro-check: disable=REP005\n"
    assert codes(source) == []


def test_suppression_is_rule_specific():
    source = "import time\nnow = time.time()  # repro-check: disable=REP001\n"
    assert codes(source) == ["REP005"]


def test_suppression_disable_all():
    source = "import time\nnow = time.time()  # repro-check: disable=all\n"
    assert codes(source) == []


def test_suppression_parsing():
    lines = suppressed_lines(
        "x = 1\ny = 2  # repro-check: disable=REP001, REP004\n"
    )
    assert lines == {2: {"REP001", "REP004"}}


# ----------------------------------------------------------------------
# driver / CLI surface
# ----------------------------------------------------------------------

def test_select_restricts_rules():
    source = "import time\nimport random\nx = random.random()\nt = time.time()\n"
    assert codes(source, select=["REP005"]) == ["REP005"]
    assert sorted(codes(source)) == ["REP001", "REP005"]


def test_syntax_error_becomes_diagnostic():
    assert codes("def broken(:\n") == ["REP000"]


def test_main_clean_tree_exits_zero(tmp_path):
    clean = tmp_path / "clean.py"
    clean.write_text("import time\nstart = time.perf_counter()\n")
    assert main([str(tmp_path)]) == 0


def test_main_violations_exit_one(tmp_path, capsys):
    bad = tmp_path / "bad.py"
    bad.write_text("import time\nstart = time.time()\n")
    assert main([str(tmp_path)]) == 1
    out = capsys.readouterr().out
    assert "REP005" in out and "bad.py:2" in out


def test_main_missing_path_exits_two(tmp_path):
    assert main([str(tmp_path / "nope")]) == 2


def test_main_unknown_rule_code_exits_two(tmp_path):
    assert main(["--select", "REP999", str(tmp_path)]) == 2


def test_main_list_rules(capsys):
    assert main(["--list-rules"]) == 0
    out = capsys.readouterr().out
    for rule in ALL_RULES:
        assert rule.code in out
    assert len(ALL_RULES) == 6


def test_module_entry_point_runs():
    # The child imports repro from this checkout, installed or not.
    src = str(Path(__file__).resolve().parents[1] / "src")
    path = os.environ.get("PYTHONPATH")
    env = dict(
        os.environ,
        PYTHONPATH=os.pathsep.join([src, path]) if path else src,
    )
    proc = subprocess.run(
        [sys.executable, "-m", "repro.analysis", "--list-rules"],
        capture_output=True, text=True, env=env,
    )
    assert proc.returncode == 0
    assert "REP001" in proc.stdout


def test_repo_source_tree_is_clean():
    # The acceptance gate, runnable locally: all six rules, zero
    # findings over the shipped package.
    import repro
    from pathlib import Path

    package_dir = Path(repro.__file__).parent
    assert check_paths([str(package_dir)]) == []
