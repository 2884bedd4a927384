"""What ``import repro`` loads: only what a served query calls.

A fresh interpreter imports the package, serves learn-shaped requests
through one ``workers=1`` session with both cache tiers on, and must
still hold none of the standard-library modules the package defers to
first use, and none of the package's own modules that a served query
never runs.  Then every exported name of the package and of each
subpackage must be listed by ``dir()`` and, once every module of the
package is imported, resolve to what it names.  The child
runs with ``-S`` so that no site hook loads a module before the
package does.
"""

import os
import subprocess
import sys

SRC = os.path.join(os.path.dirname(os.path.dirname(os.path.abspath(__file__))),
                   "src")

#: Deferred to first use: checkpoint and experience checksums, package
#: metadata, the SQLite backend and the multi-worker thread pool.
DEFERRED = ("hashlib", "importlib.metadata", "sqlite3", "concurrent.futures")

#: The package's own modules that a served query never runs: the other
#: two engines, checkpoints, the experience store, drift-aware
#: learning, resilience policies, tracing, the workload generators,
#: and the other learners' machinery.  A package stands for every
#: module under it.  A new form's PAO seed runs ``QP^A`` and then
#: ``Υ_AOT``, so ``repro.strategies.adaptive`` and ``repro.optimal``
#: load with the first served query; ``import repro`` alone loads
#: neither (CI's bare-install job checks that).
DEFERRED_REPRO = (
    "repro.datalog.bottomup",
    "repro.datalog.qsqn",
    "repro.experience",
    "repro.graphs.hypergraph",
    "repro.graphs.random_graphs",
    "repro.learning.drift",
    "repro.learning.palo",
    "repro.learning.pib1",
    "repro.learning.policy",
    "repro.learning.sensitivity",
    "repro.observability.metrics",
    "repro.observability.sink",
    "repro.observability.tracer",
    "repro.persistence",
    "repro.resilience",
    "repro.storage.config",
    "repro.strategies.enumeration",
    "repro.strategies.expected_cost",
    "repro.workloads",
    "repro.bench",
    "repro.verify",
    "repro.cli",
)

#: The subpackages whose ``__all__`` names resolve on first use.
PACKAGES = (
    "repro", "repro.bench", "repro.datalog", "repro.experience",
    "repro.graphs", "repro.learning", "repro.observability",
    "repro.optimal", "repro.resilience", "repro.serving", "repro.storage",
    "repro.strategies", "repro.verify", "repro.workloads",
)

CHILD = """
import importlib
import pkgutil
import sys
from types import ModuleType

import repro
from repro import AdmissionConfig, CacheConfig, ServingConfig, open_session

DEFERRED = %r
DEFERRED_REPRO = %r
PACKAGES = %r
rules = "\\n".join(
    f"f{form}(X) :- m{form}_{branch}(X).\\n"
    f"m{form}_{branch}(X) :- leaf{form}_{branch}(X).\\n"
    f"m{form}_{branch}(X) :- alt{form}_{branch}(X)."
    for form in range(2) for branch in range(3)
)
facts = " ".join(f"leaf{form}_{branch}(c{index})."
                 for form in range(2) for branch in range(3)
                 for index in range(branch, 40, 3))
database = repro.datalog.database.Database.from_program(facts)
with open_session(
    repro.datalog.parser.parse_program(rules), database,
    cache=CacheConfig.default_enabled(),
    serving=ServingConfig(workers=1,
                          admission=AdmissionConfig(queue_capacity=32)),
) as session:
    for burst in range(8):
        outcomes = session.run_requests(
            [f"f{index %% 2}(c{(burst * 7 + index) %% 50})"
             for index in range(32)]
        )
        assert all(outcome.status == "served" for outcome in outcomes)
loaded = [name for name in DEFERRED + DEFERRED_REPRO if name in sys.modules]
assert not loaded, f"import repro and serving loaded {loaded}"
print(repro.__version__)
print(repro.SQLiteFactStore.__name__, repro.FederatedStore.__name__,
      repro.ShardSpec.__name__)

for package_name in PACKAGES:
    package = importlib.import_module(package_name)
    unlisted = set(package.__all__) - set(dir(package))
    assert not unlisted, (package_name, unlisted)
# Import every module first: a submodule import binds the package
# attribute of its own name, which must not hide an exported name.
for module in pkgutil.walk_packages(repro.__path__, "repro."):
    if not module.name.endswith("__main__"):
        importlib.import_module(module.name)
resolved = 0
for package_name in PACKAGES:
    package = sys.modules[package_name]
    for name in package.__all__:
        value = getattr(package, name)
        # A module only where the name is a subpackage's.
        assert (not isinstance(value, ModuleType)
                or value.__name__ == f"{package_name}.{name}"
                and hasattr(value, "__path__")), (package_name, name, value)
        resolved += 1
print(resolved)
""" % (DEFERRED, DEFERRED_REPRO, PACKAGES)


def test_import_and_serving_defer_the_unused_stdlib():
    env = dict(os.environ, PYTHONPATH=SRC)
    result = subprocess.run(
        [sys.executable, "-S", "-c", CHILD],
        env=env, capture_output=True, text=True, timeout=120,
    )
    assert result.returncode == 0, result.stderr
    version, names, resolved = result.stdout.splitlines()
    assert version == __import__("repro").__version__
    assert names == "SQLiteFactStore FederatedStore ShardSpec"
    assert int(resolved) == sum(
        len(__import__(package, fromlist=["__all__"]).__all__)
        for package in PACKAGES
    )
