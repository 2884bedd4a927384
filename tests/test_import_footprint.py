"""What ``import repro`` loads: only what a served query calls.

A fresh interpreter imports the package, serves learn-shaped requests
through one ``workers=1`` session with both cache tiers on, and must
still hold none of the standard-library modules the package defers to
first use.  The lazily resolved names must then resolve.  The child
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

CHILD = """
import sys

import repro
from repro import AdmissionConfig, CacheConfig, ServingConfig, open_session

DEFERRED = %r
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
loaded = [name for name in DEFERRED if name in sys.modules]
assert not loaded, f"import repro and serving loaded {loaded}"
print(repro.__version__)
print(repro.SQLiteFactStore.__name__, repro.FederatedStore.__name__,
      repro.ShardSpec.__name__)
""" % (DEFERRED,)


def test_import_and_serving_defer_the_unused_stdlib():
    env = dict(os.environ, PYTHONPATH=SRC)
    result = subprocess.run(
        [sys.executable, "-S", "-c", CHILD],
        env=env, capture_output=True, text=True, timeout=120,
    )
    assert result.returncode == 0, result.stderr
    version, names = result.stdout.splitlines()
    assert version == __import__("repro").__version__
    assert names == "SQLiteFactStore FederatedStore ShardSpec"
