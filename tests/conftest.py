"""Let the CLI subprocesses that tests start import qweyl from this checkout,
and make Hypothesis runs reproducible on CI.

``pytest.ini`` puts ``src`` on the test process's own path; child
interpreters only see it through ``PYTHONPATH``.

With ``CI`` set, every property test draws the same examples on every run
(derandomized from the test's own code, with no example database), so a
failure on CI reproduces locally under ``CI=1``.  Local runs stay random.
"""

import os
from pathlib import Path

from hypothesis import settings

_SRC = str(Path(__file__).resolve().parent.parent / "src")
os.environ["PYTHONPATH"] = os.pathsep.join(p for p in (_SRC, os.environ.get("PYTHONPATH")) if p)

settings.register_profile("ci", derandomize=True, database=None)
if os.environ.get("CI"):
    settings.load_profile("ci")
