"""Let the CLI subprocesses that tests start import qweyl from this checkout.

``pytest.ini`` puts ``src`` on the test process's own path; child
interpreters only see it through ``PYTHONPATH``.
"""

import os
from pathlib import Path

_SRC = str(Path(__file__).resolve().parent.parent / "src")
os.environ["PYTHONPATH"] = os.pathsep.join(p for p in (_SRC, os.environ.get("PYTHONPATH")) if p)
