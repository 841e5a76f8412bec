"""Make ``bench`` and ``repro`` importable however pytest was started.

Run with ``PYTHONPATH=src python -m pytest bench/tests -q`` from the
repository root; these tests are not part of tier-1.
"""

import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent.parent
for path in (ROOT / "src", ROOT):
    if str(path) not in sys.path:
        sys.path.insert(0, str(path))
