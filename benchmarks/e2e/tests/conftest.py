"""Make the benchmark's modules and the program under test importable.

Run with ``python -m pytest benchmarks/e2e/tests`` from the repository root;
these tests are not part of the tier-1 collection (``testpaths = tests``).
"""

import sys
from pathlib import Path

E2E_DIR = Path(__file__).resolve().parent.parent
for path in (E2E_DIR, E2E_DIR.parent.parent / "src"):
    if str(path) not in sys.path:
        sys.path.insert(0, str(path))
