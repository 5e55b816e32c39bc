"""``PYTHONPATH=src python -m benchmarks.e2e`` — same program as
``python3 benchmarks/e2e/run.py``."""

import sys
from pathlib import Path

sys.path.insert(0, str(Path(__file__).resolve().parent))

from run import main  # noqa: E402

sys.exit(main())
