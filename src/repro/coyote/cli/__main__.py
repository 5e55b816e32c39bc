"""``python -m repro.coyote.cli`` is ``coyote-sim``."""
from repro.coyote.cli import main

if __name__ == "__main__":
    raise SystemExit(main())
