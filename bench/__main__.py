"""``python3 -m bench`` — see ``bench/README.md``."""

import sys
import time

from .clock import REFERENCE_MS, spin_ms

# importing the stack is part of set-up: time it between two speed probes
_before = spin_ms()
_t0 = time.perf_counter()
from .cli import main  # noqa: E402

_import_s = (time.perf_counter() - _t0) * REFERENCE_MS["cpu"] / ((_before + spin_ms()) / 2.0)

if __name__ == "__main__":
    sys.exit(main(import_s=_import_s))
