"""A record of the C emitted for the ``first_result`` units.

The native artifact key digests the emitter's source (``emitter=``), so a
change to the emitted C already keys new artifacts; this record makes such a
change visible.  ``emitted_units.json`` holds the sha256 of every
``first_result`` kernel kind x AVX2/AVX-512 unit.  After a deliberate change
to the emitted C, regenerate it and name the moved units in CHANGES.md:

    PYTHONPATH=src python tests/backend/test_emitted_units.py --write
"""
from __future__ import annotations

import hashlib
import json
import pathlib
import sys

GOLDEN = pathlib.Path(__file__).with_name("emitted_units.json")


def _digests() -> dict:
    from repro.backend.codegen import emit_unit
    from repro.metrics.kernels import FIRST_RESULT_KINDS, MACHINES

    return {
        f"{kind}@{machine}": hashlib.sha256(emit_unit(FIRST_RESULT_KINDS[kind](m)).source.encode()).hexdigest()
        for machine, m in sorted(MACHINES.items())
        for kind in sorted(FIRST_RESULT_KINDS)
    }


def test_emitted_c_matches_the_record():
    golden = json.loads(GOLDEN.read_text())
    got = _digests()
    changed = sorted(k for k in got if got[k] != golden["units"].get(k))
    assert not changed, (
        f"the C emitted for {', '.join(changed)} changed: if that is deliberate, regenerate with "
        "`PYTHONPATH=src python tests/backend/test_emitted_units.py --write` and name the moved units in CHANGES.md"
    )
    assert sorted(got) == sorted(golden["units"])


if __name__ == "__main__":
    if sys.argv[1:] != ["--write"]:
        sys.exit(__doc__)
    GOLDEN.write_text(json.dumps({"units": _digests()}, indent=1) + "\n")
    print(f"wrote {GOLDEN}")
