"""``CODEGEN_VERSION`` is the one statement that emitted C changed.

The native artifact key names a procedure by its printed form, not by the C
it lowers to, so a change to the C that the version does not announce would
load artifacts built from the old C.  ``emitted_units.json`` holds the sha256
of every ``first_result`` kernel kind x AVX2/AVX-512 unit beside the version
they were emitted under.  After a deliberate change to the emitted C, bump
``CODEGEN_VERSION`` and regenerate it:

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


def test_emitted_c_changes_only_with_the_codegen_version():
    from repro.backend.codegen import CODEGEN_VERSION

    golden = json.loads(GOLDEN.read_text())
    regenerate = "`PYTHONPATH=src python tests/backend/test_emitted_units.py --write`"
    assert golden["codegen_version"] == CODEGEN_VERSION, (
        f"CODEGEN_VERSION is {CODEGEN_VERSION}, the golden was emitted under "
        f"{golden['codegen_version']}: regenerate it with {regenerate}"
    )
    got = _digests()
    changed = sorted(k for k in got if got[k] != golden["units"].get(k))
    assert not changed, (
        f"the C emitted for {', '.join(changed)} changed under CODEGEN_VERSION {CODEGEN_VERSION}: "
        "bump CODEGEN_VERSION in repro/backend/codegen.py (a cached artifact of the old C would "
        f"load otherwise), then regenerate with {regenerate}"
    )
    assert sorted(got) == sorted(golden["units"])


if __name__ == "__main__":
    if sys.argv[1:] != ["--write"]:
        sys.exit(__doc__)
    from repro.backend.codegen import CODEGEN_VERSION

    GOLDEN.write_text(json.dumps({"codegen_version": CODEGEN_VERSION, "units": _digests()}, indent=1) + "\n")
    print(f"wrote {GOLDEN}")
