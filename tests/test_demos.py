"""Every demo prints the bytes pinned here.

The digests are SHA-256 of each demo's stdout; a change to a demo's output
must update its digest on purpose.
"""

import hashlib
import os
import subprocess
import sys
from pathlib import Path

import pytest

import packlab

DEMOS = Path(__file__).resolve().parent.parent / "demos"

STDOUT_SHA256 = {
    "01_base_case.py": "79a3113dd96b7b6d567903183f6d1eaaeb19ab02f4c8593e4da1163b2b457f83",
    "02_forbidden_matrices.py": "9000c9d1e80dcf5af82c8e55143086eac4b6ce396457e21c12a7f5d2a4ee7801",
    "03_threshold_table.py": "15f77df8f26c40efd457b9c7857013b357106ab8a44c90108115936b10a142e6",
    "04_greedy_and_hunt.py": "6e25872d1bbcf2f0d35507e35862a0a0bb3097a8574a1df2ec44f8b68b2d3817",
    "05_list_packing.py": "f29ad1294e4a76c8c9776c528a786d526ceee6a7b22d0be6b65441bf87ad9f2d",
    "06_certificates.py": "d20197ccca1b33e5db5f06d4396fb0f4cc5f29941df10817668763f1d87734dd",
    "07_k44_cover.py": "8d13ad511b5cd7a2f1fc0f706407833a5a01a4b4c3469322dbce9d9aa36c4c0c",
}


@pytest.mark.parametrize("name", sorted(p.name for p in DEMOS.glob("*.py")))
def test_demo_stdout_pinned(name):
    src = os.path.dirname(os.path.dirname(packlab.__file__))
    env = dict(os.environ, PYTHONPATH=src)
    proc = subprocess.run(
        [sys.executable, str(DEMOS / name)], env=env, capture_output=True, check=True
    )
    assert hashlib.sha256(proc.stdout).hexdigest() == STDOUT_SHA256.get(name)
