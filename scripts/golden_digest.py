#!/usr/bin/env python3
"""The SHA-256 digest of a golden set, under its environment's fingerprint.

    PYTHONPATH=src python3 scripts/golden_outputs.py OUT
    python3 scripts/golden_digest.py OUT > tests/golden.sha256

prints a `# fingerprint: ...` line (Python's minor version and the numpy,
scipy and BLAS builds, as `np.show_config` names the BLAS), then one
`<sha256>  <path>` line per file under OUT, in path order. A golden set's
bytes are only pinned on one fingerprint: `test_golden_outputs_script`
compares its set against the committed digest when the fingerprints match
and skips that comparison, naming both, when they do not.
"""

from __future__ import annotations

import hashlib
import sys
from pathlib import Path

import numpy as np
import scipy


def fingerprint() -> str:
    blas = np.show_config(mode="dicts")["Build Dependencies"]["blas"]["name"]
    return (f"python {sys.version_info.major}.{sys.version_info.minor} "
            f"numpy {np.__version__} scipy {scipy.__version__} blas {blas}")


def digest(out: Path) -> str:
    files = sorted((f.relative_to(out).as_posix(), f)
                   for f in out.rglob("*") if f.is_file())
    return "".join([f"# fingerprint: {fingerprint()}\n"] + [
        f"{hashlib.sha256(f.read_bytes()).hexdigest()}  {name}\n"
        for name, f in files])


if __name__ == "__main__":
    if len(sys.argv) != 2:
        raise SystemExit(f"usage: {sys.argv[0]} OUT")
    sys.stdout.write(digest(Path(sys.argv[1])))
