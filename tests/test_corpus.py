"""The report corpus: checked-in CLI calls and the bytes each one printed.

``tests/corpus/manifest.json`` lists calls on the configs beside it, each
at ``--jobs`` 1 and 2.  ``expected/<name>.code``, ``.stdout`` and
``.stderr`` hold what the call gave when the corpus was last written.  The
test replays every call in-process through ``cli.main``, with the corpus
directory as the working directory so that messages name configs by their
relative path, and compares bytes.  A change that alters a report on
purpose rewrites the expected files and reads the diff:

    PYTHONPATH=src python tests/test_corpus.py

Floating-point output may differ between NumPy releases, so the manifest
records the Python and NumPy versions it was written under, and the test
fails on any other.
"""

from __future__ import annotations

import contextlib
import io
import json
import os
import platform
import sys
import warnings
from pathlib import Path

import numpy as np

from fuzzfix.cli import main

CORPUS = Path(__file__).resolve().parent / "corpus"
MANIFEST = CORPUS / "manifest.json"
EXPECTED = CORPUS / "expected"
JOBS = ("1", "2")


def _versions() -> dict:
    return {"python": platform.python_version(), "numpy": np.__version__}


def _calls(manifest: dict) -> list[tuple[str, list[str]]]:
    return [(f"{call['name']}.j{jobs}", [*call["argv"], "--jobs", jobs])
            for call in manifest["calls"] for jobs in JOBS]


def _replay(argv: list[str]) -> dict:
    """Exit code, stdout and stderr of one call; a warning is appended to
    stderr by category and message, without the file and line it came from."""
    out, err = io.StringIO(), io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err), \
            warnings.catch_warnings(record=True) as caught:
        warnings.simplefilter("always")
        code = main(argv)
    err.write("".join(f"warning: {w.category.__name__}: {w.message}\n" for w in caught))
    return {"code": f"{code}\n", "stdout": out.getvalue(), "stderr": err.getvalue()}


def _replay_all(manifest: dict) -> dict:
    cwd = os.getcwd()
    os.chdir(CORPUS)
    try:
        return {name: _replay(argv) for name, argv in _calls(manifest)}
    finally:
        os.chdir(cwd)


def test_corpus_replays_byte_identical():
    manifest = json.loads(MANIFEST.read_text())
    recorded = {key: manifest[key] for key in ("python", "numpy")}
    assert recorded == _versions(), (
        f"the corpus was written under Python {recorded['python']} and NumPy "
        f"{recorded['numpy']}, this is Python {_versions()['python']} and NumPy "
        f"{_versions()['numpy']}: rewrite it under these and review the diff")
    changed = [f"{name}.{part}"
               for name, got in _replay_all(manifest).items()
               for part, text in got.items()
               if (EXPECTED / f"{name}.{part}").read_text() != text]
    assert not changed, f"calls whose bytes changed: {changed}"


def rewrite() -> None:
    """Replay every call and write its expected files, and the running
    versions into the manifest."""
    manifest = json.loads(MANIFEST.read_text())
    manifest.update(_versions())
    MANIFEST.write_text(json.dumps(manifest, indent=1) + "\n")
    EXPECTED.mkdir(exist_ok=True)
    for old in EXPECTED.iterdir():
        old.unlink()
    for name, got in _replay_all(manifest).items():
        for part, text in got.items():
            (EXPECTED / f"{name}.{part}").write_text(text)


if __name__ == "__main__":
    sys.exit(rewrite())
