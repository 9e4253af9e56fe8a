"""Rewrite tests/cli_golden.json from the CLI as it now prints.

Each key of the manifest is one argv, written with shlex.join; its value,
built by `pin`, is the exit code and the sha256 and byte length of stdout.
This re-runs every key in process, rewrites the values and prints the
commands whose value moved.  To pin a new command, add its key with the
value null first.  Run from the repository root:

    PYTHONPATH=src python tests/regen_cli_golden.py
"""

import contextlib
import hashlib
import io
import json
import os
import pathlib
import shlex

from affine_spectra.cli import main

ROOT = pathlib.Path(__file__).resolve().parents[1]
MANIFEST = ROOT / "tests" / "cli_golden.json"


def pin(argv):
    """Run the CLI on argv from the repository root (the manifest's --system
    paths start there); returns (its manifest value, stdout, stderr)."""
    out, err, cwd = io.StringIO(), io.StringIO(), os.getcwd()
    os.chdir(ROOT)
    try:
        with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
            code = main(list(argv))
    finally:
        os.chdir(cwd)
    data = out.getvalue().encode()
    return ({"exit": code, "sha256": hashlib.sha256(data).hexdigest(),
             "bytes": len(data)}, out.getvalue(), err.getvalue())


if __name__ == "__main__":
    old = json.loads(MANIFEST.read_text())
    new = {key: pin(shlex.split(key))[0] for key in old}
    for key in old:
        if new[key] != old[key]:
            print(key)
    MANIFEST.write_text(json.dumps(new, indent=1, sort_keys=True) + "\n")
