"""Fingerprint the bytes of a fixed list of CLI commands.

Usage: python tools/cli_bytes.py CHECKOUT

Runs each command below against the package in ``CHECKOUT/src`` three
times: twice in one process through ``crenaudit.cli.main``, and once as
``python -m crenaudit``.  Each run's stdout, stderr and exit code are
hashed; the tool prints one ``sha256  argv`` line per command, then the
number of commands and one sha256 over all of them.  If the three runs of
a command disagree, it names the command and exits 1.  Equal output at two
checkouts means the CLI printed the same bytes at both, and an in-process
caller sees what a fresh process does; where the last lines differ, the
per-command lines name the commands whose bytes moved.
Nothing is written under the checkout: the subprocesses run in a
temporary directory and no bytecode is written.
"""

import contextlib
import hashlib
import io
import os
import subprocess
import sys
import tempfile

ALL_MEASURES = ["--measures", "cren,ckw,crenoa,coa,negativity", "--format", "csv"]
PAIR_MEASURES = ["--trace-out", "3", "--measure", "cren,concurrence,crenoa,coa,negativity"]

# Every command at its default seed.
COMMANDS = [
    ["audit", "--family", "ou", *ALL_MEASURES],
    ["audit", "--family", "kim_sanders", *ALL_MEASURES],
    ["audit", "--family", "ghz", "--n", "4", "--d", "3", *ALL_MEASURES],
    ["audit", "--family", "w", "--n", "3", "--d", "3", "--measures", "cren,ckw,crenoa,coa"],
    ["audit", "--family", "ou"],
    ["measure", "--family", "ou", *PAIR_MEASURES],
    ["measure", "--family", "ghz", "--n", "3", "--d", "3", *PAIR_MEASURES],
    ["hunt", "--profile", "3,3,3", "--trials", "200"],
    ["hunt", "--profile", "3,2,2", "--trials", "200"],
    ["hunt", "--profile", "2,3,4", "--trials", "200"],
    ["hunt", "--profile", "3,3,3,3", "--trials", "32"],
    ["sweep", "--n", "7", "--d", "4"],
    ["sweep", "--n", "4", "--d", "3", "--partition", "1|23|4", "--samples", "16"],
]


def _in_process(main, argv: list[str]) -> tuple[bytes, bytes, int]:
    out, err = io.StringIO(), io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        code = main(list(argv))
    return out.getvalue().encode(), err.getvalue().encode(), code


def _subprocess(src: str, cwd: str, argv: list[str]) -> tuple[bytes, bytes, int]:
    env = {**os.environ, "PYTHONPATH": src, "PYTHONDONTWRITEBYTECODE": "1"}
    proc = subprocess.run([sys.executable, "-m", "crenaudit", *argv],
                          capture_output=True, cwd=cwd, env=env)
    return proc.stdout, proc.stderr, proc.returncode


def main(argv: list[str]) -> int:
    src = os.path.join(os.path.abspath(argv[0]), "src")
    sys.path.insert(0, src)
    sys.dont_write_bytecode = True
    from crenaudit import cli

    digest, mismatched = hashlib.sha256(), []
    with tempfile.TemporaryDirectory() as cwd:
        for command in COMMANDS:
            runs = [_in_process(cli.main, command), _in_process(cli.main, command),
                    _subprocess(src, cwd, command)]
            if runs[1] != runs[0] or runs[2] != runs[0]:
                mismatched.append(command)
            out, err, code = runs[0]
            own = hashlib.sha256()
            for part in (" ".join(command).encode(), out, err, str(code).encode()):
                digest.update(len(part).to_bytes(8, "little") + part)
                own.update(len(part).to_bytes(8, "little") + part)
            print(own.hexdigest(), " ".join(command), sep="  ")
    for command in mismatched:
        print("mismatch:", " ".join(command), file=sys.stderr)
    print(len(COMMANDS), digest.hexdigest())
    return 1 if mismatched else 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
