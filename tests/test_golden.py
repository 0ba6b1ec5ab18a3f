"""Golden outputs: the CLI commands below must keep their exact bytes.

Every command runs in-process through ``sspkit.cli.main`` in one working
directory, in list order: later commands read files that earlier ones
write, and all paths are relative, so no output depends on where that
directory is. For each command the exit code and the SHA-256 digests of
stdout, stderr and every file it writes are compared with
``tests/golden.json``. Wall-clock fields (``--timings``) are left out.

A change that alters an output on purpose regenerates the file with

    PYTHONPATH=src python tests/test_golden.py

and names each changed command and the reason in CHANGES.md.
"""

from __future__ import annotations

import contextlib
import hashlib
import io
import json
import os
import shlex
import sys
import tempfile
from pathlib import Path

import pytest

from sspkit.cli import main

GOLDEN = Path(__file__).with_name("golden.json")

TRI = "--domain triangle-1-domain.ppddl --problem triangle-1-problem.ppddl"
TRI2 = "--domain triangle-2-domain.ppddl --problem triangle-2-problem.ppddl"
CHAIN = "--domain chain-3-domain.ppddl --problem chain-3-problem.ppddl"
RETRY = "--domain retry-domain.ppddl --problem retry-problem.ppddl"
TRAP = "--domain trap-10-domain.ppddl --problem trap-10-problem.ppddl"

# Inputs that no `gen` command writes, placed in the directory first.
FILES = {
    "bad.ppddl": "(define (domain x)\n  (:predicates (p)\n",
    "unknown.det": "move-car/0 -> 0\nloadtire/0 -> 0\nchangetire/0 -> 0\n"
                   "fly/0 -> 0\n",
    "big-domain.ppddl": "(define (domain big)\n"
                        "  (:predicates (p ?a ?b ?c ?d ?e) (g))\n"
                        "  (:action a :parameters (?a ?b ?c ?d ?e)\n"
                        "    :precondition (and) :effect (p ?a ?b ?c ?d ?e)))\n",
    "big-problem.ppddl": "(define (problem p) (:domain big) (:objects "
                        + " ".join(f"o{i}" for i in range(20))
                        + ") (:init) (:goal (g)))\n",
}


def _client(*lines) -> str:
    """A stdio client's lines; a str is sent as it is, anything else as
    JSON."""
    return "".join((line if isinstance(line, str) else json.dumps(line))
                   + "\n" for line in lines)


CHAIN_CLIENT = _client(*[{"action": f"(step p{i} p{i + 1})"}
                         for _ in range(3) for i in range(3)])
# inapplicable, null, non-object and unknown actions, then a hang-up
TRIANGLE_CLIENT = _client(
    {"action": "(move-car l-1-1 l-1-2)"}, {"action": "(move-car l-1-2 l-1-3)"},
    {"action": "(changetire)"},
    {"action": None},
    "[1]",
    {"action": "(fly)"},
    {"action": "(move-car l-1-1 l-2-1)"})


def _plan_commands():
    sources = {"file": "--det-file learned.det", "mlo": "--det-mlo",
               "index": "--det-index 0",
               "learn": "--det-learn triangle-1-problem.ppddl"}
    for n, files in ((1, TRI), (2, TRI2)):
        for source, option in sources.items():
            for k in (0, 1, 2):
                out = f"--out plan-{source}-{n}-{k}.json" if k == 1 else ""
                yield (f"plan-{source}-triangle{n}-k{k}",
                       f"plan {files} {option} --k {k} {out}", None)


# (id, argv, stdin)
COMMANDS = [
    ("gen-triangle-1", "gen triangle --n 1", None),
    ("gen-triangle-2", "gen triangle --n 2", None),
    ("gen-chain-3", "gen chain --length 3", None),
    ("gen-retry", "gen retry", None),
    ("gen-trap-10", "gen trap --walk-length 10", None),
    ("learn-det-triangle1",
     "learn-det --domain triangle-1-domain.ppddl --training-problem "
     "triangle-1-problem.ppddl --k 1 --rounds 10 --out learned.det "
     "--report-csv learn.csv", None),
    ("learn-det-trap10",
     "learn-det --domain trap-10-domain.ppddl --training-problem "
     "trap-10-problem.ppddl --rounds 10 --seed 2 --out trap.det", None),
    *_plan_commands(),
    ("plan-chain-k1", f"plan {CHAIN} --det-mlo --k 1", None),
    ("plan-trap-k1", f"plan {TRAP} --det-file trap.det --k 1", None),
    ("simulate-mlo-triangle2-k2",
     f"simulate {TRI2} --det-mlo --k 2 --rounds 8 --seed 3 "
     "--out sim.json --csv sim.csv", None),
    ("simulate-index-triangle1-k1",
     f"simulate {TRI} --det-index 1 --k 1 --rounds 8 --seed 3", None),
    ("simulate-file-trap-k0",
     f"simulate {TRAP} --det-file trap.det --rounds 10 --seed 5 "
     "--csv trap.csv", None),
    ("simulate-learn-triangle1",
     f"simulate {TRI} --det-learn triangle-1-problem.ppddl --rounds 5", None),
    ("bench-mlo-k1",
     "bench --domain triangle-1-domain.ppddl --problems "
     "triangle-1-problem.ppddl triangle-2-problem.ppddl --det-mlo --k 1 "
     "--rounds 6 --json bench.json --csv bench.csv", None),
    ("bench-index-k2",
     "bench --domain triangle-1-domain.ppddl --problems "
     "triangle-1-problem.ppddl --det-index 1 --k 2 --rounds 3", None),
    ("bench-empty", "bench --domain triangle-1-domain.ppddl --det-mlo", None),
    ("oracle-vi-chain", f"oracle vi {CHAIN}", None),
    ("oracle-vi-chain-full", f"oracle vi {CHAIN} --full --out vi.json", None),
    ("oracle-vi-chain-reduced",
     f"oracle vi {CHAIN} --reduced --det-mlo --k 1", None),
    ("oracle-vi-triangle1-reduced",
     f"oracle vi {TRI} --reduced --det-index 0 --k 2 --full", None),
    ("oracle-enumerate-chain", f"oracle enumerate {CHAIN}", None),
    ("oracle-enumerate-chain-reduced",
     f"oracle enumerate {CHAIN} --reduced --det-index 0 --k 2", None),
    ("oracle-enumerate-triangle1-reduced-k2",
     f"oracle enumerate {TRI} --reduced --det-mlo --k 2 --out enum.json",
     None),
    ("oracle-enumerate-retry-reduced",
     f"oracle enumerate {RETRY} --reduced --det-index 0 --k 1", None),
    ("detplan-optimal-chain",
     f"detplan solve {CHAIN} --det-index 0 --optimal --out plan.txt", None),
    ("detplan-greedy-triangle2", f"detplan solve {TRI2} --det-mlo", None),
    ("detplan-unsolvable-retry", f"detplan solve {RETRY} --det-index 1", None),
    ("stdio-chain",
     f"simulate {CHAIN} --serve-stdio --rounds 3 --seed 1", CHAIN_CLIENT),
    ("stdio-triangle1",
     f"simulate {TRI} --serve-stdio --rounds 6 --seed 4", TRIANGLE_CLIENT),
    ("error-parse", "plan --domain bad.ppddl --problem bad.ppddl --det-mlo",
     None),
    ("error-det-index-range", f"plan {TRI} --det-index 99", None),
    ("error-det-file-unknown-clause", f"plan {TRI} --det-file unknown.det",
     None),
    ("error-missing-source", f"simulate {TRI} --rounds 2", None),
    ("error-state-cap", f"oracle enumerate {TRI} --cap-states 3", None),
    ("error-grounding-cap",
     "plan --domain big-domain.ppddl --problem big-problem.ppddl --det-mlo",
     None),
    ("error-oracle-k-without-reduced", f"oracle vi {CHAIN} --k 2", None),
    ("error-serve-stdio-outputs",
     f"simulate {CHAIN} --serve-stdio --det-mlo --out sv.json --csv sv.csv",
     None),
]


def _digest(data: str | bytes) -> str:
    if isinstance(data, str):
        data = data.encode()
    return hashlib.sha256(data).hexdigest()


def _snapshot(root: Path) -> dict[str, str]:
    return {p.relative_to(root).as_posix(): _digest(p.read_bytes())
            for p in sorted(root.rglob("*")) if p.is_file()}


def _run(argv: list[str], stdin: str | None) -> tuple[int, bytes, str]:
    # the CLI reads and writes the byte streams under stdin and stdout
    out = io.TextIOWrapper(io.BytesIO(), encoding="utf-8", newline="",
                           write_through=True)
    err = io.StringIO()
    saved_stdin = sys.stdin
    sys.stdin = io.TextIOWrapper(io.BytesIO((stdin or "").encode()),
                                 encoding="utf-8")
    try:
        with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
            try:
                code = main(argv)
            except SystemExit as exc:  # argparse rejected the arguments
                code = exc.code
    finally:
        sys.stdin = saved_stdin
    return code, out.buffer.getvalue(), err.getvalue()


def run_all(workdir: Path) -> dict[str, dict]:
    """Run every command in ``workdir``; return the record of each by id."""
    for name, text in FILES.items():
        (workdir / name).write_text(text)
    records = {}
    cwd = os.getcwd()
    os.chdir(workdir)
    try:
        for cid, argv, stdin in COMMANDS:
            before = _snapshot(workdir)
            code, out, err = _run(shlex.split(argv), stdin)
            after = _snapshot(workdir)
            records[cid] = {
                "argv": argv,
                "exit": code,
                "stdout": _digest(out),
                "stderr": _digest(err),
                "files": {path: digest for path, digest in after.items()
                          if before.get(path) != digest},
            }
    finally:
        os.chdir(cwd)
    return records


@pytest.fixture(scope="module")
def records(tmp_path_factory):
    return run_all(tmp_path_factory.mktemp("golden"))


@pytest.fixture(scope="module")
def golden():
    return json.loads(GOLDEN.read_text())


def test_golden_lists_every_command(golden):
    assert list(golden) == [cid for cid, _, _ in COMMANDS]


@pytest.mark.parametrize("cid", [cid for cid, _, _ in COMMANDS])
def test_golden_output(records, golden, cid):
    assert records[cid] == golden[cid]


if __name__ == "__main__":
    with tempfile.TemporaryDirectory(prefix="sspkit-golden-") as tmp:
        result = run_all(Path(tmp))
    GOLDEN.write_text(json.dumps(result, indent=1) + "\n")
    print(f"wrote {len(result)} records to {GOLDEN}")
