"""Golden CLI transcript: every command in tests/golden/commands.json is
replayed through ``cli.main`` and its exit code, stdout and stderr must match
the recorded ones byte for byte.  The usage errors that argparse reports
itself are recorded as Python 3.11 words them.

Golden classification table: tests/golden/classification.json holds, for
every pair with 1 <= n <= 12, its components, each eliminated orbit with its
reduction target or witness lengths, and its unresolved orbits;
``classify_components`` must reproduce it.

Golden realization digest: the sha256 of one line per candidate diagram of
every pair with n <= 8 (8,668 of them), naming what ``oracle.realize`` gave:
the error class and message of a rejection, or the sorted sparse maps,
partners and alphas of a realization; the alphas, listed for AII only, are +1
for a row whose partner comes after it and -1 otherwise.

Regenerate the recorded outputs and the table (only after checking that a
change of output is intended) with:

    PYTHONPATH=src python tests/test_golden.py --update
"""

import hashlib
import io
import json
import os
import sys
from contextlib import redirect_stderr, redirect_stdout
from pathlib import Path

import pytest

from nilcomm.cli import main
from nilcomm.components import classify_components
from nilcomm.diagrams import PairType, pairs_of_size
from nilcomm.errors import NilcommError
from nilcomm.oracle import realize
from partition_reference import candidates

GOLDEN = Path(__file__).parent / "golden"
CASES = json.loads((GOLDEN / "commands.json").read_text(encoding="utf-8"))
TABLE = GOLDEN / "classification.json"


def _replay(argv):
    out, err = io.StringIO(), io.StringIO()
    with redirect_stdout(out), redirect_stderr(err):
        code = main(list(argv))
    return code, out.getvalue(), err.getvalue()


def _recorded(name, stream):
    path = GOLDEN / f"{name}.{stream}"
    return path.read_text(encoding="utf-8") if path.exists() else ""


@pytest.mark.parametrize("case", CASES, ids=[c["name"] for c in CASES])
def test_golden_transcript(case, monkeypatch):
    # argparse wraps its usage lines at the terminal width
    monkeypatch.setenv("COLUMNS", "80")
    monkeypatch.delenv("NILCOMM_CONFIG", raising=False)
    code, out, err = _replay(case["argv"])
    assert code == case["exit"]
    assert out == _recorded(case["name"], "stdout")
    assert err == _recorded(case["name"], "stderr")


def _classification_table():
    """One line per pair: [type, n, signature or None, components,
    eliminated as [orbit, reduction target or witness lengths], unresolved]."""
    lines = []
    for n in range(1, 13):
        for pair_type, params in pairs_of_size(n):
            report = classify_components(pair_type, params)
            lines.append([
                pair_type.value, n, params.signature and list(params.signature),
                [c.diagram.text() for c in report.components],
                [[c.diagram.text(), c.reduction_target.text() if c.reduction_target
                  else list(c.witness_lengths)] for c in report.eliminated],
                [c.diagram.text() for c in report.unresolved],
            ])
    return "[\n" + ",\n".join(json.dumps(line, separators=(",", ":")) for line in lines) + "\n]\n"


def test_golden_classification_table():
    assert _classification_table() == TABLE.read_text(encoding="utf-8")


REALIZATION_DIGEST = "68929b735b9ebf18e82946f4dbc193368f9be57ce16ad0fdc20c20041796dd91"


def _realization_listing():
    lines = []
    for n in range(9):
        for pair_type, params in pairs_of_size(n):
            for diagram in candidates(pair_type, n):
                head = f"{pair_type.value} {params} {diagram.text()!r}: "
                try:
                    real = realize(diagram, pair_type, params)
                except NilcommError as exc:
                    lines.append(head + f"{type(exc).__name__}: {exc}")
                    continue
                maps = [None if m is None else sorted(m.items())
                        for m in (real.e_map, real.h_map, real.f_map, real.t_map, real.d_map)]
                alphas = (tuple(1 if j > i else -1 for i, j in enumerate(real.partners))
                          if pair_type is PairType.AII else None)
                lines.append(head + repr((maps, real.partners, alphas)))
    return lines


def test_golden_realization_digest():
    lines = _realization_listing()
    assert len(lines) == 8668
    assert hashlib.sha256("\n".join(lines).encode()).hexdigest() == REALIZATION_DIGEST


def _update():
    os.environ["COLUMNS"] = "80"
    os.environ.pop("NILCOMM_CONFIG", None)
    for case in CASES:
        code, out, err = _replay(case["argv"])
        case["exit"] = code
        for stream, text in (("stdout", out), ("stderr", err)):
            path = GOLDEN / f"{case['name']}.{stream}"
            if text:
                path.write_text(text, encoding="utf-8")
            elif path.exists():
                path.unlink()
    text = "[\n" + ",\n".join(json.dumps(case) for case in CASES) + "\n]\n"
    (GOLDEN / "commands.json").write_text(text, encoding="utf-8")
    TABLE.write_text(_classification_table(), encoding="utf-8")


if __name__ == "__main__":
    if sys.argv[1:] != ["--update"]:
        sys.exit("usage: python tests/test_golden.py --update")
    _update()
