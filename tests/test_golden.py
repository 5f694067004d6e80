"""Golden outputs: each case in ``golden/cases.json`` runs through ``cli.main``.

A case is a command, extra flags and a config.  Its output must match
``golden/<case>.out`` and its config echo ``golden/<case>.echo.json`` (the
echo without its ``out`` path): every character outside numbers and every
integer exactly, every other number within 1e-12 relative.

Regenerate the files after an intended change of outputs with

    PYTHONPATH=src python3 tests/test_golden.py
"""

import json
import math
import re
import sys
from pathlib import Path

import pytest

from hvi.cli import main as cli_main

GOLDEN = Path(__file__).resolve().parent / "golden"
CASES = json.loads((GOLDEN / "cases.json").read_text())

# an optionally signed decimal number, with an optional exponent
_NUMBER = re.compile(r"(-?\d+(?:\.\d*)?(?:[eE][-+]?\d+)?)")


def _run(name: str, tmp_path: Path) -> tuple[str, str]:
    """(output, echo without its out path) of one case."""
    case = CASES[name]
    config, out = tmp_path / f"{name}.json", tmp_path / f"{name}.out"
    config.write_text(json.dumps(case["config"]))
    code = cli_main([case["command"], "--config", str(config), "--out", str(out),
                     *case.get("args", [])])
    assert code == 0, name
    echo = json.loads(Path(f"{out}.config.json").read_text())
    echo.pop("out")
    return out.read_text(), json.dumps(echo, indent=2, sort_keys=True) + "\n"


def _assert_matches(got: str, want: str, what: str):
    got_parts, want_parts = _NUMBER.split(got), _NUMBER.split(want)
    assert len(got_parts) == len(want_parts), f"{what}: different structure"
    # odd parts are numbers, even parts the text between them
    for k, (a, b) in enumerate(zip(got_parts, want_parts)):
        if k % 2 == 0 or not re.search(r"[.eE]", b):
            assert a == b, f"{what}: {a!r} != {b!r}"
        else:
            assert math.isclose(float(a), float(b), rel_tol=1e-12, abs_tol=0.0), \
                f"{what}: {a} != {b}"


@pytest.mark.parametrize("name", sorted(CASES))
def test_output_matches_golden(name, tmp_path):
    text, echo = _run(name, tmp_path)
    _assert_matches(text, (GOLDEN / f"{name}.out").read_text(), f"{name}.out")
    _assert_matches(echo, (GOLDEN / f"{name}.echo.json").read_text(), f"{name}.echo.json")


def test_the_comparison_tolerates_rounding_only():
    _assert_matches("a,1.0000000000001e-3,7\n", "a,1e-3,7\n", "rounding")
    for got in ("a,1.00000001e-3,7\n", "a,1e-3,8\n", "b,1e-3,7\n", "a,1e-3,7,1\n"):
        with pytest.raises(AssertionError):
            _assert_matches(got, "a,1e-3,7\n", "changed")


if __name__ == "__main__":
    import tempfile

    with tempfile.TemporaryDirectory() as scratch:
        for case in sorted(CASES):
            text, echo = _run(case, Path(scratch))
            (GOLDEN / f"{case}.out").write_text(text)
            (GOLDEN / f"{case}.echo.json").write_text(echo)
            print(f"wrote {case}", file=sys.stderr)
