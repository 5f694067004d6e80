"""Golden outputs: each case in ``golden/cases.json`` runs through ``cli.main``.

A case is a command, extra flags and a config.  Its output must match
``golden/<case>.out`` and its config echo ``golden/<case>.echo.json`` (the
echo without its ``out`` path): every character outside numbers and every
integer exactly, every other number within 1e-12 relative.

Regenerate the files after an intended change of outputs with

    PYTHONPATH=src python3 tests/test_golden.py

Reruns are byte-identical on one numpy dispatch target; on a lower one (numpy
picks its SIMD kernels at run time) the cases must still match within the
tolerance, which one test checks in a subprocess with the higher targets off.
"""

import json
import math
import os
import re
import subprocess
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


def _check(name: str, tmp_path: Path):
    text, echo = _run(name, tmp_path)
    _assert_matches(text, (GOLDEN / f"{name}.out").read_text(), f"{name}.out")
    _assert_matches(echo, (GOLDEN / f"{name}.echo.json").read_text(), f"{name}.echo.json")


@pytest.mark.parametrize("name", sorted(CASES))
def test_output_matches_golden(name, tmp_path):
    _check(name, tmp_path)


def _cpu_dispatch() -> tuple:
    """numpy's run-time dispatched CPU features, lowest first, and which of them are on."""
    try:
        from numpy._core import _multiarray_umath as umath
    except ImportError:  # numpy < 2
        from numpy.core import _multiarray_umath as umath
    return umath.__cpu_dispatch__, umath.__cpu_features__


# every case, in a process whose numpy runs without the features named after the scratch
# directory; -W error makes numpy's ImportWarning for a name it does not know a failure
_LOWER_TARGET = """
import sys
from pathlib import Path
import test_golden as golden
_, features = golden._cpu_dispatch()
assert not any(features[name] for name in sys.argv[2:]), "numpy kept a disabled feature"
for name in sorted(golden.CASES):
    golden._check(name, Path(sys.argv[1]))
"""


def test_outputs_match_golden_on_a_lower_dispatch_target(tmp_path):
    dispatch, features = _cpu_dispatch()
    have = [name for name in dispatch if features.get(name)]
    if not have:
        pytest.skip("numpy dispatches no feature above its baseline on this CPU")
    disabled = have[1:] or have  # leave the lowest dispatched target, or only the baseline
    path = os.pathsep.join([str(GOLDEN.parents[1] / "src"), str(GOLDEN.parent),
                            os.environ.get("PYTHONPATH", "")])
    env = {**os.environ, "NPY_DISABLE_CPU_FEATURES": " ".join(disabled), "PYTHONPATH": path}
    run = subprocess.run([sys.executable, "-W", "error", "-c", _LOWER_TARGET, str(tmp_path),
                          *disabled], env=env, capture_output=True, text=True)
    assert run.returncode == 0, run.stderr


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
