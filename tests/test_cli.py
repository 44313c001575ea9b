import os
import subprocess
import sys
from pathlib import Path

import pytest

from gtsingular import cli, verify
from gtsingular.exactalg import CLASSICAL

SRC = Path(__file__).resolve().parents[1] / "src"


def test_findim_pass(capsys):
    assert cli.main(["findim", "2", "1", "0", "--classical"]) == 0
    out = capsys.readouterr().out
    assert out.startswith("[PASS] finite-dimensional: highest weight (2, 1, 0): basis 8")
    assert "(classical)" in out


def test_failing_check_exits_one(monkeypatch, capsys):
    # checks are resolved through verify at call time, so a rebinding there
    # is what the command runs
    def failing(system, **kwargs):
        assert system == CLASSICAL and kwargs == {"samples": 2}
        return verify.CheckReport("appendix-identities", "stub", None, False, "sample 0", 0.0)

    monkeypatch.setattr(verify, "check_appendix", failing)
    assert cli.main(["appendix", "--classical", "--samples", "2"]) == 1
    out = capsys.readouterr().out
    assert out.startswith("[FAIL] appendix-identities: stub")
    assert "counterexample: sample 0" in out


def test_usage_error():
    with pytest.raises(SystemExit) as exc:
        cli.main(["findim"])
    assert exc.value.code == 2


def test_bad_weight_is_a_usage_error(capsys):
    # a malformed weight exits 2, not 1, so a script can tell it from a FAIL
    with pytest.raises(SystemExit) as exc:
        cli.main(["findim", "0", "1"])
    assert exc.value.code == 2
    assert "weakly decreasing" in capsys.readouterr().err


@pytest.mark.parametrize("samples", ["0", "-3"])
def test_no_samples_is_a_usage_error(samples, capsys):
    # a check of no samples would pass vacuously
    with pytest.raises(SystemExit) as exc:
        cli.main(["appendix", "--samples", samples])
    assert exc.value.code == 2
    assert "samples must be at least 1" in capsys.readouterr().err


def test_python_m_gtsingular_runs_the_cli():
    # the console script needs an install; the package runs from source
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(filter(None, [str(SRC), env.get("PYTHONPATH")]))
    done = subprocess.run([sys.executable, "-m", "gtsingular", "findim", "2", "1", "0"],
                          capture_output=True, text=True, env=env, timeout=120)
    assert done.returncode == 0, done.stderr
    assert done.stdout.startswith("[PASS] finite-dimensional: highest weight (2, 1, 0)")
