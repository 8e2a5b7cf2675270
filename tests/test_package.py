import os
import subprocess
import sys
from pathlib import Path

import pytest

import ctpow

ROOT = Path(__file__).resolve().parents[1]

# the names the README's examples import from the package root
README_NAMES = {"parse_laurent", "exact_coefficient", "constant_term_series",
                "search_recurrence", "recurrence_to_operator"}
# the names ctbench/cold.py and ctbench/workloads.py read as ctpow.<name>
CTBENCH_NAMES = {"parse_laurent", "sample_polynomial", "naive_power_coeff",
                 "operator_to_recurrence", "sample_operator",
                 "verify_recurrence", "make_recurrence"}


def test_root_exports_what_the_readme_and_ctbench_use():
    assert sorted(ctpow.__all__) == sorted(README_NAMES | CTBENCH_NAMES)
    for name in ctpow.__all__:
        assert callable(getattr(ctpow, name)), name
    assert CTBENCH_NAMES <= set(ctpow.__all__)
    assert isinstance(ctpow.__version__, str)


def test_submodules_import_from_the_root():
    from ctpow import engine, interp, recurrence
    assert callable(engine.coefficient_mod_prime)
    assert callable(interp.inverse_vandermonde_row)
    assert callable(recurrence.exact_coefficient)


@pytest.mark.parametrize("script", ["discover_operators.py",
                                    "reproduce_constant.py"])
def test_scripts_run_from_any_directory(script, tmp_path):
    env = {k: v for k, v in os.environ.items() if k != "PYTHONPATH"}
    done = subprocess.run([sys.executable, str(ROOT / "scripts" / script),
                           "--help"], cwd=tmp_path, env=env,
                          capture_output=True, text=True, timeout=120)
    assert done.returncode == 0, done.stderr
    assert "usage:" in done.stdout
