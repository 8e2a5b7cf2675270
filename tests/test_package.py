import os
import shutil
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


# short real runs of each script, and a line that each prints
SCRIPT_RUNS = {
    "discover_operators.py": [("--samples dwork4 --count 12 --max-length 2 "
                               "--threads 1", "=== sample dwork4")],
    "reproduce_constant.py": [("--power 10 --threads 1", "polynomial:")],
    "bench_scaling.py": [("--case cross4_p5", '"result"')],
}


@pytest.mark.parametrize("script", sorted(SCRIPT_RUNS))
def test_scripts_run_from_any_directory(script, tmp_path):
    env = {k: v for k, v in os.environ.items() if k != "PYTHONPATH"}
    for args, line in [("--help", "usage:")] + SCRIPT_RUNS[script]:
        done = subprocess.run([sys.executable, str(ROOT / "scripts" / script),
                               *args.split()], cwd=tmp_path, env=env,
                              capture_output=True, text=True, timeout=120)
        assert done.returncode == 0, (args, done.stderr)
        assert line in done.stdout, (args, done.stdout)


def test_bench_scaling_stops_on_a_tree_outside_git(tmp_path):
    # a copy of src/ in no git checkout has no revision to record: the run
    # stops with one line naming it before any case runs, as --src or
    # --parent
    tree = tmp_path / "copy" / "src"
    shutil.copytree(ROOT / "src", tree,
                    ignore=shutil.ignore_patterns("__pycache__"))
    out = tmp_path / "BENCH.json"
    env = {k: v for k, v in os.environ.items() if k != "PYTHONPATH"}
    for flag in ("--src", "--parent"):
        done = subprocess.run(
            [sys.executable, str(ROOT / "scripts" / "bench_scaling.py"),
             "--json", str(out), flag, str(tree)], cwd=tmp_path, env=env,
            capture_output=True, text=True, timeout=60)
        assert done.returncode != 0, flag
        assert done.stderr.splitlines() == [
            f"{tree} is not in a git checkout: its revision is unknown"], flag
        assert done.stdout == "" and not out.exists(), flag


def _fresh_import(**env_vars):
    """OPENBLAS_NUM_THREADS after `import ctpow` in a fresh interpreter, and
    the process's thread count (1 off Linux, where it is not read)."""
    env = {k: v for k, v in os.environ.items()
           if k not in ("PYTHONPATH", "OPENBLAS_NUM_THREADS")}
    env.update(env_vars, PYTHONPATH=str(ROOT / "src"))
    code = ("import os, sys, ctpow; print(os.environ.get("
            "'OPENBLAS_NUM_THREADS'), len(os.listdir('/proc/self/task')) "
            "if sys.platform == 'linux' else 1)")
    done = subprocess.run([sys.executable, "-c", code], env=env,
                          capture_output=True, text=True, timeout=120)
    assert done.returncode == 0, done.stderr
    value, threads = done.stdout.split()
    return value, int(threads)


def test_import_starts_no_blas_threads_and_restores_the_environment():
    assert _fresh_import() == ("None", 1)
    assert _fresh_import(OPENBLAS_NUM_THREADS="2")[0] == "2"


def test_import_loads_no_reference_engine():
    # the pipeline runs the torus engine: the Vandermonde reference engine,
    # its rows and their exact Fractions load only when asked for
    env = {k: v for k, v in os.environ.items() if k != "PYTHONPATH"}
    env["PYTHONPATH"] = str(ROOT / "src")
    code = ("import sys, ctpow; print(sorted({'ctpow.engine', 'ctpow.interp', "
            "'fractions'} & set(sys.modules)))")
    done = subprocess.run([sys.executable, "-c", code], env=env,
                          capture_output=True, text=True, timeout=120)
    assert done.returncode == 0, done.stderr
    assert done.stdout.strip() == "[]"
