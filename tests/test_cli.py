import io
import json
import math
import os
import random
import subprocess
import sys
import tracemalloc
from pathlib import Path
from unittest import mock

import pytest

from ctpow import recurrence
from ctpow.cli import build_parser, main
from ctpow.oracle import known_family


def run(capsys, *argv):
    code = main(list(argv))
    captured = capsys.readouterr()
    return code, captured.out, captured.err


def test_coeff_fixture(capsys):
    code, out, _ = run(capsys, "coeff", "--fixture", "39", "--power", "2")
    assert code == 0
    assert out.strip() == "20"


def test_coeff_expr_file(tmp_path, capsys):
    f = tmp_path / "h.txt"
    f.write_text("X + X^-1\n")
    code, out, _ = run(capsys, "coeff", "--poly", str(f), "--power", "6")
    assert (code, out.strip()) == (0, "20")
    code, out, _ = run(capsys, "coeff", "--poly", str(f), "--power", "7")
    assert (code, out.strip()) == (0, "0")


def test_coeff_with_index(tmp_path, capsys):
    f = tmp_path / "g.txt"
    f.write_text("2*X - 3")
    code, out, _ = run(capsys, "coeff", "--poly", str(f), "--power", "3",
                       "--index", "2")
    assert (code, out.strip()) == (0, "-36")


def test_coeff_json_input_sniffed(tmp_path, capsys):
    f = tmp_path / "h.json"
    f.write_text(json.dumps({
        "variables": ["X"],
        "terms": [{"c": "1", "e": [1]}, {"c": "1", "e": [-1]}],
    }))
    code, out, _ = run(capsys, "coeff", "--poly", str(f), "--power", "6")
    assert (code, out.strip()) == (0, "20")
    # explicit format flag gives the same answer
    code, out, _ = run(capsys, "coeff", "--poly", str(f), "--power", "6",
                       "--format", "json")
    assert (code, out.strip()) == (0, "20")


def test_coeff_out_file(tmp_path, capsys):
    f = tmp_path / "h.txt"
    f.write_text("X + X^-1")
    dest = tmp_path / "answer.txt"
    code, out, _ = run(capsys, "coeff", "--poly", str(f), "--power", "6",
                       "--out", str(dest))
    assert code == 0
    assert out == ""
    assert dest.read_text() == "20\n"


def test_series_dwork(capsys):
    code, out, err = run(capsys, "series", "--fixture", "dwork4",
                         "--count", "10")
    assert code == 0
    obj = json.loads(out)
    assert obj["terms"][5] == "120"
    assert obj["terms"][10] == "113400"
    assert obj["poly"]["variables"] == ["X", "Y", "Z", "T"]
    assert err == ""


def test_series_negative_count_exits_3(capsys):
    code, out, err = run(capsys, "series", "--fixture", "dwork4",
                         "--count", "-2")
    assert code == 3
    assert out == ""
    assert "series length" in err


def test_series_monomial(tmp_path, capsys):
    f = tmp_path / "x.txt"
    f.write_text("X")
    code, out, _ = run(capsys, "series", "--poly", str(f), "--count", "3")
    assert code == 0
    assert json.loads(out)["terms"] == ["1", "0", "0", "0"]


def test_findop_central_binomial(tmp_path, capsys):
    terms = [str(known_family("central_binomial", p)) for p in range(16)]
    f = tmp_path / "s.json"
    f.write_text(json.dumps(terms))
    code, out, _ = run(capsys, "findop", str(f), "--max-length", "3",
                       "--max-degree", "2")
    assert code == 0
    assert "z^2" in out
    assert "-4*θ - 4" in out


def test_findop_no_hit(tmp_path, capsys):
    rng = random.Random(1)
    f = tmp_path / "noise.json"
    f.write_text(json.dumps([str(rng.randint(1, 10 ** 9)) for _ in range(20)]))
    code, out, _ = run(capsys, "findop", str(f), "--max-length", "2",
                       "--max-degree", "2")
    assert code == 0
    assert out.strip() == "no operator found"


def test_oracle_command(capsys):
    code, out, _ = run(capsys, "oracle", "--fixture", "dwork4", "--power", "5")
    assert (code, out.strip()) == (0, "120")


def test_oracle_refuses_huge_power(capsys):
    code, _, err = run(capsys, "oracle", "--fixture", "39", "--power", "151")
    assert code == 4
    assert "refused" in err


def test_oracle_refuses_a_huge_sparse_table_before_building_it(tmp_path,
                                                               capsys):
    f = tmp_path / "h.txt"
    f.write_text("X^4000*Y^4000 + X^-1 + Y^-1")   # 16016004 entries
    tracemalloc.start()
    try:
        code, _, err = run(capsys, "oracle", "--poly", str(f), "--power", "1")
        refused_peak = tracemalloc.get_traced_memory()[1]
        tracemalloc.reset_peak()
        assert run(capsys, "oracle", "--poly", str(f), "--power", "0")[:2] \
            == (0, "1\n")
        peak = max(refused_peak, tracemalloc.get_traced_memory()[1])
    finally:
        tracemalloc.stop()
    assert peak < 16 << 20        # no dense table, refused or at p = 0
    assert code == 4
    assert "refused" in err and "Traceback" not in err


def test_coeff_refuses_a_huge_sparse_tensor(tmp_path, capsys):
    f = tmp_path / "h.txt"
    f.write_text("X^30000*Y^30000 + X^-1 + Y^-1")
    tracemalloc.start()
    try:
        code, _, err = run(capsys, "coeff", "--poly", str(f), "--power", "2")
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak < 16 << 20        # refused before the dense tensor exists
    assert code == 3
    assert "exceeds" in err and "Traceback" not in err


def test_coeff_prints_results_of_any_size(tmp_path, capsys):
    # (2^20 X + 1/X)^1440 has constant term C(1440, 720) 2^14400, 4767
    # digits: more than str() converts under Python's default limit
    f = tmp_path / "h.txt"
    f.write_text("1048576*X + X^-1")
    code, out, err = run(capsys, "coeff", "--poly", str(f), "--power",
                         "1440", "--threads", "1")
    assert (code, err) == (0, "")
    limit = sys.get_int_max_str_digits()
    sys.set_int_max_str_digits(0)
    try:
        want = str(math.comb(1440, 720) * 2 ** 14400)
    finally:
        sys.set_int_max_str_digits(limit)
    assert len(want) == 4767 and out == want + "\n"


def test_integer_literals_past_the_digit_limit_exit_3(tmp_path, capsys):
    f = tmp_path / "h.txt"
    f.write_text("X + " + "7" * 5000 + "*Y")
    code, out, err = run(capsys, "coeff", "--poly", str(f), "--power", "2")
    assert (code, out) == (3, "")
    assert "limit (4300 digits)" in err and "Traceback" not in err


def test_missing_poly_file(capsys):
    code, _, err = run(capsys, "coeff", "--poly", "/nonexistent/h.txt",
                       "--power", "2")
    assert code == 3
    assert "error:" in err


def test_json_whose_terms_are_not_a_list_exits_3(tmp_path, capsys):
    f = tmp_path / "f.json"
    for obj in ({"variables": ["X"], "terms": 3}, {"terms": 5},
                {"terms": None}):
        f.write_text(json.dumps(obj))
        argv = (("coeff", "--poly", str(f), "--power", "2") if "variables"
                in obj else ("findop", str(f)))
        code, _, err = run(capsys, *argv)
        assert code == 3
        assert "'terms' list" in err and "Traceback" not in err


def test_bad_index(tmp_path, capsys):
    f = tmp_path / "h.txt"
    f.write_text("X + Y")
    code, _, err = run(capsys, "coeff", "--poly", str(f), "--power", "2",
                       "--index", "1,zap")
    assert code == 3
    assert "bad index" in err


def test_bench_refuses_a_negative_power(capsys):
    for power in ("-3", "2,-3"):
        code, out, err = run(capsys, "bench", "--fixture", "dwork4",
                             "--power", power)
        assert (code, out) == (3, "")
        assert "error: negative power" in err and "Traceback" not in err


def test_bench_bad_power_list(capsys):
    code, out, err = run(capsys, "bench", "--fixture", "dwork4",
                         "--power", "2,x")
    assert (code, out) == (3, "")
    assert err == "error: bad powers '2,x'; expected P1,P2,...\n"


def test_options_a_subcommand_does_not_read_are_usage_errors(tmp_path,
                                                              capsys):
    f = tmp_path / "s.json"
    f.write_text("[1, 2, 3]")
    for argv in (("findop", str(f), "--threads", "2"),
                 ("selftest", "--prime-bits", "31"),
                 ("oracle", "--fixture", "dwork4", "--power", "2",
                  "--threads", "1")):
        with pytest.raises(SystemExit) as exc:
            main(list(argv))
        assert exc.value.code == 2, argv
    capsys.readouterr()


def test_usage_errors_exit_2(capsys):
    with pytest.raises(SystemExit) as exc:
        main([])
    assert exc.value.code == 2
    with pytest.raises(SystemExit) as exc:
        main(["coeff", "--fixture", "nope", "--power", "2"])
    assert exc.value.code == 2
    capsys.readouterr()


def _two_cpus(monkeypatch):
    # --threads 2 forks a second row block on any host and for any work:
    # the CPU count and the predicted work cap the threads
    monkeypatch.setattr(os, "sched_getaffinity", lambda pid: {0, 1},
                        raising=False)
    monkeypatch.setattr(recurrence, "_WORK_PER_WORKER", 1)


def test_threads_do_not_change_output(capsys, monkeypatch):
    _two_cpus(monkeypatch)
    outs = []
    for t in ("1", "2"):
        code, out, _ = run(capsys, "coeff", "--fixture", "39", "--power", "3",
                           "--threads", t)
        assert code == 0
        outs.append(out)
    assert outs[0] == outs[1]


def test_selftest(capsys):
    code, out, _ = run(capsys, "selftest")
    assert code == 0
    assert "selftest: ok" in out


def test_bench(capsys):
    code, out, _ = run(capsys, "bench", "--fixture", "dwork4",
                       "--power", "2,3")
    assert code == 0
    assert out.count("agree=yes") == 2
    assert "p=2" in out and "p=3" in out


def test_bench_prints_the_plan(capsys):
    code, out, _ = run(capsys, "bench", "--fixture", "39", "--power", "10",
                       "--threads", "1")
    assert code == 0
    assert ("plan p=10: U=yes inner=(1, 0, 1, -1) M=11 |H|=6 "
            "points=231/1331") in out
    assert " work=8436 workers=1\n" in out
    code, out, _ = run(capsys, "bench", "--fixture", "dwork4", "--power", "5",
                       "--threads", "1")
    assert "plan p=5: U=no inner=T M=6 |H|=6 points=56/216" in out


def test_bench_reports_the_prime_budget(capsys):
    # a_34 of sample 39 is at most 23^34: five primes 1 (mod 35) multiply
    # past 2 * 23^34 = 2^154.80, and a_34 itself has 142 bits
    code, out, _ = run(capsys, "bench", "--fixture", "39", "--power", "34",
                       "--threads", "1")
    assert code == 0
    assert "primes=5 bound=154.80 bits product=155.00 bits" in out
    assert "p=34 engine=3211309377627488368871951072460527618304240 " \
        "bits=142 " in out


def test_a_closed_stdout_exits_141_without_an_error_line(capsys):
    class Closed(io.StringIO):                 # its reader has gone
        def write(self, text):
            raise BrokenPipeError(32, "Broken pipe")

    with mock.patch.object(sys, "stdout", Closed()):
        code = main(["series", "--fixture", "39", "--count", "3",
                     "--threads", "1"])
    assert (code, capsys.readouterr().err) == (141, "")
    # a real pipe closed before the write, and no error at exit either:
    # block-buffered, a short result meets the closed pipe only in a flush
    env = {k: v for k, v in os.environ.items() if k != "PYTHONUNBUFFERED"}
    env["PYTHONPATH"] = str(Path(__file__).parents[1] / "src")
    proc = subprocess.Popen(
        [sys.executable, "-m", "ctpow", "coeff", "--fixture", "39", "--power",
         "20", "--threads", "1"], env=env, stdout=subprocess.PIPE,
        stderr=subprocess.PIPE)
    proc.stdout.close()
    assert (proc.wait(timeout=60), proc.stderr.read()) == (141, b"")
    proc.stderr.close()


def test_parser_help_lists_subcommands():
    parser = build_parser()
    text = parser.format_help()
    for name in ("coeff", "series", "findop", "bench", "oracle", "selftest"):
        assert name in text


def test_coeff_and_series_of_a_constant(tmp_path, capsys):
    f = tmp_path / "c.txt"
    f.write_text("5")
    code, out, err = run(capsys, "coeff", "--poly", str(f), "--power", "3")
    assert (code, out.strip(), err) == (0, "125", "")
    code, out, _ = run(capsys, "series", "--poly", str(f), "--count", "3")
    assert code == 0
    assert json.loads(out)["terms"] == ["1", "5", "25", "125"]


def test_engine_error_exits_3(monkeypatch, capsys):
    import ctpow.cli
    from ctpow.engine import EngineError

    def fail(*args, **kwargs):
        raise EngineError("modulus too small")

    monkeypatch.setattr(ctpow.cli, "exact_coefficient", fail)
    code, _, err = run(capsys, "coeff", "--fixture", "39", "--power", "2")
    assert code == 3
    assert err.startswith("error: modulus too small")


def test_out_of_memory_exits_4(monkeypatch, capsys):
    import ctpow.torus

    def fail(*args, **kwargs):
        raise MemoryError("Unable to allocate 2.40 GiB for an array")

    # the caller sums the only row block itself
    monkeypatch.setattr(ctpow.torus, "coefficient_residues", fail)
    code, out, err = run(capsys, "coeff", "--fixture", "39", "--power", "4",
                         "--threads", "1")
    assert (code, out) == (4, "")
    assert err == ("error: out of memory: "
                   "Unable to allocate 2.40 GiB for an array\n")


@pytest.mark.skipif(sys.platform != "linux",
                    reason="row blocks run in forked workers only on Linux")
def test_dead_worker_exits_5(monkeypatch, capsys):
    import ctpow.torus
    caller, real = os.getpid(), ctpow.torus.coefficient_residues
    _two_cpus(monkeypatch)

    def _die(tp, primes, rows=None):
        # the caller sums block 0 itself; only a forked worker dies
        if os.getpid() != caller:
            os._exit(1)
        return real(tp, primes, rows)

    monkeypatch.setattr(ctpow.torus, "coefficient_residues", _die)
    code, out, err = run(capsys, "coeff", "--fixture", "39", "--power", "4",
                         "--threads", "2")
    assert code == 5
    assert out == ""
    assert "worker failed" in err
    assert "Traceback" not in err


@pytest.mark.skipif(sys.platform != "linux",
                    reason="row blocks run in forked workers only on Linux")
def test_a_dead_series_worker_exits_5_with_one_error_line(monkeypatch,
                                                         capsys):
    import ctpow.torus
    real = ctpow.torus.series_residues
    _two_cpus(monkeypatch)

    def _die(tp, primes, rows=None):
        if rows.start == 1:           # the forked worker of block 2
            os._exit(3)
        return real(tp, primes, rows)

    monkeypatch.setattr(ctpow.torus, "series_residues", _die)
    code, out, err = run(capsys, "series", "--fixture", "39", "--count",
                         "10", "--threads", "2")
    assert (code, out) == (5, "")
    assert err == ("error: worker failed: row block 2 of 2 sent 0 of 176 "
                   "bytes\n")
    # a later error is one line too
    code, _, err = run(capsys, "bench", "--fixture", "39", "--power", "-3")
    assert (code, err) == (3, "error: negative power\n")
