import json
import math
import multiprocessing
import os
import random

import pytest

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
    assert "series:" in err  # progress goes to stderr


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


def test_missing_poly_file(capsys):
    code, _, err = run(capsys, "coeff", "--poly", "/nonexistent/h.txt",
                       "--power", "2")
    assert code == 3
    assert "error:" in err


def test_bad_index(tmp_path, capsys):
    f = tmp_path / "h.txt"
    f.write_text("X + Y")
    code, _, err = run(capsys, "coeff", "--poly", str(f), "--power", "2",
                       "--index", "1,zap")
    assert code == 3
    assert "bad index" in err


def test_bad_prime_bits(capsys):
    code, _, err = run(capsys, "coeff", "--fixture", "39", "--power", "2",
                       "--prime-bits", "50")
    assert code == 3
    assert "prime_bits" in err


def test_usage_errors_exit_2(capsys):
    with pytest.raises(SystemExit) as exc:
        main([])
    assert exc.value.code == 2
    with pytest.raises(SystemExit) as exc:
        main(["coeff", "--fixture", "nope", "--power", "2"])
    assert exc.value.code == 2
    capsys.readouterr()


def test_threads_do_not_change_output(capsys):
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


def _die(*args, **kwargs):
    os._exit(1)


@pytest.mark.skipif(multiprocessing.get_start_method() != "fork",
                    reason="forked workers are needed to see the patched engine")
def test_dead_worker_exits_5(monkeypatch, capsys):
    import ctpow.torus
    monkeypatch.setattr(ctpow.torus, "coefficient_residues", _die)
    code, out, err = run(capsys, "coeff", "--fixture", "39", "--power", "4",
                         "--threads", "2")
    assert code == 5
    assert out == ""
    assert "worker failed" in err
    assert "Traceback" not in err
