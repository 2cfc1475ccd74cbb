"""Command line behavior: exit codes, JSON schema, determinism."""

import dataclasses
import io
import json
import threading
from contextlib import redirect_stderr, redirect_stdout

import printer_oracle
import pytest
from child import run_child
from hypothesis import given, settings, strategies as st

from csplab import cli, perms, qpoly, sieve, tableaux
from csplab.errors import CspLabError


def run(capsys, *argv):
    code = cli.main(list(argv))
    out, err = capsys.readouterr()
    return code, out, err


def test_verify_pass(capsys):
    code, out, _ = run(capsys, "verify", "multiset", "--n", "3", "--k", "2")
    assert code == 0
    assert "verdict: PASS" in out
    assert "1+q+2q^2+q^3+q^4" in out
    assert out.count("yes") == 3


def test_verify_corrupt_fails(capsys):
    code, out, _ = run(
        capsys, "verify", "multiset", "--n", "3", "--k", "2", "--corrupt-coeff", "2"
    )
    assert code == 1
    assert "NO" in out


def test_verify_trivial(capsys):
    code, out, _ = run(capsys, "verify", "ncp", "--n", "1")
    assert code == 0


def test_exit_code_usage_errors(capsys):
    assert run(capsys, "verify", "subset", "--n", "5", "--k", "2",
               "--gen", "(1,2,4)(3,5)")[0] == 2
    assert run(capsys, "verify", "multiset", "--n", "6", "--k", "3", "--cap", "5")[0] == 2
    assert run(capsys, "verify", "proper_triangulation", "--n", "3")[0] == 2
    with pytest.raises(SystemExit) as exc:
        cli.main(["verify", "unknown_family", "--n", "3"])
    assert exc.value.code == 2


def test_missing_parameter_is_usage_error(capsys):
    code, _, err = run(capsys, "verify", "multiset")
    assert code == 2
    assert "needs parameter" in err
    code, _, err = run(capsys, "verify", "conj_class")
    assert code == 2
    code, _, err = run(capsys, "orbits", "plethysm_derived", "--k", "2")
    assert code == 2


def test_json_roundtrip(capsys):
    code, out, _ = run(capsys, "verify", "multiset", "--n", "3", "--k", "2", "--json")
    assert code == 0
    report = json.loads(out)
    assert report == json.loads(json.dumps(report))
    assert set(report) == {
        "family", "params", "size", "order", "rows", "orbits", "a", "verdict",
    }
    assert report["rows"][1] == {
        "j": 1, "elem_order": 3, "fixed": 0, "eval": 0, "match": True,
    }
    assert report["verdict"] == "pass"


def test_json_and_text_verdicts_agree(capsys):
    for extra in ([], ["--corrupt-coeff", "0"]):
        code_t, out_t, _ = run(capsys, "verify", "subset", "--n", "4", "--k", "2", *extra)
        code_j, out_j, _ = run(
            capsys, "verify", "subset", "--n", "4", "--k", "2", "--json", *extra
        )
        assert code_t == code_j
        verdict = json.loads(out_j)["verdict"]
        assert verdict.upper() in out_t


def test_checker_selection(capsys):
    for checker in ("roots", "orbits", "both"):
        code, _, _ = run(
            capsys, "verify", "ncm", "--n", "3", "--checker", checker
        )
        assert code == 0


def test_out_file(tmp_path, capsys):
    path = tmp_path / "report.json"
    code, _, _ = run(
        capsys, "verify", "triangulation", "--n", "3", "--json", "--out", str(path)
    )
    assert code == 0
    report = json.loads(path.read_text())
    assert report["size"] == 5
    assert report["orbits"] == [{"size": 5, "stab": 1}]


def test_orbits_command(capsys):
    code, out, _ = run(capsys, "orbits", "multiset", "--n", "3", "--k", "2")
    assert code == 0
    assert "a: [2, 2, 2]" in out
    assert "11 22 33" in out.replace("  ", " ")
    code, out, _ = run(capsys, "orbits", "syt_rect", "--m", "2", "--n", "3")
    assert code == 0
    assert "123/456" in out
    code, out, _ = run(capsys, "orbits", "subset", "--n", "4", "--k", "2", "--json")
    payload = json.loads(out)
    assert sorted(o["size"] for o in payload["orbits"]) == [2, 4]
    assert payload["a"] == [2, 1, 2, 1]


def _instance(argv):
    """The instance that ``verify`` or ``orbits`` reads off ``family --flag value ...``."""
    family, *flags = argv
    return sieve.registry_instantiate(family, dict(zip((f[2:] for f in flags[::2]), flags[1::2])))


@pytest.mark.parametrize("argv", [
    # labels holding "|", "," and "-"
    ("ncp", "--n", "5"), ("ncm", "--n", "5"), ("triangulation", "--n", "6"),
    ("proper_triangulation", "--n", "6"),
    # params holding a list
    ("conj_class", "--lam", "2,2,1"),
    ("subset", "--n", "6", "--k", "3", "--gen", "(1,2,3)(4,5,6)"),
    # no orbits at all
    ("subset", "--n", "4", "--k", "9"),
])
def test_orbits_json_is_the_whole_dict_printer(argv):
    """Joining the C encoder's pieces prints, byte for byte, what
    ``json.dumps`` with an indent printed of the whole dict."""
    expected = printer_oracle.orbits_json(_instance(argv))
    assert call(["orbits", *argv, "--json"]) == (0, expected + "\n", "")


@pytest.mark.parametrize("argv", [
    ("cycle", "--n", "12"), ("cycle", "--n", "1"), ("ncp", "--n", "6"),
    ("conj_class", "--lam", "2,2"), ("subset", "--n", "4", "--k", "9"),
    ("subset", "--n", "6", "--k", "2", "--gen", "(1,2)(3,4)(5,6)"),
    ("multiset", "--n", "4", "--k", "3"), ("syt_rect", "--m", "2", "--n", "3"),
])
@pytest.mark.parametrize("checker", ["roots", "orbits", "both"])
@pytest.mark.parametrize("corrupt", [None, 2])
def test_verify_json_reads_back_as_the_library_dict(argv, checker, corrupt):
    """The CLI's JSON text and ``CSPReport.to_dict`` cannot drift apart."""
    inst, extra = _instance(argv), ["--checker", checker]
    if corrupt is not None:
        extra += ["--corrupt-coeff", str(corrupt)]
        inst = dataclasses.replace(inst, polynomial=sieve.corrupt_polynomial(inst.polynomial,
                                                                             corrupt))
    report = sieve.build_report(inst, checker)
    code, out, err = call(["verify", *argv, *extra, "--json"])
    assert (code, err) == (0 if report.verdict == "pass" else 1, "")
    # read back through JSON, where the tuple of a partition is a list
    assert json.loads(out) == json.loads(json.dumps(report.to_dict()))


def test_poly_command(capsys):
    code, out, _ = run(capsys, "poly", "qbinom", "4", "2")
    assert code == 0
    assert out.splitlines()[0] == "1+q+2q^2+q^3+q^4"
    code, out, _ = run(capsys, "poly", "eulerian", "4")
    assert out.splitlines()[0] == "1+11q+11q^2+q^3"
    code, out, _ = run(capsys, "poly", "qcatalan", "0")
    assert out.splitlines()[0] == "1"
    assert run(capsys, "poly", "qbinom", "4")[0] == 2


HUGE = "1" + "0" * 4299  # the most digits Python converts to an int by default


@pytest.mark.parametrize("argv,code", [
    # proper_count(14) = 992,256 is over the default cap: refused before any work
    (("verify", "proper_triangulation", "--n", "14"), 2),
    # the recurrence, not the 60! permutations it counts
    (("poly", "eulerian", "60"), 0),
    # the dearest Phi_d that WORK_CAP admits up to 200,000: one q_ratio
    (("poly", "cyclotomic", "117390"), 0),
    # the order, a closed form, is checked before the size is computed
    (("verify", "ncp", "--n", "3000000"), 2),
    (("verify", "syt_rect", "--m", "300", "--n", "300"), 2),
    (("verify", "syt_rect", "--m", "1000", "--n", "1000"), 2),
    (("verify", "syt_rect", "--m", "101", "--n", "100"), 2),
    (("verify", "ncm", "--n", "10000"), 2),
    # neither (n,) * m nor the full cycle of [n] is built before its order
    # is checked; both ran out of memory, or raised OverflowError (exit 3)
    (("verify", "syt_rect", "--m", "1" + "0" * 20, "--n", "1"), 2),
    (("verify", "syt_rect", "--m", "1" + "0" * 2199, "--n", "1" + "0" * 2199), 2),
    (("verify", "subset", "--n", "1" + "0" * 12, "--k", "0"), 2),
    # C(n, k) is computed only until it passes the cap
    (("verify", "subset", "--n", "3000000", "--k", "1500000"), 2),
    (("verify", "multiset", "--n", "1500000", "--k", "1500000"), 2),
    # sizes too long to print, some beyond Python's int-to-str limit
    (("verify", "syt_rect", "--m", "100", "--n", "100"), 2),
    (("verify", "ncp", "--n", "10000"), 2),
    (("verify", "triangulation", "--n", "9998"), 2),
    (("verify", "triangulation", "--n", "5000"), 2),
    (("verify", "subset", "--n", "100000", "--k", "50000"), 2),
    # a k-set instance of size 0 or 1 bounds neither n nor k: both are checked
    # before the generator is parsed or anything is built (exit 3 before, on
    # MemoryError or OverflowError)
    (("verify", "subset", "--n", "1" + "0" * 12, "--k", "0", "--gen", "(1,2)"), 2),
    # the full cycle's order, before len() measures a range past sys.maxsize
    (("verify", "subset", "--n", "1" + "0" * 19, "--k", "0", "--cap", "1" + "0" * 19), 2),
    (("verify", "multiset", "--n", "1" + "0" * 19, "--k", "0", "--cap", "1" + "0" * 19), 2),
    (("verify", "subset", "--n", "5", "--k", "1" + "0" * 40), 2),
    (("verify", "multiset", "--n", "1", "--k", "1" + "0" * 40), 2),
    (("verify", "multiset", "--n", "1", "--k", "100000000"), 2),
    (("verify", "plethysm_derived", "--base", "cycle", "--n", "1", "--k", "100000000"), 2),
    (("verify", "plethysm_derived", "--base", "cycle", "--n", "1", "--k", "1" + "0" * 40,
      "--kind", "e"), 2),
    # a corrupted coefficient above the degree cap
    (("verify", "ncm", "--n", "1", "--corrupt-coeff", "100000000"), 2),
    (("verify", "cycle", "--n", "3", "--corrupt-coeff", "1" + "0" * 40), 2),
    # q_ratio counts a range of factors longer than len() can return
    (("poly", "qfact", "1" + "0" * 40), 2),
    (("poly", "qcatalan", "1" + "0" * 40), 2),
    (("poly", "qfuss", "1" + "0" * 40, "2"), 2),
    # 4,300-digit arguments: no cap message prints them or values built from
    # them (before: the int-to-str ValueError, or 8,600-character messages)
    (("poly", "propertri", HUGE), 2),
    (("poly", "qbinom", HUGE, "3"), 2),
    (("poly", "qfuss", "3", HUGE), 2),
    (("poly", "qint", HUGE), 2),
    (("poly", "eulerian", HUGE), 2),
    # the prime 2^61 - 1, far above 2 DEGREE_CAP^2: refused before trial
    # division, which would run for hours
    (("poly", "cyclotomic", str(2**61 - 1)), 2),
    # h_k past k = f(1) is priced before its recurrence runs (past 60 s before;
    # the second admitted by the raised size cap)
    (("verify", "plethysm_derived", "--base", "cycle", "--n", "2", "--k", "199999"), 2),
    (("verify", "plethysm_derived", "--base", "cycle", "--n", "3", "--k", "100000",
      "--cap", "10000000000"), 2),
    # a raised cap admits more orbits than a report can list: the count is
    # read off the histogram before the list of sizes is made (exit 3 before,
    # on MemoryError, after about 4 s)
    (("verify", "subset", "--n", "200", "--k", "100", "--cap", "1" + "0" * 60), 2),
    (("verify", "multiset", "--n", "840", "--k", "20", "--cap", "1" + "0" * 45), 2),
    (("verify", "subset", "--n", "2690", "--k", "3", "--cap", "10000000000"), 2),
    # a flat tableau is bytes: 256 cells are refused before any level is
    # built (exit 3 before, on MemoryError, after about 5 s)
    (("verify", "syt_rect", "--m", "2", "--n", "128", "--cap", "1" + "0" * 80), 2),
    # f's degree cap is checked before the orbits are counted, whose series
    # has k/2 terms under a generator of two cycle lengths (exit 3 before, on
    # MemoryError, after about 17 s under 2 GiB)
    (("verify", "multiset", "--n", "3", "--k", "100000000", "--gen", "(1,2)",
      "--cap", "1" + "0" * 19), 2),
])
def test_large_inputs_end_at_once(argv, code):
    done = run_child(argv, address_space=1 << 30)
    assert done.returncode == code, done.stderr
    if code == 2:
        _assert_one_short_cap_message(done)


LARGEST_JSON = ("verify", "subset", "--n", "2680", "--k", "3", "--cap", "10000000000", "--json")


@pytest.mark.parametrize("argv,address_space,last", [
    # 1,057,141 orbits
    (("verify", "subset", "--n", "2520", "--k", "3", "--cap", "10000000000"), 1 << 30,
     "verdict: PASS\n"),
    # 1,195,727 orbits, the most under ORBIT_LIST_CAP of the k = 3 subsets, as JSON
    (LARGEST_JSON, 1 << 30, '"verdict": "pass"\n}\n'),
    # the same in a quarter of the space: the report is joined from pieces
    # that each orbit length's text repeats (exit 3 with MemoryError before,
    # when json.dumps with an indent peaked at 943 MB)
    (LARGEST_JSON, 1 << 28, '"verdict": "pass"\n}\n'),
], ids=["text", "json", "json-256MiB"])
def test_reports_under_the_orbit_list_cap_are_listed(argv, address_space, last):
    # the JSON took 0.6-1.0 s in a cold child, peaking at 130 MB (6.7-7.3 s
    # and 943 MB when json.dumps with an indent encoded it in Python); the
    # budget leaves room for a loaded host
    done = run_child(argv, address_space=address_space, timeout=60)
    assert done.returncode == 0, done.stderr
    assert done.stdout.endswith(last)


# the stated time budget of the largest order, 9240 = 2^3*3*5*7*11, which
# has the most divisors and rows under ORDER_CAP; a cold child took 0.17 s
# (text) and 0.26 s (JSON), medians of 40, and 1.4 s at most, on a loaded
# 2-core host
ORDER_CAP_BUDGET_S = 5


@pytest.mark.parametrize("n,extra,code,last", [
    (n, extra, code, last)
    for n in ("9240", "9973", "8192")
    for extra, code, last in [
        ((), 0, "verdict: PASS\n"),
        (("--corrupt-coeff", "1"), 1, "verdict: FAIL\n"),
        (("--json",), 0, '"verdict": "pass"\n}\n'),
    ]
], ids=[f"{prefix}{kind}" for prefix in ("", "9973-", "8192-")
        for kind in ("pass", "corrupt", "json")])
def test_order_near_the_cap_ends_in_a_verdict(n, extra, code, last):
    # every divisor of n is evaluated; the corrupted f has non-integer ones.
    # 9240 has five primes, 9973 is prime (one slice of 9,972 rows) and
    # 8192 = 2^13 has thirteen levels: the transform's widest loops
    done = run_child(("verify", "cycle", "--n", n, *extra), address_space=1 << 30,
                     timeout=ORDER_CAP_BUDGET_S)
    assert done.returncode == code, done.stderr
    assert done.stdout.endswith(last)


@pytest.mark.parametrize("gen,code,last", [
    ("(1,2)", 2, "error: the generator acts neither freely nor nearly freely on [10000000000]\n"),
    ("(1)", 0, "verdict: PASS\n"),
])
def test_generator_on_a_huge_ground_set_builds_nothing_of_size_n(gen, code, last):
    # the kind and the order are read off the listed cycles, the other
    # points fixed; both exited 3 with MemoryError under 1 GiB before
    done = run_child(("verify", "subset", "--n", "10000000000", "--k", "0",
                      "--cap", "100000000000", "--gen", gen), address_space=1 << 30)
    assert done.returncode == code, done.stderr
    assert (done.stderr if code else done.stdout).endswith(last)


@pytest.mark.parametrize("digits", [41, 4000])
def test_generator_on_a_ground_set_too_long_to_print_names_no_n(digits):
    # n was printed in full: 106 characters at 41 digits, 4,065 at 4,000
    done = run_child(("verify", "subset", "--n", "1" + "0" * (digits - 1), "--k", "0",
                      "--cap", "9" * digits, "--gen", "(1,2)"), address_space=1 << 30)
    assert done.returncode == 2, done.stderr[:200]
    assert done.stdout == ""
    assert done.stderr == ("error: the generator acts neither freely nor nearly freely on "
                           "[n], n of 30 or more digits\n")
    assert len(done.stderr) < 100


def test_a_cap_too_long_to_print_is_not_printed():
    # the cap was printed in full: a 3,059-character line
    done = run_child(("verify", "subset", "--n", "10000", "--k", "5000",
                      "--cap", "1" + "0" * 2999), address_space=1 << 30)
    assert done.returncode == 2, done.stderr[:200]
    assert done.stdout == ""
    assert done.stderr == ("error: instance size of 30 or more digits exceeds the cap "
                           "of 30 or more digits\n")
    assert len(done.stderr) < 100


@pytest.mark.parametrize("m,n", [(1, 1200), (1, 10000), (10000, 1)])
def test_one_row_and_one_column_rectangles_pass(m, n):
    # one tableau, order m*n at most ORDER_CAP: no recursion 10000 deep, and
    # [mn]_q! is never multiplied out, since every hooklength cancels
    done = run_child(("verify", "syt_rect", "--m", str(m), "--n", str(n)))
    assert done.returncode == 0, done.stderr
    assert done.stdout.endswith("verdict: PASS\n")


@pytest.mark.parametrize("argv", [
    ("poly", "qbinom", "2000", "1000"),
    ("poly", "qfact", "2000"),
    ("poly", "qfuss", "200", "3"),
    ("poly", "propertri", "400"),
    ("poly", "qint", "1000000000"),
    ("poly", "eulerian", "3000"),
    ("poly", "propertri", "1000000000"),
    ("poly", "qhook", "1000000000"),
], ids=lambda argv: "-".join(argv[1:]))
def test_poly_caps_refuse_dear_calls_at_once(argv):
    # these ran for minutes, ran out of memory, or failed on the int-to-str
    # limit after seconds of work; the closed-form caps refuse them first,
    # and before any list as long as the argument is built
    done = run_child(argv, address_space=1 << 30)
    assert done.returncode == 2, done.stderr
    _assert_one_short_cap_message(done)


BEYOND = "1" + "0" * 4999  # more digits than Python converts to an int by default


@pytest.mark.parametrize("argv", [
    ("verify", "cycle", "--n", BEYOND),
    ("verify", "subset", "--n", "3", "--k", BEYOND),
    ("verify", "syt_rect", "--m", BEYOND, "--n", "2"),
    ("verify", "cycle", "--n", "3", "--cap", BEYOND),
    ("verify", "cycle", "--n", "3", "--corrupt-coeff", BEYOND),
    ("verify", "conj_class", "--lam", "3," + BEYOND),
    ("poly", "qint", BEYOND),
], ids=["n", "k", "m", "cap", "corrupt-coeff", "lam-part", "poly-qint"])
def test_values_too_long_to_convert_are_refused_without_echo(argv):
    # argparse echoed the whole value: 5,440 characters for --n
    done = run_child(argv, address_space=1 << 30)
    assert done.returncode == 2, done.stderr[:200]
    assert done.stdout == ""
    assert done.stderr.count("\n") == 1 and len(done.stderr) < 100, done.stderr[:200]
    assert "has more digits than Python converts" in done.stderr


NOT_CYCLES = "cannot parse the cycle notation; write each cycle as (a,b,...)"
NOT_A_PARTITION = "the sequence is not a partition: parts must be positive and weakly decreasing"


@pytest.mark.parametrize("argv,message", [
    (("verify", "subset", "--n", "3", "--k", "1", "--gen", "(1,２)"), NOT_CYCLES),
    (("verify", "subset", "--n", "3", "--k", "1", "--gen", "(1,2"), NOT_CYCLES),
    (("verify", "subset", "--n", "3", "--k", "1", "--gen", f"({BEYOND},1)"),
     "cycle entry outside [3]"),
    (("verify", "subset", "--n", "4", "--k", "1", "--gen", f"({'0' * 5000}1,2)"),
     "the generator acts neither freely nor nearly freely on [4]"),
    (("verify", "conj_class", "--lam", "1," + "9" * 3000), NOT_A_PARTITION),
    (("poly", "qhook", "1", "9" * 3000), NOT_A_PARTITION),
], ids=["gen-full-width-digit", "gen-unclosed", "gen-entry-beyond", "gen-neither-free-padded",
        "lam-not-a-partition", "qhook-not-a-partition"])
def test_generator_and_partition_are_read_without_echo(argv, message):
    # the full-width digit passed and echoed gen=(1,２); the unclosed cycle
    # and the long partitions were echoed whole; both entries of 5,001
    # digits, the zero-padded one too, ended in Python's bare int-to-str
    # error, and a generator neither free nor nearly free is not echoed
    done = run_child(argv, address_space=1 << 30)
    assert done.returncode == 2, done.stderr[:200]
    assert (done.stdout, done.stderr) == ("", f"error: {message}\n")


@pytest.mark.parametrize("argv,message", [
    (("verify", "cycle", "--n", "4.7"), "--n must be an integer"),
    (("verify", "cycle", "--n", "1_0"), "--n must be an integer"),
    (("verify", "cycle", "--n", " 7 "), "--n must be an integer"),
    (("verify", "cycle", "--n", "0"), "--n must be at least 1"),
    (("verify", "subset", "--n", "3", "--k", "-1"), "--k must be at least 0"),
    (("verify", "syt_rect", "--m", "0", "--n", "2"), "--m must be at least 1"),
    (("orbits", "ncm", "--n", "x"), "--n must be an integer"),
    (("verify", "conj_class", "--lam", "3,,1"), "each --lam part must be an integer"),
    (("verify", "conj_class", "--lam", "2,1,"), "each --lam part must be an integer"),
    (("verify", "cycle", "--n", "3", "--cap", "1e3"), "--cap must be an integer"),
    (("verify", "cycle", "--n", "3", "--corrupt-coeff", "-1"),
     "--corrupt-coeff must be at least 0"),
    (("verify", "cycle", "--n", "3", "--corrupt-coeff", "one"),
     "--corrupt-coeff must be an integer"),
    (("verify", "plethysm_derived", "--base", "cycle", "--n", "3", "--k", "2", "--kind", "x"),
     "plethysm kind must be 'h' or 'e'"),
    (("poly", "qbinom", "4", "2.0"), "each poly qbinom argument must be an integer"),
])
def test_each_value_is_read_once_and_named(capsys, argv, message):
    # argparse read 1_0 and " 7 " as 10 and 7, and refused the others with
    # its usage text; the builders read 3,,1 as (3, 1)
    assert run(capsys, *argv) == (2, "", f"error: {message}\n")


def _assert_one_short_cap_message(done):
    assert done.stdout == ""
    assert done.stderr.count("\n") == 1 and "exceeds the cap" in done.stderr
    assert len(done.stderr) < 100, done.stderr


def test_list_command(capsys):
    code, out, _ = run(capsys, "list")
    assert code == 0
    *rows, caps = out.splitlines()
    families = sieve.list_families()
    assert [row.split()[0] for row in rows] == sorted(sieve.FAMILIES)
    assert len(rows) == len(families) == 10
    # every description starts in the same column, after the longest signature
    starts = {row.index(fam.description) for row, fam in zip(rows, families)}
    assert starts == {23 + max(len(fam.signature) for fam in families) + 1}
    assert caps.startswith("caps: size 200000")
    assert f"conj_class n {perms.CLASS_CAP}," in caps and perms.CLASS_CAP == 8
    assert f"syt_rect cells {tableaux.FLAT_CELL_CAP} " in caps and tableaux.FLAT_CELL_CAP == 254


def test_env_cap(capsys, monkeypatch):
    monkeypatch.setenv("CSP_LAB_CAP", "5")
    assert run(capsys, "verify", "multiset", "--n", "6", "--k", "3")[0] == 2
    # explicit --cap wins over the environment
    assert run(capsys, "verify", "multiset", "--n", "6", "--k", "3",
               "--cap", "100")[0] == 0


def test_env_cap_not_an_integer(capsys, monkeypatch):
    monkeypatch.setenv("CSP_LAB_CAP", "abc")
    assert run(capsys, "verify", "cycle", "--n", "3") == (
        2, "", "error: CSP_LAB_CAP must be an integer\n")
    assert run(capsys, "verify", "cycle", "--n", "3", "--cap", "5")[0] == 0


@pytest.mark.parametrize("cap,env", [("0", None), ("-1", None), (None, "-5"), (None, "0"),
                                     ("-" + "9" * 40, None), ("-1", "7")])
def test_cap_below_one_is_refused_without_echoing_it(capsys, monkeypatch, cap, env):
    """A cap below 1 would fail every instance with a message that reads
    like a real limit; it is refused as a usage error instead."""
    if env is not None:
        monkeypatch.setenv("CSP_LAB_CAP", env)
    argv = ("verify", "cycle", "--n", "3") + (("--cap", cap) if cap is not None else ())
    assert run(capsys, *argv) == (
        2, "", "error: the size cap (--cap or CSP_LAB_CAP) must be at least 1\n")
    assert run(capsys, "orbits", *argv[1:])[0] == 2


def test_cap_of_one_admits_a_single_object(capsys):
    assert run(capsys, "verify", "cycle", "--n", "1", "--cap", "1")[0] == 0
    assert run(capsys, "verify", "cycle", "--n", "2", "--cap", "1")[0] == 2


@pytest.mark.parametrize("argv", [
    ("orbits", "multiset", "--n", "2", "--k", "199999"),
    ("orbits", "subset", "--n", "3000", "--k", "2999"),
], ids=lambda argv: "-".join(argv[1:]))
def test_k_set_listings_past_the_list_cap_are_refused_at_once(argv):
    # |X| max(k, 1) members are priced before any k-set is built: 0.09-0.11 s
    # in a cold child, where the first exited 3 with MemoryError and the
    # second printed 41.7 MB
    done = run_child(argv, address_space=1 << 30, timeout=1)
    assert done.returncode == 2, done.stderr
    _assert_one_short_cap_message(done)
    assert "listed k-set member count" in done.stderr


def test_largest_admitted_k_set_listing_is_listed():
    # 598,965 pairs, 1,197,930 members, under ORBIT_LIST_CAP.  A cold child
    # took 1.0-1.5 s at 123.7 MB ru_maxrss on a 2-core host
    done = run_child(("orbits", "subset", "--n", "1095", "--k", "2", "--cap", "1000000"),
                     address_space=1 << 30, timeout=60)
    assert done.returncode == 0, done.stderr
    assert done.stdout.startswith("family subset  params n=1095 k=2\nsize 598965  order 1095\n")
    # 1095 is odd, so every pair's orbit is free
    assert done.stdout.count("\norbit size 1095  stab    1  ") == 547


@pytest.mark.parametrize("argv", [
    ("verify", "multiset", "--n", "2", "--k", "9000"),
    ("verify", "multiset", "--n", "2", "--k", "30000"),
    ("verify", "multiset", "--n", "2", "--k", "199999"),
    ("verify", "subset", "--n", "3000", "--k", "2999"),
    ("verify", "plethysm_derived", "--base", "cycle", "--n", "9000", "--k", "1"),
    ("verify", "plethysm_derived", "--base", "conj_class", "--lam", "3,3,1", "--kind", "e",
     "--k", "279"),
], ids=lambda argv: "-".join(argv[1:]))
def test_k_set_instances_pass_in_bounded_memory(argv):
    # |X| k-sets of k members each are never stored by verify: their orbits
    # are counted.  Before, --k 9000 took 6.2 s and 714 MB, --k 30000 exited
    # 3 with MemoryError, and each plethysm polynomial alone took 4 s (e_279 of
    # 280 values is e_1 reversed)
    done = run_child(argv, address_space=1 << 30)
    assert done.returncode == 0, done.stderr
    assert done.stdout.endswith("verdict: PASS\n")


@pytest.mark.parametrize("argv,message", [
    (("verify", "subset", "--n", "30", "--k", "15"),
     "instance size 155117520 exceeds the cap 200000"),
    (("verify", "multiset", "--n", "6", "--k", "3", "--cap", "5"),
     "instance size 56 exceeds the cap 5"),
    (("verify", "ncp", "--n", "15"), "instance size 9694845 exceeds the cap 200000"),
    (("verify", "syt_rect", "--m", "5", "--n", "5"),
     "instance size 701149020 exceeds the cap 200000"),
    (("verify", "cycle", "--n", "10001"), "group order 10001 exceeds the cap 10000"),
    (("verify", "subset", "--n", "200", "--k", "100"),
     "instance size of 30 or more digits exceeds the cap 200000"),
    # the order is checked before the size, which also exceeds its cap
    (("verify", "cycle", "--n", "300000"), "group order 300000 exceeds the cap 10000"),
    (("verify", "subset", "--n", "300000", "--k", "1"), "group order 300000 exceeds the cap 10000"),
    (("verify", "multiset", "--n", "300000", "--k", "1"),
     "group order 300000 exceeds the cap 10000"),
])
def test_cap_messages(capsys, argv, message):
    # a size short enough to print is printed in full
    code, out, err = run(capsys, *argv)
    assert (code, out, err) == (2, "", f"error: {message}\n")


def test_deterministic_output(capsys):
    a = run(capsys, "verify", "ncp", "--n", "5", "--json")
    b = run(capsys, "verify", "ncp", "--n", "5", "--json")
    assert a == b


def test_internal_error_exit_code(capsys, monkeypatch):
    from csplab import sieve
    from csplab.errors import InexactDivision

    def boom(*args, **kwargs):
        raise InexactDivision("forced")

    monkeypatch.setattr(sieve, "build_report", boom)
    code, _, err = run(capsys, "verify", "ncp", "--n", "2")
    assert code == 3
    assert "internal error" in err


@pytest.mark.parametrize("exc", [ValueError("bad value"), CspLabError("bad value")])
def test_value_and_package_errors_are_usage_errors(capsys, monkeypatch, exc):
    from csplab import sieve

    def boom(*args, **kwargs):
        raise exc

    monkeypatch.setattr(sieve, "build_report", boom)
    code, _, err = run(capsys, "verify", "ncp", "--n", "2")
    assert code == 2
    assert err == "error: bad value\n"


def test_unexpected_exception_is_internal_error(capsys, monkeypatch):
    from csplab import sieve

    def boom(*args, **kwargs):
        raise RuntimeError("forced")

    monkeypatch.setattr(sieve, "build_report", boom)
    code, out, err = run(capsys, "verify", "ncp", "--n", "2")
    assert code == 3
    assert out == ""
    assert err == "internal error: RuntimeError: forced\n"


def test_unknown_base_family_is_named(capsys):
    for base_flags in ([], ["--n", "3"]):
        code, _, err = run(
            capsys, "verify", "plethysm_derived", "--base", "nope", "--k", "2", *base_flags
        )
        assert code == 2
        assert err == "error: 'nope'\n"


@pytest.mark.parametrize("command", ["verify", "orbits"])
@pytest.mark.parametrize(
    "argv,flag,signature",
    [
        (["cycle", "--n", "3", "--gen", "(1,2)"], "--gen", "--n N"),
        (["ncp", "--n", "3", "--k", "2"], "--k", "--n N"),
        (["subset", "--n", "3", "--k", "1", "--kind", "h"], "--kind", "--n N --k K"),
        (["plethysm_derived", "--base", "cycle", "--k", "2", "--n", "3", "--m", "2"],
         "--m", "base cycle: --n N"),
    ],
)
def test_flags_a_family_does_not_take_are_usage_errors(capsys, command, argv, flag,
                                                       signature):
    # these flags used to be dropped: `verify cycle --gen` passed for the long cycle
    code, out, err = run(capsys, command, *argv)
    assert code == 2
    assert out == ""
    assert f"family {argv[0]} does not take {flag}; signature: " in err
    assert sieve.FAMILIES[argv[0]].signature in err and signature in err


def test_base_is_resolved_only_for_a_family_that_takes_it(capsys):
    code, out, err = run(capsys, "verify", "ncp", "--n", "3", "--base", "nope")
    assert code == 2
    assert out == ""
    assert err == "error: family ncp does not take --base; signature: --n N\n"


@pytest.mark.parametrize(
    "base,shared",
    [("subset", "--k"), ("multiset", "--k"), ("plethysm_derived", "--base --k --kind")],
)
def test_plethysm_base_sharing_a_flag_is_usage_error(capsys, base, shared):
    # subset used to be told it needed parameter 'k', although --k was given
    code, out, err = run(capsys, "verify", "plethysm_derived", "--base", base,
                         "--n", "4", "--k", "2", "--kind", "h")
    assert code == 2
    assert out == ""
    assert err == (
        f"error: family plethysm_derived cannot take base {base}, which also takes {shared}\n"
    )


@pytest.mark.parametrize("command", ["verify", "orbits"])
def test_collected_options_are_the_signature_flags(command):
    """build_parser declares the family options from sieve.FLAGS, and
    _collect_params reads the same table; both must be the flags that the
    signatures list."""
    flags = set().union(*(sieve._parameters(name)[1] for name in sieve.FAMILIES))
    ns = cli.build_parser().parse_args([command, "cycle"])
    others = {"command", "family", "json", "out", "cap", "checker", "corrupt_coeff"}
    assert set(vars(ns)) - others == flags
    for key in vars(ns):
        setattr(ns, key, key)
    assert set(cli._collect_params(ns)) == flags


def test_key_error_in_a_builder_is_internal_error(capsys, monkeypatch):
    # the registry no longer turns a builder's KeyError into a usage error
    def builder(params, order, size):
        raise KeyError("oops")

    fam = sieve.FAMILIES["ncp"]
    monkeypatch.setitem(sieve.FAMILIES, "ncp", dataclasses.replace(fam, builder=builder))
    code, out, err = run(capsys, "verify", "ncp", "--n", "2")
    assert code == 3
    assert out == ""
    assert err == "internal error: KeyError: 'oops'\n"


# For every family: requests over the order cap and over the size cap, and
# over the other bounds the registry admits, each refused before any builder
# runs.  The order is checked first, then the size, then the flags the size
# cap also bounds (the k-sets' n and k, plethysm_derived's k).
ADMISSION_CASES = {
    "multiset": [
        (("--n", "10001", "--k", "1"), "group order 10001 exceeds the cap 10000"),
        (("--n", "6", "--k", "3", "--cap", "5"), "instance size 56 exceeds the cap 5"),
        (("--n", "300", "--k", "0", "--cap", "100"), "ground set size n 300 exceeds the cap 100"),
        (("--n", "1", "--k", "100000000"), "k 100000000 exceeds the cap 200000"),
    ],
    "subset": [
        (("--n", "10001", "--k", "2"), "group order 10001 exceeds the cap 10000"),
        (("--n", "30", "--k", "15"), "instance size 155117520 exceeds the cap 200000"),
        (("--n", "300", "--k", "300", "--cap", "100"), "ground set size n 300 exceeds the cap 100"),
        (("--n", "5", "--k", "1000000"), "k 1000000 exceeds the cap 200000"),
        # n and k are bounded before a generator's order is read
        (("--n", "10", "--k", "0", "--gen", "(1,2)", "--cap", "5"),
         "ground set size n 10 exceeds the cap 5"),
    ],
    "syt_rect": [
        (("--m", "100", "--n", "101"), "group order 10100 exceeds the cap 10000"),
        (("--m", "5", "--n", "5"), "instance size 701149020 exceeds the cap 200000"),
    ],
    "ncm": [
        (("--n", "5001"), "group order 10002 exceeds the cap 10000"),
        (("--n", "15"), "instance size 9694845 exceeds the cap 200000"),
    ],
    "ncp": [
        (("--n", "10001"), "group order 10001 exceeds the cap 10000"),
        (("--n", "15"), "instance size 9694845 exceeds the cap 200000"),
    ],
    "triangulation": [
        (("--n", "9999"), "group order 10001 exceeds the cap 10000"),
        (("--n", "15"), "instance size 9694845 exceeds the cap 200000"),
    ],
    "conj_class": [
        (("--lam", "10001"), "group order 10001 exceeds the cap 10000"),
        (("--lam", "10"), "instance size 362880 exceeds the cap 200000"),
    ],
    "proper_triangulation": [
        (("--n", "10000"), "group order 10002 exceeds the cap 10000"),
        (("--n", "20"), "instance size 1465052160 exceeds the cap 200000"),
        # an odd n has no order: refused before the order is read
        (("--n", "10001"), "proper_triangulation needs even n >= 2"),
    ],
    "cycle": [
        (("--n", "10001"), "group order 10001 exceeds the cap 10000"),
        (("--n", "3", "--cap", "2"), "instance size 3 exceeds the cap 2"),
    ],
    "plethysm_derived": [
        (("--base", "cycle", "--n", "10001", "--k", "2"),
         "group order 10001 exceeds the cap 10000"),
        (("--base", "ncp", "--n", "15", "--k", "2"),
         "instance size 9694845 exceeds the cap 200000"),
        # over its own size, with an admissible base: 58,786 partitions
        # were enumerated before the refusal
        (("--base", "ncp", "--n", "11", "--k", "2"),
         "instance size 1727926291 exceeds the cap 200000"),
        (("--base", "triangulation", "--n", "10", "--k", "2"),
         "instance size 141061206 exceeds the cap 200000"),
        (("--base", "ncm", "--n", "10", "--k", "2", "--kind", "e"),
         "the e_k construction needs a group of odd order"),
        (("--base", "cycle", "--n", "1", "--k", "100000000"), "k 100000000 exceeds the cap 200000"),
    ],
}


@pytest.mark.parametrize("family", sorted(sieve.FAMILIES))
def test_registry_admits_every_family_before_any_builder_runs(capsys, monkeypatch, family):
    def builder(params, order, size):
        raise AssertionError("a builder ran")

    for name, fam in list(sieve.FAMILIES.items()):
        monkeypatch.setitem(sieve.FAMILIES, name, dataclasses.replace(fam, builder=builder))
    cases = ADMISSION_CASES.get(family, [])
    messages = [message for _, message in cases]
    assert any(m.startswith("group order ") for m in messages), f"{family}: no order case"
    assert any(m.startswith("instance size ") for m in messages), f"{family}: no size case"
    for argv, message in cases:
        assert run(capsys, "verify", family, *argv) == (2, "", f"error: {message}\n"), argv


def test_empty_instance_passes(capsys):
    code, out, _ = run(capsys, "verify", "subset", "--n", "3", "--k", "5")
    assert code == 0
    assert "size 0  order 3" in out and "verdict: PASS" in out


@pytest.mark.parametrize(
    "argv",
    [
        ["verify", "multiset", "--n", "1000", "--k", "1"],
        ["verify", "subset", "--n", "1200", "--k", "1"],
        ["poly", "qbinom", "1500", "2"],
    ],
    ids=["multiset-1000-1", "subset-1200-1", "qbinom-1500-2"],
)
def test_large_gaussian_binomials_do_not_recurse(capsys, argv):
    # the Pascal recursion of depth n used to overflow the stack here
    assert run(capsys, *argv)[0] == 0


@pytest.mark.parametrize("lam", ["0", "2,0", "-1", "1,2"])
def test_conj_class_rejects_non_partitions(capsys, lam):
    # the class size used to be computed first: 0! / 0 and (-1)! crashed
    code, out, err = run(capsys, "verify", "conj_class", "--lam", lam)
    assert code == 2
    assert out == ""
    assert "is not a partition" in err


# The size cap bounds a class's member count, not the cost of each member,
# which grows with n: 1000 fixed points are one member but a recursion of
# depth 1000, and 2,1^630 has 199,396 members of 632 entries each (about
# 1 GB).  perms.CLASS_CAP bounds n, so each is refused before it is built.
@pytest.mark.parametrize("lam,n", [
    ("9", 9),
    (",".join(["1"] * 1000), 1000),
    (",".join(["2"] + ["1"] * 630), 632),
], ids=["9", "1x1000", "2,1x630"])
def test_conj_class_is_refused_past_the_class_cap(lam, n):
    done = run_child(("verify", "conj_class", "--lam", lam), address_space=1 << 30)
    assert (done.returncode, done.stdout, done.stderr) == (
        2, "", f"error: conjugacy class ground set size {n} exceeds the cap {perms.CLASS_CAP}\n"
    )


def test_conj_class_of_the_empty_partition(capsys):
    code, out, _ = run(capsys, "verify", "conj_class", "--lam", "")
    assert code == 0
    assert "size 1  order 1" in out


def test_unwritable_out_path_is_usage_error(tmp_path, capsys):
    path = tmp_path / "missing" / "x.json"
    code, out, err = run(capsys, "verify", "cycle", "--n", "3", "--out", str(path))
    assert code == 2
    assert out == ""
    assert err.startswith("error: ") and str(path) in err
    assert not path.exists()


def test_poly_cyclotomic_near_order_cap(capsys):
    code, out, _ = run(capsys, "poly", "cyclotomic", "9240")
    assert code == 0
    text, coeffs = out.splitlines()
    assert text.startswith("1+q^4-q^12") and text.endswith("+q^1920")
    assert coeffs.endswith("value at q=1: 1")


def call(argv):
    """(exit code, stdout, stderr) of one main call, argparse's exits included."""
    out, err = io.StringIO(), io.StringIO()
    with redirect_stdout(out), redirect_stderr(err):
        try:
            code = cli.main(list(argv))
        except SystemExit as exc:
            code = exc.code
    return code, out.getvalue(), err.getvalue()


# (COLUMNS, argv): each flag given, then left to its default; usage errors,
# each followed by a valid call; help and usage under two widths
PARSER_REUSE = [
    ("80", ["list"]),
    ("80", ["verify", "ncm", "--n", "3", "--checker", "roots"]),
    ("80", ["verify", "ncm", "--n", "3"]),
    ("80", ["verify", "multiset", "--n", "3", "--k", "2", "--json", "--cap", "9"]),
    ("80", ["verify", "multiset", "--n", "3", "--k", "2"]),
    ("80", ["verify", "cycle", "--n", "6", "--corrupt-coeff", "1", "--checker", "orbits"]),
    ("80", ["verify", "cycle", "--n", "6"]),
    ("80", ["orbits", "subset", "--n", "4", "--k", "2", "--gen", "(1,2,3,4)", "--json"]),
    ("80", ["orbits", "subset", "--n", "4", "--k", "2"]),
    ("80", ["poly", "qbinom", "4", "2"]),
    ("80", ["poly", "qint", "3"]),
    ("80", ["verify", "unknown_family", "--n", "3"]),
    ("80", ["verify", "cycle", "--n", "3"]),
    ("80", ["verify", "cycle", "--n", "3", "--checker", "none"]),
    ("80", ["verify", "cycle", "--n", "3"]),
    ("80", []),
    ("80", ["list"]),
    ("80", ["orbits", "cycle", "--n", "3", "--bogus", "1"]),
    ("80", ["orbits", "cycle", "--n", "3"]),
    ("80", ["poly", "nothing"]),
    ("80", ["poly", "qfact", "4"]),
    ("80", ["verify", "multiset", "--n", "3"]),
    ("80", ["verify", "multiset", "--n", "3", "--k", "1"]),
    ("80", ["--help"]),
    ("40", ["--help"]),
    ("80", ["verify", "--help"]),
    ("40", ["verify", "--help"]),
    ("40", ["verify"]),
    ("40", ["verify", "cycle", "--n", "3"]),
    ("80", ["verify"]),
]


def test_one_parser_serves_every_call_in_a_process(monkeypatch):
    """main builds its parser once; each call's output and exit code are
    those of a parser built for that call alone."""
    build = cli.build_parser
    fresh = []
    monkeypatch.setattr(cli, "_parser", build)
    for columns, argv in PARSER_REUSE:
        monkeypatch.setenv("COLUMNS", columns)
        fresh.append(call(argv))
    monkeypatch.undo()

    builds = []
    monkeypatch.setattr(cli, "build_parser", lambda: builds.append(1) or build())
    cli._parser.cache_clear()
    try:
        for (columns, argv), expected in zip(PARSER_REUSE, fresh):
            monkeypatch.setenv("COLUMNS", columns)
            assert call(argv) == expected, argv
    finally:
        cli._parser.cache_clear()
    assert len(builds) == 1
    assert {code for code, _, _ in fresh} == {0, 1, 2}


@st.composite
def verify_argv(draw):
    """A verify call and its instance: cycle of order up to a few hundred,
    or k-sets under a drawn free or nearly free --gen; an honest or
    corrupted f; any --checker; text or JSON."""
    family = draw(st.sampled_from(["cycle", "subset", "multiset"]))
    if family == "cycle":
        params = {"n": draw(st.integers(1, 400))}
    else:
        n = draw(st.integers(1, 12))
        length = draw(st.sampled_from(
            [m for m in range(1, n + 1) if n % m == 0 or (n - 1) % m == 0]))
        points = draw(st.permutations(range(1, n + 1)))
        cycles = [points[i:i + length] for i in range(0, n - n % length, length)]
        gen = "".join("(" + ",".join(map(str, c)) + ")" for c in cycles)
        params = {"n": n, "k": draw(st.integers(0, 4)), "gen": gen}
    corrupt = draw(st.none() | st.integers(0, 500))
    checker = draw(st.sampled_from([None, "roots", "orbits", "both"]))
    as_json = draw(st.booleans())
    argv = ["verify", family, *(x for key, v in params.items() for x in (f"--{key}", str(v)))]
    argv += ["--checker", checker] if checker else []
    argv += ["--corrupt-coeff", str(corrupt)] if corrupt is not None else []
    argv += ["--json"] if as_json else []
    inst = sieve.registry_instantiate(family, params)
    if corrupt is not None:
        inst = dataclasses.replace(inst, polynomial=sieve.corrupt_polynomial(inst.polynomial,
                                                                             corrupt))
    return argv, inst, checker or "both", as_json


@settings(max_examples=150, deadline=None)
@given(verify_argv())
def test_verify_output_is_the_per_row_printers(drawn):
    """Formatting each distinct row tail once prints, byte for byte, what
    formatting one frozen row per group element printed."""
    argv, inst, checker, as_json = drawn
    code, out, err = call(argv)
    render = printer_oracle.verify_json if as_json else printer_oracle.verify_text
    assert (out, err) == (render(inst, checker) + "\n", "")
    assert code == (0 if printer_oracle.verdict(inst, checker) == "pass" else 1)


def test_row_texts_past_the_order_cap_are_made_per_report():
    """A library instance of an order past ORDER_CAP prints the rows the
    per-row printers print, and leaves the j tables within ORDER_CAP."""
    order = sieve.ORDER_CAP + 2
    action = sieve.CyclicAction.counted({1: 2, order: 1}, order, lambda: None)
    inst = sieve.CSPInstance(action, sieve.corrupt_polynomial(qpoly.q_int(2), order + 1))
    report = sieve.build_report(inst)
    assert cli._format_report(report) == printer_oracle.verify_text(inst, "both")
    assert cli._verify_json(report) == printer_oracle.verify_json(inst, "both")
    assert all(len(table.dense) <= sieve.ORDER_CAP for table in (cli._J_TEXT, cli._J_JSON))


def test_text_tables_cover_every_order():
    # qpoly cannot import sieve: a smaller cap would put every row of the
    # highest orders back on per-call formatting, with the same output
    assert qpoly.TEXTS_CAP >= sieve.ORDER_CAP


def test_f_past_the_text_cap_prints_as_the_per_row_printers():
    # f has 10,002 terms: its monomials are made per call, past the table
    argv = ("verify", "multiset", "--n", "2", "--k", "10001")
    inst = sieve.registry_instantiate("multiset", {"n": 2, "k": 10001})
    assert len(inst.polynomial.coeffs) == qpoly.TEXTS_CAP + 2
    assert call(argv) == (0, printer_oracle.verify_text(inst, "both") + "\n", "")


def test_row_texts_grown_from_many_threads(monkeypatch):
    """Threads that print reports of different orders while the j tables
    grow each print what the per-row printers print."""
    for name in ("_J_TEXT", "_J_JSON"):
        monkeypatch.setattr(cli, name, qpoly.Texts(getattr(cli, name).make))
    insts = [sieve.registry_instantiate("cycle", {"n": n}) for n in (200, 400, 600, 800, 1000)]
    start = threading.Barrier(len(insts))
    texts = {}

    def show(inst):
        start.wait()
        report = sieve.build_report(inst)
        texts[inst.action.order] = (cli._format_report(report), cli._verify_json(report))

    threads = [threading.Thread(target=show, args=(inst,)) for inst in insts]
    for thread in threads:
        thread.start()
    for thread in threads:
        thread.join()
    assert texts == {inst.action.order: (printer_oracle.verify_text(inst, "both"),
                                         printer_oracle.verify_json(inst, "both"))
                     for inst in insts}
