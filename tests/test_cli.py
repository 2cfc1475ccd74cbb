"""Command line behavior: exit codes, JSON schema, determinism."""

import json

import pytest

from csplab import cli
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


def test_poly_command(capsys):
    code, out, _ = run(capsys, "poly", "qbinom", "4", "2")
    assert code == 0
    assert out.splitlines()[0] == "1+q+2q^2+q^3+q^4"
    code, out, _ = run(capsys, "poly", "eulerian", "4")
    assert out.splitlines()[0] == "1+11q+11q^2+q^3"
    code, out, _ = run(capsys, "poly", "qcatalan", "0")
    assert out.splitlines()[0] == "1"
    assert run(capsys, "poly", "qbinom", "4")[0] == 2


def test_list_command(capsys):
    code, out, _ = run(capsys, "list")
    assert code == 0
    for name in ("multiset", "subset", "syt_rect", "ncm", "ncp",
                 "triangulation", "conj_class", "proper_triangulation"):
        assert name in out


def test_env_cap(capsys, monkeypatch):
    monkeypatch.setenv("CSP_LAB_CAP", "5")
    assert run(capsys, "verify", "multiset", "--n", "6", "--k", "3")[0] == 2
    # explicit --cap wins over the environment
    assert run(capsys, "verify", "multiset", "--n", "6", "--k", "3",
               "--cap", "100")[0] == 0


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
    code, _, err = run(
        capsys, "verify", "plethysm_derived", "--base", "nope", "--k", "2"
    )
    assert code == 2
    assert "nope" in err
    assert "needs parameter" not in err


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


def test_conj_class_of_the_empty_partition(capsys):
    code, out, _ = run(capsys, "verify", "conj_class", "--lam", "")
    assert code == 0
    assert "size 1  order 1" in out
