import json

from nilcomm import invariants, oracle
from nilcomm.cli import build_parser, main
from nilcomm.diagrams import PairType, parse


def run(capsys, *args):
    code = main(list(args))
    out = capsys.readouterr()
    return code, out.out, out.err


def test_enumerate(capsys):
    code, out, _ = run(capsys, "enumerate", "AI", "3")
    assert code == 0
    assert out.splitlines() == ["3", "2,1", "1,1,1"]


def test_enumerate_signature(capsys):
    code, out, _ = run(capsys, "enumerate", "BDI", "5", "3", "2")
    assert code == 0
    assert "aba/a/b" in out.splitlines()


def test_invariants_text_and_json(capsys):
    code, out, _ = run(capsys, "invariants", "AI", "2,1")
    assert code == 0
    assert "defect: 1" in out
    code, out, _ = run(capsys, "--format", "json", "invariants", "AI", "2,1")
    record = json.loads(out)
    assert record == {
        "defect": 1,
        "dim_p_cent": 3,
        "dim_orbit": 2,
        "dim_p0": 1,
        "distinguished": False,
        "almost": True,
        "component_dim": 4,
    }


def test_reduce(capsys):
    code, out, _ = run(capsys, "reduce", "BDI", "aba/a/b")
    assert code == 0 and out.strip() == "ababa"
    code, out, _ = run(capsys, "reduce", "BDI", "ababa/aba/bab/a")
    assert code == 0 and out.strip() == "none"


def test_components(capsys):
    code, out, _ = run(capsys, "components", "AI", "5")
    assert code == 0
    assert "component count: 1" in out
    code, out, _ = run(capsys, "--format", "json", "components", "AI", "6")
    data = json.loads(out)
    assert data["count_max"] == 2
    assert data["unresolved"][0]["orbit"] == "4,2"


def test_exceptional(capsys):
    code, out, _ = run(capsys, "exceptional", "EIV")
    assert code == 0
    assert "components (1)" in out
    code, out, _ = run(capsys, "--format", "json", "exceptional", "EI")
    data = json.loads(out)
    assert data["count_min"] == 4 and data["count_max"] == 6


def test_closure_graph_dot_and_json(capsys):
    code, out, _ = run(capsys, "closure-graph", "AI", "4")
    assert code == 0 and out.startswith("digraph")
    code, out, _ = run(capsys, "--format", "json", "closure-graph", "AI", "4")
    data = json.loads(out)
    assert len(data["vertices"]) == 5


def test_selflarge_single_and_enumeration(capsys):
    code, out, _ = run(capsys, "selflarge", "AI", "3,1")
    assert code == 0 and "True" in out
    code, out, _ = run(capsys, "selflarge", "AI", "4")
    assert code == 0
    assert len(out.splitlines()) == 5  # all partitions of 4


def test_usage_errors(capsys):
    assert run(capsys, "enumerate", "XX", "3")[0] == 2
    assert run(capsys, "invariants", "AI", "abc")[0] == 2
    assert run(capsys, "enumerate", "AI")[0] == 2


def test_bound_respected(capsys):
    code, _, err = run(capsys, "--bound", "4", "enumerate", "AI", "5")
    assert code == 2 and "bound" in err


def test_verify_small(capsys):
    code, out, _ = run(capsys, "verify", "--cert-bound", "4")
    assert code == 0
    assert "PASS" in out
    # idempotent
    code2, out2, _ = run(capsys, "verify", "--cert-bound", "4")
    assert code2 == 0 and out2 == out


def test_verify_reports_a_failed_certification(capsys, monkeypatch):
    exact = invariants.dim_p_cent

    def off_by_one(diagram, pair_type, params):
        wrong = diagram == parse("2,1") and pair_type is PairType.AI
        return exact(diagram, pair_type, params) + wrong

    monkeypatch.setattr(invariants, "dim_p_cent", off_by_one)
    line = "AI PairParams(n=3, signature=None): dim p^e mismatch '2,1'"
    _checked, failures = oracle.certify(3)
    assert failures == [line]
    code, out, _ = run(capsys, "verify", "--cert-bound", "3")
    assert code == 1
    assert "  " + line in out.splitlines()
    assert out.splitlines()[-1] == "verify: FAIL"


def test_config_file(capsys, tmp_path, monkeypatch):
    cfg = tmp_path / "cfg.json"
    cfg.write_text(json.dumps({"format": "json", "bound": 10}))
    monkeypatch.setenv("NILCOMM_CONFIG", str(cfg))
    code, out, _ = run(capsys, "invariants", "AI", "2,1")
    assert code == 0
    assert json.loads(out)["defect"] == 1


def test_config_file_read_on_every_call(capsys, tmp_path, monkeypatch):
    """One parser serves every call; each call reads the config file named
    then, and a flag on the command line still wins."""
    text_cfg, json_cfg = tmp_path / "text.json", tmp_path / "json.json"
    text_cfg.write_text(json.dumps({"format": "text", "bound": 2}))
    json_cfg.write_text(json.dumps({"format": "json"}))
    monkeypatch.setenv("NILCOMM_CONFIG", str(json_cfg))
    code, out, _ = run(capsys, "enumerate", "AI", "3")
    assert code == 0 and json.loads(out) == ["3", "2,1", "1,1,1"]
    monkeypatch.setenv("NILCOMM_CONFIG", str(text_cfg))
    code, out, err = run(capsys, "enumerate", "AI", "3")
    assert code == 2 and not out and "bound" in err
    code, out, _ = run(capsys, "--bound", "5", "enumerate", "AI", "3")
    assert code == 0 and out.splitlines() == ["3", "2,1", "1,1,1"]
    code, out, _ = run(capsys, "--bound", "5", "--format", "json", "enumerate", "AI", "3")
    assert code == 0 and json.loads(out) == ["3", "2,1", "1,1,1"]
    monkeypatch.setenv("NILCOMM_CONFIG", str(json_cfg))
    code, out, _ = run(capsys, "--format", "text", "enumerate", "AI", "3")
    assert code == 0 and out.splitlines() == ["3", "2,1", "1,1,1"]
    monkeypatch.delenv("NILCOMM_CONFIG")
    code, out, _ = run(capsys, "enumerate", "AI", "3")
    assert code == 0 and out.splitlines() == ["3", "2,1", "1,1,1"]
    assert build_parser() is build_parser()


def test_invalid_diagrams_rejected_with_reasons(capsys):
    code, out, err = run(capsys, "invariants", "BDI", "ab/ab")
    assert code == 2 and not out
    assert err.splitlines() == ["error: ParityViolation: even length needs a_2=b_2, got (2,0)"]
    code, out, err = run(capsys, "reduce", "CI", "a/a/a/b")
    assert code == 2 and not out
    assert err.splitlines() == [
        "error: SignatureMismatch: letter counts (3, 1), expected (2, 2)",
        "error: ParityViolation: odd length needs a_1=b_1, got (3,1)",
    ]
    code, out, err = run(capsys, "selflarge", "BDI", "ab/ab")
    assert code == 2 and not out and "ParityViolation" in err


def test_invalid_ci_length_one_rows_rejected_before_the_oracle(capsys, monkeypatch):
    """k + 2 a-rows and k b-rows of length 1 for k = 7: the validator answers
    before any search for a realization."""
    def no_realize(*args):
        raise AssertionError("the oracle was asked to realize an invalid diagram")

    monkeypatch.setattr(oracle, "realize", no_realize)
    code, out, err = run(capsys, "invariants", "CI", "/".join(["a"] * 9 + ["b"] * 7))
    assert code == 2 and not out
    assert "SignatureMismatch" in err and "ParityViolation" in err


def test_missing_signature_numbers(capsys):
    for command in ("components", "selflarge"):
        code, out, err = run(capsys, command, "BDI", "5")
        assert code == 2 and not out
        assert err.strip() == "error: BDI needs n p q, got 1 number"
