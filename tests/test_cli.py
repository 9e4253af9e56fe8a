import csv
import hashlib
import io
import json
import math
import pathlib
import re
import shlex
import subprocess
import sys

import pytest

from affine_spectra import antiderivative_system, parse_preset, system_to_dict
from affine_spectra.cli import main

SKEW = "skew-takagi:0.3,0.5,0.25"


@pytest.fixture
def run(capsys):
    def go(*argv, expect=0):
        code = main(list(argv))
        out = capsys.readouterr()
        assert code == expect, out.err
        return out.out, out.err

    return go


def test_validate(run):
    out, _ = run("validate", "--preset", "riesz-nagy:0.3")
    doc = json.loads(out)
    assert doc["valid"] and doc["regime"] == "CaseA"
    assert doc["lambda_set"] == []
    assert doc["r"] == 2
    out, _ = run("validate", "--preset", SKEW)
    doc = json.loads(out)
    assert doc["regime"] == "CaseB" and doc["lambda_set"] == [1]


def test_validate_flags_borderline(run, tmp_path):
    anti = antiderivative_system(parse_preset("riesz-nagy:0.3"))
    path = tmp_path / "anti.json"
    path.write_text(json.dumps(system_to_dict(anti)))
    out, _ = run("validate", "--system", str(path))
    doc = json.loads(out)
    assert doc["lambda_set"] == []
    assert doc["lambda_borderline"] == [1]


def test_eval(run):
    out, _ = run("eval", "--preset", "riesz-nagy:0.3", "--x", "0.5",
                 "--tol", "1e-13")
    doc = json.loads(out)
    assert doc["value"] == pytest.approx(0.3, abs=1e-13)
    assert doc["error_bound"] <= 1e-13
    assert doc["depth"] == 0  # vertex is exact


# sha256 of the stdout of `sample --preset okamoto:0.6 --points 1001
# --tol 1e-12`, as the unblocked evaluation loop printed it
SAMPLE_OKAMOTO_SHA256 = \
    "1771b5456942857ec1634e35fb279fb1e88a4dfa6deecfc6d8812f5f0680f10e"


def test_sample_output_is_pinned(run):
    out, _ = run("sample", "--preset", "okamoto:0.6", "--points", "1001",
                 "--tol", "1e-12")
    assert hashlib.sha256(out.encode()).hexdigest() == SAMPLE_OKAMOTO_SHA256


def test_sample_csv(run):
    out, _ = run("sample", "--preset", "takagi:1", "--points", "5")
    lines = out.splitlines()
    assert lines[0] == "x,value,error_bound"
    assert len(lines) == 6
    first = lines[1].split(",")
    assert float(first[0]) == 0.0 and float(first[1]) == 0.0


def test_coding_of_point(run):
    out, _ = run("coding", "--preset", "riesz-nagy:0.3", "--x", "0.3",
                 "--depth", "8")
    doc = json.loads(out)
    assert doc["coding"] == "1,2,1,1,2,2,1,1"
    assert doc["cut_point"] is False
    assert doc["interval"]["length"] == pytest.approx(0.5 ** 8)


def test_coding_exact_projection(run):
    out, _ = run("coding", "--preset", "riesz-nagy:0.3", "--coding", "1,2",
                 "--exact")
    assert json.loads(out)["x"] == "1/4"
    out, _ = run("coding", "--preset", "riesz-nagy:0.3", "--coding", "(1,2)",
                 "--exact")
    assert json.loads(out)["x"] == "1/3"


def test_coding_exact_needs_coding(capsys):
    with pytest.raises(SystemExit) as exc:
        main(["coding", "--preset", "riesz-nagy:0.3", "--x", "0.3",
              "--exact"])
    assert exc.value.code == 2
    assert "--exact applies to --coding only" in capsys.readouterr().err


def test_coding_membership(run):
    out, _ = run("coding", "--preset", "riesz-nagy:0.3", "--coding", "2,(1)",
                 "--in-t")
    doc = json.loads(out)["in_t"]
    assert doc["member"] and doc["n0"] == 1
    assert doc["left"] == "1,(2)" and doc["right"] == "2,(1)"


def test_exponent_interior(run):
    out, _ = run("exponent", "--preset", "riesz-nagy:0.3", "--coding",
                 "(1,2)")
    doc = json.loads(out)
    assert doc["alpha"] == pytest.approx(1.125769383497982, abs=1e-9)
    assert doc["right"]["method"] == "exact-periodic"
    assert doc["right"]["gamma"] == doc["alpha"]
    assert doc["left"]["derivative"] == 0.0
    assert "cut" not in doc


def test_exponent_cut(run):
    out, _ = run("exponent", "--preset", SKEW, "--x", "0.3")
    doc = json.loads(out)
    assert doc["cut_point"] is True
    cut = doc["cut"]
    assert doc["alpha"] == 1.0
    assert cut["differentiable"] is False
    assert cut["derivative_right"] == pytest.approx(20.0 / 7.0, abs=1e-9)
    assert cut["derivative_left"] == pytest.approx(20.0 / 27.0, abs=1e-9)


def test_exponent_infinite_serialization(run):
    out, _ = run("exponent", "--preset", "okamoto:0.5", "--coding",
                 "2,(1,2)")
    doc = json.loads(out)
    assert doc["alpha"] == "inf"
    assert doc["right"]["infinite"] is True
    # half-flat cut: the rough left side sets the exponent
    out, _ = run("exponent", "--preset", "okamoto:0.5", "--coding", "1,2,(1)")
    doc = json.loads(out)
    assert doc["cut"]["alpha_right"] == "inf"
    assert doc["alpha"] == pytest.approx(math.log(2) / math.log(3), abs=1e-9)


def test_spectrum_round_trip(run, tmp_path):
    const_path = tmp_path / "c.json"
    run("constants", "--preset", SKEW, "--output", str(const_path))
    direct, _ = run("spectrum", "--preset", SKEW, "--points", "31")
    via_file, _ = run("spectrum", "--constants", str(const_path), "--points",
                      "31")
    assert direct == via_file
    lines = direct.splitlines()
    assert lines[0] == "alpha,dim,branch"
    assert lines[1].startswith("1,0,linear")


def test_spectrum_json_and_inf(run):
    out, _ = run("spectrum", "--preset", "okamoto:0.5", "--points", "11",
                 "--json")
    doc = json.loads(out)
    rows = doc["rows"]
    assert doc["regime"] == "CaseA"
    assert rows[-1]["alpha"] == "inf" and rows[-1]["dim"] == 1.0
    out, _ = run("spectrum", "--preset", "okamoto:0.5", "--points", "11")
    assert "inf,1,infinite" in out


def test_output_file_matches_stdout(run, tmp_path):
    path = tmp_path / "out.json"
    stdout, _ = run("constants", "--preset", "takagi:1")
    run("constants", "--preset", "takagi:1", "--output", str(path))
    assert path.read_text() == stdout


def test_verify_ae(run):
    out, _ = run("verify", "--preset", "takagi:0.5", "--mode", "ae",
                 "--points", "200", "--horizon", "2000", "--tol", "0.05")
    doc = json.loads(out)
    assert doc["pass"] is True
    assert doc["expected"] == pytest.approx(0.5, abs=1e-12)
    assert abs(doc["median"] - 0.5) < 0.05


# stdout of the README's `verify --mode ae` example, byte for byte
VERIFY_AE_README = """\
{
  "deciles": [
    1.112242618206385,
    1.1148983046519305,
    1.1170444009883786,
    1.1191594749469664,
    1.1211814496112409,
    1.1227867261052527,
    1.1250388700987386,
    1.12696333809164,
    1.1300382911338356
  ],
  "error": 0.0045863347947388,
  "expected": 1.1257693834979823,
  "fraction_finite": 1.0,
  "median": 1.1211830487032435,
  "mode": "ae",
  "pass": true
}
"""


def test_verify_ae_readme_output_is_pinned(run):
    out, _ = run("verify", "--preset", "riesz-nagy:0.3", "--mode", "ae",
                 "--points", "1000", "--horizon", "10000", "--seed", "1")
    assert out == VERIFY_AE_README


def test_verify_exponent(run):
    out, _ = run("verify", "--preset", "riesz-nagy:0.3", "--mode",
                 "exponent", "--coding", "(1,2)")
    doc = json.loads(out)
    assert doc["pass"] is True
    assert doc["error"] < 0.05 and doc["r2"] > 0.98
    assert doc["subtracted"] is True


def test_verify_derivative(run):
    out, _ = run("verify", "--preset", "riesz-nagy:0.3", "--mode",
                 "derivative", "--coding", "2,(1)")
    doc = json.loads(out)
    assert doc["pass"] is True
    assert doc["derivative"] == 0.0
    assert doc["final_discrepancy"] < 0.01


def test_verify_failure_is_exit_zero(run):
    # a failed verification is a result, not a crash
    out, _ = run("verify", "--preset", "riesz-nagy:0.3", "--mode", "ae",
                 "--points", "50", "--horizon", "200", "--tol", "1e-9")
    assert json.loads(out)["pass"] is False


def test_gen_coding_deterministic(run):
    args = ("gen-coding", "--preset", SKEW, "--alpha", "1.2", "--length",
            "2000", "--seed", "9", "--block-ends", "100,2000")
    first, _ = run(*args)
    second, _ = run(*args)
    assert first == second
    doc = json.loads(first)
    assert doc["lam"] == pytest.approx(0.710216003160676, abs=1e-9)
    assert len(doc["digits"]) == 2000


def test_error_exit_code(run, capsys):
    _, err = run("eval", "--preset", "riesz-nagy:0.3", "--x", "1.5",
                 expect=1)
    doc = json.loads(err)
    assert doc["error"] == "OutOfDomain"
    _, err = run("eval", "--preset", "okamoto:0.6", "--x", "nan", expect=1)
    assert json.loads(err)["error"] == "OutOfDomain"
    _, err = run("validate", "--preset", "nosuch:1", expect=1)
    assert "error" in json.loads(err)
    _, err = run("exponent", "--preset", "riesz-nagy:0.3", "--coding",
                 "what", expect=1)
    assert json.loads(err)["error"] == "InvalidCoding"


def test_usage_errors_exit_two():
    with pytest.raises(SystemExit) as exc:
        main(["eval", "--preset", "takagi:1"])  # missing --x
    assert exc.value.code == 2
    with pytest.raises(SystemExit) as exc:
        main(["frobnicate"])
    assert exc.value.code == 2


def test_console_script_runs():
    res = subprocess.run(
        [sys.executable, "-m", "affine_spectra.cli", "eval", "--preset",
         "takagi:1", "--x", "0.25"],
        capture_output=True, text=True)
    assert res.returncode == 0
    assert json.loads(res.stdout)["value"] == pytest.approx(0.5)


README = pathlib.Path(__file__).resolve().parents[1] / "README.md"


def _readme_examples():
    """(argv, shown) for every `affine-spectra` line in the README's sh
    blocks; `shown` holds the comment lines right under the command."""
    examples = []
    for block in re.findall(r"```sh\n(.*?)```", README.read_text(), re.S):
        shown = None
        for line in block.splitlines():
            if line.startswith("affine-spectra "):
                shown = []
                examples.append((shlex.split(line)[1:], shown))
            elif line.startswith("# ") and shown is not None:
                shown.append(line[2:])
            else:
                shown = None
    return examples


def test_readme_examples_run(run):
    examples = _readme_examples()
    assert {argv[0] for argv, _ in examples} == {
        "validate", "constants", "eval", "sample", "coding", "exponent",
        "spectrum", "verify", "gen-coding"}
    for argv, shown in examples:
        out, _ = run(*argv)
        if out.startswith("{"):
            json.loads(out)
        else:
            rows = list(csv.reader(io.StringIO(out)))
            assert rows and all(len(row) == len(rows[0]) for row in rows)
        if not shown:
            continue
        if shown[0].startswith("CSV: "):      # names the header only
            assert out.splitlines()[0] == shown[0][len("CSV: "):]
        elif len(shown) == 1 and shown[0].startswith("{"):
            assert json.loads(out) == json.loads(shown[0])
        else:                                 # head, "...", tail
            lines = out.splitlines()
            cut = shown.index("...") if "..." in shown else len(shown)
            head, tail = shown[:cut], shown[cut + 1:]
            assert lines[:len(head)] == head
            assert lines[len(lines) - len(tail):] == tail
