import ast
import csv
import functools
import io
import json
import math
import pathlib
import re
import shlex
import subprocess
import sys

import pytest

from affine_spectra import (
    Coding,
    antiderivative_system,
    compute_constants,
    exponent_trace,
    oracle,
    parse_preset,
    project,
    system_to_dict,
)
from affine_spectra.cli import main
from regen_cli_golden import pin

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


def test_coding_exact_long_coding(run):
    """300 digits of okamoto:0.6 (54 bits each) make a numerator beyond
    the interpreter's 4,300-digit limit on int-to-str conversion: the CLI
    lifts the limit for that one conversion and restores it."""
    digits = [1 + k % 3 for k in range(300)]
    limit = getattr(sys, "get_int_max_str_digits", lambda: None)()
    out, _ = run("coding", "--preset", "okamoto:0.6", "--coding",
                 ",".join(map(str, digits)), "--exact")
    assert getattr(sys, "get_int_max_str_digits", lambda: None)() == limit
    want = project(parse_preset("okamoto:0.6"), Coding(prefix=tuple(digits)),
                   exact=True)
    if limit is not None:
        sys.set_int_max_str_digits(0)
    try:
        assert len(str(want.denominator)) > 4300
        assert json.loads(out)["x"] == str(want)
    finally:
        if limit is not None:
            sys.set_int_max_str_digits(limit)


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


@pytest.mark.parametrize("extra", [
    ("--mode", "ae", "--tol", "-1"), ("--mode", "ae", "--tol", "nan"),
    ("--mode", "derivative", "--coding", "2,(1)", "--tol", "-0.5"),
    ("--mode", "exponent", "--coding", "(1,2)", "--slope-tol", "-1"),
    ("--mode", "exponent", "--coding", "(1,2)", "--slope-tol", "nan"),
    ("--mode", "exponent", "--coding", "(1,2)", "--r2-min", "nan")],
    ids=["tol-negative", "tol-nan", "derivative-tol-negative",
         "slope-tol-negative", "slope-tol-nan", "r2-min-nan"])
def test_verify_rejects_bad_thresholds(run, extra):
    """A threshold no result can meet is a usage error, not a failed check."""
    out, err = run("verify", "--preset", "riesz-nagy:0.3", "--points", "2",
                   "--horizon", "4", *extra, expect=1)
    assert out == "" and json.loads(err)["error"] == "ValueError"


@pytest.mark.parametrize("argv", [
    ("validate", "--preset", "okamoto:0.6", "--lambda-tol", "-1"),
    ("validate", "--preset", "takagi:0.5", "--lambda-tol", "nan"),
    ("constants", "--preset", "okamoto:0.6", "--lambda-tol", "-1"),
    ("exponent", "--preset", SKEW, "--coding", "1,(1,2)", "--series-tol", "-1"),
    ("verify", "--preset", SKEW, "--mode", "derivative", "--coding", "1,(2)",
     "--series-tol", "nan"),
    ("verify", "--preset", SKEW, "--mode", "exponent", "--coding", "1,(2)",
     "--series-tol", "-1")],
    ids=["validate-lambda-negative", "validate-lambda-nan",
         "constants-lambda-negative", "exponent-series-negative",
         "verify-derivative-series-nan", "verify-exponent-series-negative"])
def test_negative_or_nan_tolerances_are_rejected(run, argv):
    """A tolerance that would misclassify or cannot be met is a usage error
    with a JSON message, not a printed result."""
    out, err = run(*argv, expect=1)
    assert out == "" and json.loads(err)["error"] == "ValueError"


def test_memory_error_is_json(run, monkeypatch):
    """An allocation numpy cannot make is one JSON object on stderr, named
    by the public exception whatever subclass numpy raised."""
    class ArrayMemoryError(MemoryError):
        pass

    def too_big(*args):
        raise ArrayMemoryError("Unable to allocate 373. GiB")

    monkeypatch.setattr(oracle, "ae_exponent_sample", too_big)
    out, err = run("verify", "--preset", "riesz-nagy:0.3", "--mode", "ae",
                   "--points", "3", "--horizon", "100000000000", expect=1)
    assert out == ""
    assert json.loads(err) == {"error": "MemoryError",
                               "message": "Unable to allocate 373. GiB"}


@pytest.mark.parametrize("argv, error", [
    (("validate", "--preset", "takagi:1/0"), "ZeroDivisionError"),
    (("sample", "--preset", "skew-takagi:0.3,1e308,0.5", "--points", "5"),
     "ValueError")],
    ids=["zero-denominator", "overflowing-bound"])
def test_bad_inputs_are_one_json_error(run, argv, error):
    """Arithmetic errors and systems whose bound overflows are one JSON
    object on stderr, with no output and no traceback."""
    out, err = run(*argv, expect=1)
    assert out == "" and json.loads(err)["error"] == error


@pytest.mark.parametrize("ordinate", ["NaN", "Infinity"])
def test_non_finite_system_files_are_rejected(run, tmp_path, ordinate):
    path = tmp_path / "system.json"
    path.write_text('{"vertices": [[0, 0], [0.5, %s], [1, 0]], '
                    '"d": [0.5, 0.5]}' % ordinate)
    for argv in (("validate",), ("eval", "--x", "0.3"),
                 ("exponent", "--coding", "1,(1,2)")):
        out, err = run(*argv, "--system", str(path), expect=1)
        assert out == "" and json.loads(err) == {
            "error": "ValueError",
            "message": "vertices and contractions must be finite"}


def test_gen_coding_deterministic(run):
    args = ("gen-coding", "--preset", SKEW, "--alpha", "1.2", "--length",
            "2000", "--seed", "9", "--block-ends", "100,2000")
    first, _ = run(*args)
    second, _ = run(*args)
    assert first == second
    doc = json.loads(first)
    assert doc["lam"] == pytest.approx(0.710216003160676, abs=1e-9)
    assert len(doc["digits"]) == 2000


@pytest.mark.parametrize("length, ends", [
    (2000, "100,2000"), (20000, "100,9000"), (20000, "300,8192"),
    (20000, "300,8193")])
def test_gen_coding_diagnostics_are_the_trace(run, length, ends):
    """The diagnostics read at the last block end, wherever it falls among
    the trace's chunks, are the exponent_trace values there."""
    out, _ = run("gen-coding", "--preset", SKEW, "--alpha", "1.2", "--length",
                 str(length), "--seed", "9", "--block-ends", ends)
    doc = json.loads(out)
    system = parse_preset(SKEW)
    trace = exponent_trace(system, compute_constants(system),
                           Coding(prefix=tuple(doc["digits"])), length)
    n_last = doc["block_ends"][-1]
    assert doc["diagnostics"] == {
        "gamma2_at_last_block": float(trace.g2[n_last - 1]),
        "gamma0_at_last_block": float(trace.g0[n_last - 1])}


@pytest.mark.parametrize("extra, message", [
    (("--p", "0.5,0.3,0.2"), "one per branch"),
    (("--p", "1.0"), "one per branch"),
    (("--p", "nan,1"), "probability vector"),
    (("--block-ends", "5000"), "no block end lies at or below --length 2000")],
    ids=["p-too-long", "p-too-short", "p-nan", "no-block-end"])
def test_gen_coding_schedule_errors(run, extra, message):
    """A frequency vector of the wrong length or with a NaN weight, or a
    schedule with no block end inside the coding, is one named JSON error
    on stderr."""
    out, err = run("gen-coding", "--preset", SKEW, "--alpha", "1.2",
                   "--length", "2000", *extra, expect=1)
    doc = json.loads(err)
    assert out == "" and doc["error"] == "InvalidSchedule"
    assert message in doc["message"]


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


GOLDEN = json.loads(pathlib.Path(__file__).with_name("cli_golden.json")
                    .read_text())


@pytest.fixture(scope="module")
def pinned():
    """pinned(key) is regen_cli_golden.pin of the argv `key` (written with
    shlex.join), run once per module: the manifest test, the README test
    and the named pins below share each command's one run."""
    return functools.cache(lambda key: pin(shlex.split(key)))


def _moved(pinned, key):
    """None if the command `key` of tests/cli_golden.json exits and prints
    to stdout as pinned there, else a line that says what moved."""
    assert shlex.join(shlex.split(key)) == key
    want = GOLDEN[key]
    try:
        got, _, err = pinned(key)
    except Exception as exc:
        return f"{key}: raised {type(exc).__name__}: {exc}"
    if got == want:
        return None
    line = (f"{key}: sha256 {want['sha256'][:12]} -> {got['sha256'][:12]}, "
            f"{want['bytes']} -> {got['bytes']} bytes")
    if got["exit"] != want["exit"]:
        line += f", exit {want['exit']} -> {got['exit']}: {err.strip()}"
    return line


def test_readme_examples_run(pinned):
    examples = _readme_examples()
    assert {argv[0] for argv, _ in examples} == {
        "validate", "constants", "eval", "sample", "coding", "exponent",
        "spectrum", "verify", "gen-coding"}
    for argv, shown in examples:
        got, out, err = pinned(shlex.join(argv))
        assert got["exit"] == 0, err
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


def test_cli_output_matches_golden(pinned):
    """Every command of tests/cli_golden.json (one argv per key, written
    with shlex.join) exits and prints to stdout as pinned there.  One
    failure lists each moved command with its old and new sha256 prefix and
    byte length; tests/regen_cli_golden.py rewrites the manifest."""
    assert {shlex.join(argv) for argv, _ in _readme_examples()} <= GOLDEN.keys()
    moved = [line for key in GOLDEN if (line := _moved(pinned, key))]
    if moved:
        pytest.fail(f"{len(moved)} commands moved:\n" + "\n".join(moved),
                    pytrace=False)


def _assert_pinned(pinned, argv):
    """The command argv is a key of tests/cli_golden.json, and its output
    has not moved; returns its stdout."""
    key = shlex.join(argv)
    moved = _moved(pinned, key)
    assert moved is None, moved
    return pinned(key)[1]


# The commands of the pins that came before the manifest, each a test of its
# own: the depth of every `sample` grid point (ROADMAP item 1), the
# two-branch Legendre rows, and the README's `verify`, `coding` and
# `exponent` examples with the report at x = 0 (the all-1 coding)

def test_sample_output_is_pinned(pinned):
    _assert_pinned(pinned, ["sample", "--preset", "okamoto:0.6", "--points",
                            "1001", "--tol", "1e-12"])


@pytest.mark.parametrize("preset", ["riesz-nagy:0.3", "skew-takagi:0.3,0.5,0.25",
                                    "skew-takagi:0.4,1,0.3"])
def test_spectrum_two_branch_output_is_pinned(pinned, preset):
    out = _assert_pinned(pinned, ["spectrum", "--preset", preset, "--points",
                                  "201"])
    assert len(out.splitlines()) >= 202


def test_verify_ae_readme_output_is_pinned(pinned):
    _assert_pinned(pinned, ["verify", "--preset", "riesz-nagy:0.3", "--mode",
                            "ae", "--points", "1000", "--horizon", "10000",
                            "--seed", "1"])


PINNED_ARGV = [
    ("coding", "--preset", "okamoto:0.6", "--x", "0.4", "--depth", "64"),
    ("coding", "--preset", "okamoto:0.6", "--coding", "1,2,(1,3)", "--in-t"),
    ("exponent", "--preset", "riesz-nagy:0.3", "--coding", "1,(1,2)"),
    ("exponent", "--preset", "okamoto:0.5", "--x", "0.4444444444444444"),
    ("exponent", "--preset", "riesz-nagy:0.3", "--coding", "1,1,(1)"),
]


@pytest.mark.parametrize("argv", PINNED_ARGV, ids=" ".join)
def test_coding_and_exponent_output_is_pinned(pinned, argv):
    _assert_pinned(pinned, list(argv))


def test_readme_python_quick_start():
    """The README's Python block runs, and every comment that starts with a
    number is the repr of the expression on its line."""
    block, = re.findall(r"```python\n(.*?)```", README.read_text(), re.S)
    lines = block.splitlines()
    scope, checked = {}, 0
    for node in ast.parse(block).body:
        shown = re.search(r"#\s*([-+]?\d[\d.eE+-]*)", lines[node.end_lineno - 1])
        if isinstance(node, ast.Expr) and shown:
            value = eval(compile(ast.Expression(node.value), "README", "eval"),
                         scope)
            assert repr(value) == shown.group(1), ast.unparse(node)
            checked += 1
        else:
            exec(compile(ast.Module([node], []), "README", "exec"), scope)
    assert checked >= 3
