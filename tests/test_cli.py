import importlib.abc
import json
import math
import os
import runpy
import signal
import subprocess
import sys
import time
from decimal import Decimal
from pathlib import Path

import pytest

from mackey import cli, verify
from mackey.cli import canonical_json, main
from mackey.partitions import EMPTY, Partition, format_partition, partitions_up_to
from mackey.socle import socle_layers, tensor_length


def run_cli(capsys, *argv):
    code = main(list(argv))
    captured = capsys.readouterr()
    return code, captured.out, captured.err


def test_socle_text_output(capsys):
    code, out, err = run_cli(capsys, "socle", "--lambda", "1", "--mu", "-")
    assert code == 0 and err == ""
    lines = out.splitlines()
    assert lines[0].startswith("socle filtration of W(lambda=1, mu=-): 2 layers, length 2")
    assert lines[1] == "layer 0: (alpha=-, beta=1, mu=-) x1"
    assert lines[2] == "layer 1: (alpha=1, beta=-, mu=-) x1"


def test_socle_single_layer(capsys):
    code, out, _ = run_cli(capsys, "socle", "--lambda", "-", "--mu", "2")
    assert code == 0
    assert len(out.splitlines()) == 2  # header plus the single layer


def socle_json_from_fields(report):
    """The dict that the socle JSON encodes, built from the report's fields."""
    return {
        "lambda": list(report.lam),
        "mu": list(report.mu),
        "layers": [[{"alpha": list(c.alpha), "beta": list(c.beta), "mu": list(c.mu),
                     "mult": c.multiplicity} for c in layer] for layer in report.layers],
    }


def test_socle_json_round_trips_byte_identical(capsys):
    code, out, _ = run_cli(capsys, "socle", "--lambda", "2,1", "--mu", "-",
                           "--format", "json")
    assert code == 0
    text = out.strip()
    data = json.loads(text)
    assert canonical_json(data) == text
    assert len(data["layers"]) == 4
    assert sum(len(layer) for layer in data["layers"]) == 6
    # the hand-written JSON is json.dumps of the report's dict, compact, byte for byte
    for lam in partitions_up_to(8):
        for mu in (EMPTY, Partition([2, 1])):
            code, out, err = run_cli(capsys, "socle", "--lambda", format_partition(lam),
                                     "--mu", format_partition(mu), "--format", "json")
            expected = json.dumps(socle_json_from_fields(socle_layers(lam, mu)),
                                  separators=(",", ":"))
            assert (code, out, err) == (0, expected + "\n", ""), (lam, mu)


def test_socle_rejects_bad_partition(capsys):
    code, out, err = run_cli(capsys, "socle", "--lambda", "1,2", "--mu", "-")
    assert code == 2 and out == ""
    assert err == "error: invalid partition for --lambda: parts not weakly decreasing: (1, 2)\n"


def test_length_values(capsys):
    assert run_cli(capsys, "length", "--m", "1", "--n", "0")[1].strip() == "2"
    assert run_cli(capsys, "length", "--m", "0", "--n", "1")[1].strip() == "1"
    assert run_cli(capsys, "length", "--m", "1", "--n", "1")[1].strip() == "3"


def test_length_at_large_degrees(capsys):
    # the closed form answers at once where enumerating the mixed
    # constituents runs out of memory
    code, out, err = run_cli(capsys, "length", "--m", "60", "--n", "60")
    assert code == 0 and err == ""
    assert int(out) == tensor_length(60, 60) > 10 ** 100


def test_simple_length(capsys):
    code, out, _ = run_cli(capsys, "simple-length", "--lambda", "2,1", "--mu", "-")
    assert code == 0 and out.strip() == "6"


def test_lr(capsys):
    code, out, _ = run_cli(capsys, "lr", "2,1", "1", "2")
    assert code == 0 and out.strip() == "1"


def test_coproduct_text_deterministic(capsys):
    code, first, _ = run_cli(capsys, "coproduct", "1")
    assert code == 0
    assert first.splitlines() == ["1 * (-) (x) (1)", "1 * (1) (x) (-)"]
    _, second, _ = run_cli(capsys, "coproduct", "1")
    assert first == second


def test_coproduct_json(capsys):
    code, out, _ = run_cli(capsys, "coproduct", "2,1", "--format", "json")
    assert code == 0
    data = json.loads(out)
    assert len(data) == 6
    assert canonical_json(data) == out.strip()


GOLDEN = Path(__file__).parent / "golden"


@pytest.mark.parametrize("name, argv", [
    ("coproduct_321.txt", ["coproduct", "3,2,1"]),
    ("coproduct_321.json", ["coproduct", "3,2,1", "--format", "json"]),
    ("socle_321_1.json", ["socle", "--lambda", "3,2,1", "--mu", "1", "--format", "json"]),
    ("coproduct_4321.json", ["coproduct", "4,3,2,1", "--format", "json"]),
    ("socle_4321_21.json", ["socle", "--lambda", "4,3,2,1", "--mu", "2,1", "--format", "json"]),
])
def test_output_matches_the_golden_file(name, argv):
    result = subprocess.run([sys.executable, "-m", "mackey", *argv],
                            capture_output=True)
    assert result.returncode == 0 and result.stderr == b""
    assert result.stdout == (GOLDEN / name).read_bytes()


def test_dim(capsys):
    code, out, _ = run_cli(capsys, "dim", "--rank", "3", "--lambda", "1", "--mu", "1")
    assert code == 0 and out.strip() == "8"
    # the time does not grow with the rank
    code, out, _ = run_cli(capsys, "dim", "--rank", str(10**18), "--lambda", "1", "--mu", "-")
    assert code == 0 and out.strip() == str(10**18)


def test_answers_past_the_interpreter_digit_limit_print_in_full(capsys):
    # str(int) refuses more than 4300 digits
    code, out, err = run_cli(capsys, "length", "--m", "3000", "--n", "0")
    assert code == 0 and err == "" and len(out.strip()) > 4300
    assert int(Decimal(out)) == tensor_length(3000, 0)
    # S^3000(C^N) has dimension C(N + 2999, 3000)
    code, out, err = run_cli(capsys, "dim", "--rank", "1000000", "--lambda", "3000", "--mu", "-")
    assert code == 0 and err == "" and len(out.strip()) > 4300
    assert int(Decimal(out)) == math.comb(10**6 + 2999, 3000)


def test_too_long_an_answer_exits_2_with_its_size(capsys):
    code, out, err = run_cli(capsys, "dim", "--rank", str(10**18),
                             "--lambda", "20000", "--mu", "-")
    assert code == 2 and out == ""
    assert err.splitlines() == [
        "error: the answer has about 282658 digits, more than the 100000 this command prints"]


def test_too_long_a_length_is_refused_before_it_is_computed(capsys):
    # the length is at least 2^(m + n//2); computing it would run out of memory
    for argv, digits in [(("--m", "100000000000", "--n", "0"), 30102539062),
                         (("--m", "0", "--n", "200000000000"), 30102539062)]:
        start = time.perf_counter()
        code, out, err = run_cli(capsys, "length", *argv)
        assert time.perf_counter() - start < 0.5
        assert code == 2 and out == ""
        assert err.splitlines() == [f"error: the answer has about {digits} digits, "
                                    "more than the 100000 this command prints"]


def test_a_length_over_the_work_bound_is_refused_before_it_is_computed(capsys):
    # both pass the digit check, and the sum would take seconds
    for m, n, steps in [(10000, 10000, "1.6e+12"), (30000, 2000, "6.8e+11")]:
        start = time.perf_counter()
        code, out, err = run_cli(capsys, "length", "--m", str(m), "--n", str(n))
        assert time.perf_counter() - start < 0.5
        assert code == 2 and out == ""
        assert err.splitlines() == [f"error: the length at m={m}, n={n} takes about {steps} "
                                    "steps, more than the 4e+10 this command allows"]


def test_a_length_just_past_the_digit_limit_is_refused_before_it_is_computed(capsys):
    # both pass the work bound; computing either would take about a second
    for m, n, digits in [(49556, 0, 109477), (0, 49556, 102018)]:
        start = time.perf_counter()
        code, out, err = run_cli(capsys, "length", "--m", str(m), "--n", str(n))
        assert time.perf_counter() - start < 0.5
        assert code == 2 and out == ""
        assert err.splitlines() == [f"error: the answer has about {digits} digits, "
                                    "more than the 100000 this command prints"]


def test_the_digit_bound_of_a_length_is_at_most_its_bits():
    # T(m, n) for m, n < 200 from the recurrences of its generating function,
    # T(m+1, n) = 2 T + 2m T(m-1, n) + n T(m, n-1), T(0, n+1) = T + n T(0, n-1)
    size = 200
    table = [[0] * size for _ in range(size)]
    for n in range(size):
        table[0][n] = 1 if n < 2 else table[0][n - 1] + (n - 1) * table[0][n - 2]
    for m in range(size - 1):
        for n in range(size):
            table[m + 1][n] = (2 * table[m][n] + (2 * m * table[m - 1][n] if m else 0)
                               + (n * table[m][n - 1] if n else 0))
    assert table[60][60] == tensor_length(60, 60)
    for m in range(size):
        for n in range(size):
            assert cli._length_bits_at_least(m, n) <= table[m][n].bit_length(), (m, n)
    # along the work bound: the two inputs refused above really are too long,
    # and (44000, 0), with 99354 digits, passes
    for m, n in [(49556, 0), (0, 49556)]:
        assert cli._length_bits_at_least(m, n) <= tensor_length(m, n).bit_length(), (m, n)
    cli._check_digits(cli._length_bits_at_least(44000, 0))


def test_a_length_under_the_work_bound_is_answered(capsys):
    code, out, err = run_cli(capsys, "length", "--m", "2000", "--n", "2000")
    assert code == 0 and err == ""
    assert int(Decimal(out)) == tensor_length(2000, 2000)


def test_a_long_plain_length_keeps_a_small_peak_memory():
    # the peak is read in the child, so that it counts that one command only
    script = ("import resource, sys\n"
              "from mackey.cli import main\n"
              "code = main(['length', '--m', '0', '--n', '30000'])\n"
              "print(resource.getrusage(resource.RUSAGE_SELF).ru_maxrss, file=sys.stderr)\n"
              "sys.exit(code)\n")
    result = subprocess.run([sys.executable, "-c", script], capture_output=True)
    assert result.returncode == 0 and len(result.stdout) > 60000
    assert int(result.stderr) < 100 * 1024  # kilobytes on Linux


def test_one_long_row_is_answered(capsys):
    # 1100 cells: the LR enumeration keeps its own stack, so the length of
    # a row is not bounded by the recursion limit
    code, out, err = run_cli(capsys, "lr", "1100", "-", "1100")
    assert code == 0 and err == ""
    assert out.strip() == "1"


def test_recursion_error_exits_2_with_one_line(capsys, monkeypatch):
    def too_deep(*args):
        raise RecursionError("maximum recursion depth exceeded")
    monkeypatch.setattr(cli, "lr_coefficient", too_deep)
    code, out, err = run_cli(capsys, "lr", "2,1", "1", "2")
    assert code == 2 and out == ""
    assert err.splitlines() == ["error: input too deep: recursion limit exceeded"]


def test_dim_rank_too_small(capsys):
    code, out, err = run_cli(capsys, "dim", "--rank", "1",
                             "--lambda", "1", "--mu", "1")
    assert code == 2 and out == "" and "rank" in err


def test_negative_degree_is_usage_error(capsys):
    code, _, err = run_cli(capsys, "length", "--m", "-1", "--n", "0")
    assert code == 2 and "error" in err


@pytest.mark.parametrize("argv, env, line", [
    (["socle", "--lambda", "1,2", "--mu", "-"], {},
     "error: invalid partition for --lambda: parts not weakly decreasing: (1, 2)"),
    (["lr", "2,1", "x", "1"], {},
     "error: invalid partition for mu: malformed partition 'x': "
     "parts are positive integers in ASCII digits, without leading zeros"),
    (["dim", "--rank", "1", "--lambda", "1", "--mu", "1"], {},
     "error: rank 1 too small for bipartition with 1+1 rows"),
    (["verify", "brute"], {"SOCLE_BUDGET": "abc"},
     "error: SOCLE_BUDGET must be an integer, got 'abc'"),
    (["dim", "--rank", "0", "--lambda", "-", "--mu", "-"], {},
     "error: rank must be positive"),
])
def test_a_usage_error_exits_2_with_its_line(argv, env, line):
    result = subprocess.run([sys.executable, "-m", "mackey", *argv],
                            capture_output=True, text=True, env={**os.environ, **env})
    assert result.returncode == 2 and result.stdout == ""
    assert result.stderr == line + "\n"


def test_unknown_suite_is_usage_error():
    with pytest.raises(SystemExit) as exc:
        main(["verify", "nonsense"])
    assert exc.value.code == 2


@pytest.mark.parametrize("suite", ["hopf", "branching", "brute"])
def test_each_suite_prints_its_lines_of_verify_all(capsys, suite):
    code, out, err = run_cli(capsys, "verify", suite)
    assert code == 0 and err == ""
    golden = (GOLDEN / "verify_all.txt").read_text().splitlines(keepends=True)
    assert len(golden) == len(verify.CHECKS)
    # the golden lines of a suite sit where its rows sit in verify.CHECKS
    assert out == "".join(line for line, (row_suite, _, _) in zip(golden, verify.CHECKS)
                          if row_suite == suite)


def test_a_failing_check_reports_its_count_and_first_case(capsys, monkeypatch):
    # off by one at rank 5, which only the left side a + b reaches
    real = verify.dim_schur
    monkeypatch.setattr(verify, "dim_schur",
                        lambda lam, n: real(lam, n) + (lam.size == 3 and n == 5))
    code, out, err = run_cli(capsys, "verify", "branching")
    assert code == 1
    assert out == ("[FAIL] branching dimension identity: "
                   "6/270 cases failed; first: lambda=3, a=2, b=3\n")
    assert err == "1 of 1 checks failed\n"


def test_a_check_that_raises_fails_and_every_check_still_prints(capsys, monkeypatch):
    # as the referee raises on a module it finds inconsistent, after one case
    def raising(budget, seed):
        yield None
        raise ValueError("module is not closed under the parabolic action")

    suite, title, _ = verify.CHECKS[9]
    checks = list(verify.CHECKS)
    checks[9] = (suite, title, raising)
    monkeypatch.setattr(verify, "CHECKS", checks)
    code, out, err = run_cli(capsys, "verify", "all")
    assert code == 1
    golden = (GOLDEN / "verify_all.txt").read_text().splitlines(keepends=True)
    golden[9] = f"[FAIL] {title}: raised: module is not closed under the parabolic action\n"
    assert out == "".join(golden)
    assert err == f"1 of {len(checks)} checks failed\n"


def test_verify_respects_budget_env(capsys, monkeypatch):
    monkeypatch.setenv("SOCLE_BUDGET", "2")
    code, _, err = run_cli(capsys, "verify", "brute")
    assert code == 1
    assert "budget" in err


def test_verify_rejects_a_nonpositive_budget_flag(capsys):
    for budget in ("0", "-1"):
        code, out, err = run_cli(capsys, "verify", "brute", "--budget", budget)
        assert code == 2 and out == ""
        assert err == f"error: budget must be positive, got {budget}\n"


def test_verify_rejects_a_nonpositive_budget_env(capsys, monkeypatch):
    monkeypatch.setenv("SOCLE_BUDGET", "0")
    code, out, err = run_cli(capsys, "verify", "brute")
    assert code == 2 and out == ""
    assert err == "error: budget must be positive, got 0\n"


def test_verify_budget_flag_overrides_env(capsys, monkeypatch):
    monkeypatch.setenv("SOCLE_BUDGET", "not-a-number")
    # explicit flag: env var never consulted
    code, _, err = run_cli(capsys, "verify", "branching", "--budget", "20000")
    assert code == 0


def test_entry_point_runs_as_module():
    result = subprocess.run(
        [sys.executable, "-m", "mackey", "lr", "2,1", "1", "1,1"],
        capture_output=True, text=True)
    assert result.returncode == 0
    assert result.stdout.strip() == "1"


def test_reader_closing_the_pipe_exits_quietly(tmp_path):
    # like `mackey socle ... | head -1`: about 220 kB of output, so the
    # writer meets the closed pipe after the first line is read
    with open(tmp_path / "stderr", "wb") as stderr:
        proc = subprocess.Popen(
            [sys.executable, "-m", "mackey", "socle", "--lambda", "6,5,4,3,2,1", "--mu", "-"],
            stdout=subprocess.PIPE, stderr=stderr)
        first = proc.stdout.readline()
        proc.stdout.close()
        code = proc.wait(timeout=120)
    assert first.startswith(b"socle filtration of W(lambda=6,5,4,3,2,1")
    err = (tmp_path / "stderr").read_bytes()
    assert b"Traceback" not in err and err == b""
    assert code in (0, 1, 2)


def test_interrupted_verify_exits_130(capsys, monkeypatch):
    def interrupted(*args, **kwargs):
        raise KeyboardInterrupt
    monkeypatch.setattr(verify, "run_suite", interrupted)
    code, out, err = run_cli(capsys, "verify", "all")
    assert code == 130 and out == ""
    assert err.splitlines() == ["interrupted"]


def test_ctrl_c_while_the_package_imports_exits_130(capsys, monkeypatch):
    class Interrupted(importlib.abc.MetaPathFinder):
        """Stands in for a mackey.cli whose import Ctrl-C interrupts."""

        def find_spec(self, name, path, target=None):
            if name == "mackey.cli":
                raise KeyboardInterrupt

    monkeypatch.delitem(sys.modules, "mackey.cli")
    monkeypatch.setattr(sys, "meta_path", [Interrupted(), *sys.meta_path])
    with pytest.raises((SystemExit, KeyboardInterrupt)) as exc:
        runpy.run_module("mackey", run_name="__main__")
    assert exc.type is SystemExit and exc.value.code == 130
    assert capsys.readouterr().err.splitlines() == ["interrupted"]


def test_ctrl_c_stops_a_long_command_with_one_line():
    # the coproduct of the staircase of size 36 runs for several seconds
    # (8-9 s on a 2-vCPU Xeon), far past the one second waited here
    proc = subprocess.Popen(
        [sys.executable, "-m", "mackey", "coproduct", "8,7,6,5,4,3,2,1"],
        stdout=subprocess.PIPE, stderr=subprocess.PIPE)
    try:
        time.sleep(1)
        assert proc.poll() is None
        proc.send_signal(signal.SIGINT)
        start = time.monotonic()
        out, err = proc.communicate(timeout=10)
        elapsed = time.monotonic() - start
    finally:
        proc.kill()
        proc.wait()
    assert proc.returncode == 130
    assert out == b""
    assert err.decode().splitlines() == ["interrupted"]
    assert elapsed < 5
