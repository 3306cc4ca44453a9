import json
import signal
import subprocess
import sys
import time

import pytest

from mackey import verify
from mackey.cli import canonical_json, main
from mackey.socle import tensor_length


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


def test_socle_json_round_trips_byte_identical(capsys):
    code, out, _ = run_cli(capsys, "socle", "--lambda", "2,1", "--mu", "-",
                           "--format", "json")
    assert code == 0
    text = out.strip()
    data = json.loads(text)
    assert canonical_json(data) == text
    assert len(data["layers"]) == 4
    assert sum(len(layer) for layer in data["layers"]) == 6


def test_socle_rejects_bad_partition(capsys):
    with pytest.raises(SystemExit) as exc:
        main(["socle", "--lambda", "1,2", "--mu", "-"])
    assert exc.value.code == 2
    err = capsys.readouterr().err
    assert "--lambda" in err


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


def test_dim(capsys):
    code, out, _ = run_cli(capsys, "dim", "--rank", "3", "--lambda", "1", "--mu", "1")
    assert code == 0 and out.strip() == "8"
    # the time does not grow with the rank
    code, out, _ = run_cli(capsys, "dim", "--rank", str(10**18), "--lambda", "1", "--mu", "-")
    assert code == 0 and out.strip() == str(10**18)


def test_too_deep_input_exits_2_with_one_line(capsys):
    # the LR enumerator recurses once per cell of lambda
    code, out, err = run_cli(capsys, "lr", "1100", "-", "1100")
    assert code == 2 and out == ""
    assert len(err.splitlines()) == 1 and err.startswith("error: ")
    assert "Traceback" not in err


def test_dim_rank_too_small(capsys):
    code, out, err = run_cli(capsys, "dim", "--rank", "1",
                             "--lambda", "1", "--mu", "1")
    assert code == 2 and out == "" and "rank" in err


def test_negative_degree_is_usage_error(capsys):
    code, _, err = run_cli(capsys, "length", "--m", "-1", "--n", "0")
    assert code == 2 and "error" in err


def test_unknown_suite_is_usage_error():
    with pytest.raises(SystemExit) as exc:
        main(["verify", "nonsense"])
    assert exc.value.code == 2


def test_verify_hopf_passes(capsys):
    code, out, err = run_cli(capsys, "verify", "hopf")
    assert code == 0 and err == ""
    lines = out.splitlines()
    assert len(lines) == 6
    assert all(line.startswith("[pass]") for line in lines)


def test_verify_branching_passes(capsys):
    code, out, _ = run_cli(capsys, "verify", "branching")
    assert code == 0
    assert out.startswith("[pass] branching dimension identity")


def test_verify_respects_budget_env(capsys, monkeypatch):
    monkeypatch.setenv("SOCLE_BUDGET", "2")
    code, _, err = run_cli(capsys, "verify", "brute")
    assert code == 1
    assert "budget" in err


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


def test_ctrl_c_stops_a_long_command_with_one_line():
    # the coproduct of the staircase of size 36 runs for minutes
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
