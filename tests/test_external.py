from __future__ import annotations

import io
import sys
import time

import numpy as np
import pytest

from cfobench import CfoConfig, get_objective, run
from cfobench.external import (
    EvaluationError,
    EvaluationTimeout,
    ExternalObjective,
    ProcessExited,
    ProtocolError,
    serve_objective,
)

SERVE = [sys.executable, "-m", "cfobench.external"]


def test_echo_round_trip():
    with ExternalObjective(SERVE + ["echo"]) as client:
        assert client.evaluate([[0.3, 0.7]])[0] == 1.5
        assert client.evaluate([[0.0, 0.0], [2.0, -2.0]], step=4)[1] == 1.5
        assert client.n_evaluations == 3


def test_quadratic_matches_builtin():
    builtin = get_objective("neg_sum_squares", n_dims=3)
    rng = np.random.default_rng(777)
    with ExternalObjective(SERVE + ["quadratic"], timeout=30.0) as client:
        for p in rng.uniform(-5.0, 5.0, size=(10, 3)):
            assert client.evaluate([p])[0] == pytest.approx(
                builtin.evaluate(p), rel=1e-15)


def test_full_run_through_the_bridge():
    obj = get_objective(
        "external",
        command=SERVE + ["quadratic"],
        bounds=[(-5.0, 5.0)] * 2,
        timeout=30.0,
    )
    try:
        # asymmetric start: the on-axis layouts all tie on this bowl
        cfg = CfoConfig(n_probes=4, n_steps=40, init_scheme="custom",
                        initial_probes=np.array(
                            [[-4.0, -3.0], [4.0, -1.0], [1.0, 3.0], [-2.0, 2.0]]))
        rec = run(cfg, obj.bounds, obj)
        assert rec.final_best_fitness > rec.best_fitness[0]
        assert rec.final_best_fitness > -2.0
        assert rec.n_eval[-1] == 41 * 4
    finally:
        obj.close()


def test_malformed_reply_is_a_protocol_error():
    with ExternalObjective(SERVE + ["malformed"]) as client:
        with pytest.raises(ProtocolError, match="unrecognized reply"):
            client.evaluate([[1.0]])


def test_sleepy_evaluator_times_out():
    with ExternalObjective(SERVE + ["sleepy"], timeout=0.5) as client:
        with pytest.raises(EvaluationTimeout, match="no reply within"):
            client.evaluate([[1.0]])


def test_close_after_a_timeout_stops_the_child_at_once(spawned):
    client = ExternalObjective(SERVE + ["sleepy"], timeout=0.5)
    with pytest.raises(EvaluationTimeout):
        client.evaluate([[1.0]])
    start = time.perf_counter()
    client.close()
    assert time.perf_counter() - start < 0.9
    assert len(spawned) == 1 and spawned[0].poll() is not None


def test_bad_handshake_is_rejected(spawned):
    with pytest.raises(ProtocolError, match="unsupported protocol version"):
        ExternalObjective(SERVE + ["badshake"])
    assert len(spawned) == 1 and spawned[0].poll() is not None


def test_handshake_timeout_reaps_the_child(spawned):
    silent = [sys.executable, "-c", "import sys; sys.stdin.read()"]
    with pytest.raises(EvaluationTimeout, match="no reply within"):
        ExternalObjective(silent, timeout=0.5)
    assert len(spawned) == 1 and spawned[0].poll() is not None


def test_child_death_is_reported():
    client = ExternalObjective([sys.executable, "-c",
                                "print('CFO-OBJ 1', flush=True)"])
    with pytest.raises(ProcessExited, match="stream ended"):
        client.evaluate([[1.0]])
    client.close()


def test_error_reply_carries_the_message():
    code = (
        "import sys\n"
        "print('CFO-OBJ 1', flush=True)\n"
        "for line in sys.stdin:\n"
        "    print('ERROR coordinate out of range', flush=True)\n"
    )
    with ExternalObjective([sys.executable, "-c", code]) as client:
        with pytest.raises(EvaluationError, match="coordinate out of range"):
            client.evaluate([[1.0]])


def test_closed_client_refuses_work():
    client = ExternalObjective(SERVE + ["echo"])
    client.close()
    client.close()  # idempotent
    with pytest.raises(ProcessExited, match="closed client"):
        client.evaluate([[0.0]])


def test_serve_objective_in_process():
    requests = io.StringIO(
        "EVAL runA 0 1 2 1 2\n"
        "EVAL runA 0 2 2 3 4\n"
        "garbled nonsense\n"
        "EVAL runA 1 1 1 not-a-number\n"
    )
    out = io.StringIO()
    rc = serve_objective(lambda c: sum(c), stdin=requests, stdout=out)
    assert rc == 0
    lines = out.getvalue().splitlines()
    assert lines[0] == "CFO-OBJ 1"
    assert lines[1] == "FITNESS 3"
    assert lines[2] == "FITNESS 7"
    assert lines[3].startswith("ERROR malformed request")
    assert lines[4].startswith("ERROR")


def test_serve_objective_reports_evaluator_exceptions():
    def touchy(coords):
        raise ValueError("bad   geometry\nhere")

    out = io.StringIO()
    serve_objective(touchy, stdin=io.StringIO("EVAL r 0 1 1 0.5\n"), stdout=out)
    lines = out.getvalue().splitlines()
    assert lines[1] == "ERROR bad geometry here"


def test_request_wire_format():
    captured = []

    code = (
        "import sys\n"
        "print('CFO-OBJ 1', flush=True)\n"
        "for line in sys.stdin:\n"
        "    sys.stderr.write(line)\n"
        "    sys.stderr.flush()\n"
        "    print('FITNESS 0', flush=True)\n"
    )
    client = ExternalObjective([sys.executable, "-c", code])
    client.evaluate([[0.0, 0.0], [0.0, 0.0], [0.5, -1.0 / 3.0]], step=12)
    client.close()
    tail = list(client._stderr_tail)
    assert len(tail) == 3, "request lines should have been echoed to stderr"
    fields = tail[2].split()
    assert fields[:5] == ["EVAL", "run0", "12", "3", "2"]
    assert float(fields[5]) == 0.5
    assert float(fields[6]) == -1.0 / 3.0  # 17 significant digits round-trip


def test_requests_carry_the_step_and_probe():
    # the evaluator replies 10 * step + probe, so the run's fitness history
    # shows what every request carried
    code = (
        "import sys\n"
        "print('CFO-OBJ 1', flush=True)\n"
        "for line in sys.stdin:\n"
        "    f = line.split()\n"
        "    print('FITNESS', 10 * int(f[2]) + int(f[3]), flush=True)\n"
    )
    obj = get_objective("external", command=[sys.executable, "-c", code],
                        bounds=[[-1.0, 1.0], [-1.0, 1.0]])
    try:
        rec = run(CfoConfig(n_probes=4, n_steps=2), obj.bounds, obj, keep_history=True)
    finally:
        obj.close()
    assert rec.fitness_history.tolist() == [[10 * s + p for p in range(1, 5)] for s in range(3)]


def test_a_run_sends_one_request_line_per_probe_in_the_wire_format():
    # the evaluator echoes every request to stderr; the lines must be the
    # ones the format below builds from the run's positions, in order
    code = (
        "import sys\n"
        "print('CFO-OBJ 1', flush=True)\n"
        "for line in sys.stdin:\n"
        "    sys.stderr.write(line)\n"
        "    sys.stderr.flush()\n"
        "    x, y = map(float, line.split()[5:])\n"
        "    print('FITNESS %.17g' % -(x * x + y * y), flush=True)\n"
    )
    obj = get_objective("external", command=[sys.executable, "-c", code],
                        bounds=[[-1.0, 1.0], [-2.0, 2.0]])
    try:
        rec = run(CfoConfig(n_probes=4, n_steps=2), obj.bounds, obj, keep_history=True)
    finally:
        obj.close()
    expected = [
        "EVAL %s %d %d %d %s" % ("run0", step, probe, len(x), " ".join("%.17g" % v for v in x))
        for step, positions in enumerate(rec.positions_history.tolist())
        for probe, x in enumerate(positions, 1)
    ]
    assert len(expected) == 12
    assert list(obj.close.__self__._stderr_tail) == expected


def test_a_batch_larger_than_the_pipe_buffers_comes_back_whole():
    # 100,000 requests fill the child's stdin while its replies fill our
    # stdout pipe; a client that only wrote, or only read, would deadlock
    rows = np.random.default_rng(5).uniform(-5.0, 5.0, size=(100_000, 3))
    builtin = get_objective("neg_sum_squares", n_dims=3)
    with ExternalObjective(SERVE + ["quadratic"], timeout=30.0) as client:
        values = client.evaluate(rows.tolist())
    assert values == builtin.evaluate_batch(rows).tolist()


def test_a_large_batch_to_a_stalled_child_times_out(spawned):
    # the child reads one request and stalls, so the rest of the batch
    # cannot be sent either; the timeout covers the sending
    client = ExternalObjective(SERVE + ["sleepy"], timeout=0.5)
    start = time.perf_counter()
    with pytest.raises(EvaluationTimeout, match=r"no reply within 0\.5 s") as err:
        client.evaluate([[0.25, -0.5, 1.0]] * 5000)
    assert time.perf_counter() - start < 1.0
    assert err.value.failed_row == 1
    client.close()
    assert spawned[0].poll() is not None


def test_error_replies_fail_the_first_bad_row_and_keep_the_client_in_step():
    # at step 0 odd probes get ERROR; every other reply is 10 * step + probe
    code = (
        "import sys\n"
        "print('CFO-OBJ 1', flush=True)\n"
        "for line in sys.stdin:\n"
        "    step, probe = map(int, line.split()[2:4])\n"
        "    if step == 0 and probe % 2:\n"
        "        print('ERROR odd probe', probe, flush=True)\n"
        "    else:\n"
        "        print('FITNESS', 10 * step + probe, flush=True)\n"
    )
    with ExternalObjective([sys.executable, "-c", code]) as client:
        with pytest.raises(EvaluationError, match="odd probe 1$") as err:
            client.evaluate([[0.0]] * 4)
        assert err.value.failed_row == 1
        assert client.evaluate([[0.0]] * 4, step=1) == [11.0, 12.0, 13.0, 14.0]


def test_a_child_that_exits_mid_batch_is_reported_at_the_first_missing_row():
    code = (
        "import sys\n"
        "print('CFO-OBJ 1', flush=True)\n"
        "for _ in range(2):\n"
        "    sys.stdin.readline()\n"
        "    print('FITNESS 1', flush=True)\n"
    )
    client = ExternalObjective([sys.executable, "-c", code])
    with pytest.raises(ProcessExited, match="stream ended") as err:
        client.evaluate([[0.0]] * 4)
    assert err.value.failed_row == 3
    client.close()


def test_replies_are_read_with_universal_newlines():
    # \r\n and a lone \r end a reply line, as in a text-mode pipe (which
    # also holds back a trailing \r until it sees what follows)
    code = (
        "import sys\n"
        "sys.stdout.buffer.write(b'CFO-OBJ 1\\r\\n')\n"
        "sys.stdout.flush()\n"
        "for line in sys.stdin:\n"
        "    end = b'\\r\\n' if line.split()[3] == '3' else b'\\r'\n"
        "    sys.stdout.buffer.write(b'FITNESS 2.5' + end)\n"
        "    sys.stdout.flush()\n"
    )
    with ExternalObjective([sys.executable, "-c", code], timeout=5.0) as client:
        assert client.evaluate([[0.0]] * 3) == [2.5, 2.5, 2.5]
