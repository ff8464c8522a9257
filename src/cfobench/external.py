"""Bridge to objective functions running in a separate process.

The wire protocol is line-oriented text over the child's standard streams:

  - on startup the child prints ``CFO-OBJ 1``
  - each request is ``EVAL <run_id> <step> <probe> <n_dims> <x1> ... <xNd>``
    with coordinates formatted to 17 significant digits
  - each reply is ``FITNESS <value>`` or ``ERROR <message>``

Determinism of a run driven through this bridge is the child's business:
the harness replays requests identically, so a deterministic evaluator
yields a deterministic run.

``python -m cfobench.external quadratic`` serves a small built-in evaluator
(see ``main`` for the full list); the other built-ins deliberately misbehave
so the failure paths can be exercised in tests.
"""

from __future__ import annotations

import argparse
import queue
import subprocess
import sys
import threading
import time
from collections import deque

from . import ObjectiveError

PROTOCOL_VERSION = "1"
HANDSHAKE = "CFO-OBJ " + PROTOCOL_VERSION
RUN_ID = "run0"  # the <run_id> field of every request

_STDERR_TAIL_LINES = 40


class ExternalObjectiveError(ObjectiveError):
    """Base class for failures while talking to an external evaluator."""


class ProtocolError(ExternalObjectiveError):
    """The child wrote something the protocol does not allow."""


class EvaluationTimeout(ExternalObjectiveError):
    """The child did not reply within the configured timeout."""


class ProcessExited(ExternalObjectiveError):
    """The child exited (or closed its pipes) while a reply was pending."""


class EvaluationError(ExternalObjectiveError):
    """The child replied with an explicit ERROR line."""


class ExternalObjective:
    """Client handle for one external evaluator process.

    command is the child's argument list (the ``external`` objective splits
    a string command with shell quoting rules before it gets here).
    Single-consumer: the engine serializes evaluations per run, so no
    locking is done here. Use as a context manager or call close().
    """

    def __init__(self, command, timeout: float = 60.0):
        argv = [str(part) for part in command]
        if not argv:
            raise ValueError("external objective: empty command")
        self.command = argv
        self.timeout = float(timeout)
        self.n_evaluations = 0
        self._closed = False
        self._timed_out = False  # a child that missed a reply is stuck in it
        try:
            self._proc = subprocess.Popen(
                argv,
                stdin=subprocess.PIPE,
                stdout=subprocess.PIPE,
                stderr=subprocess.PIPE,
                text=True,
                bufsize=1,
            )
        except OSError as exc:
            raise ProcessExited(f"could not start {argv[0]!r}: {exc}") from exc
        self._replies: queue.Queue = queue.Queue()
        self._stderr_tail: deque = deque(maxlen=_STDERR_TAIL_LINES)
        self._stdout_thread = threading.Thread(
            target=self._pump_stdout, daemon=True, name="cfo-obj-stdout"
        )
        self._stderr_thread = threading.Thread(
            target=self._pump_stderr, daemon=True, name="cfo-obj-stderr"
        )
        self._stdout_thread.start()
        self._stderr_thread.start()
        try:
            self._check_handshake()
        except BaseException:
            # the reader threads hold this instance, so nothing else would
            # ever close the child
            self.close()
            raise

    # -- plumbing ----------------------------------------------------------

    def _pump_stdout(self):
        for line in self._proc.stdout:
            self._replies.put(line.rstrip("\n"))
        self._replies.put(None)  # EOF marker

    def _pump_stderr(self):
        for line in self._proc.stderr:
            self._stderr_tail.append(line.rstrip("\n"))

    def _diagnostics(self) -> str:
        rc = self._proc.poll()
        parts = [f"command {self.command!r}"]
        if rc is not None:
            parts.append(f"exit code {rc}")
        if self._stderr_tail:
            parts.append("stderr tail:\n" + "\n".join(self._stderr_tail))
        return "; ".join(parts)

    def _next_line(self, timeout: float) -> str:
        try:
            item = self._replies.get(timeout=timeout)
        except queue.Empty:
            self._timed_out = True
            raise EvaluationTimeout(
                f"no reply within {timeout:g} s; {self._diagnostics()}"
            ) from None
        if item is None:
            # give the exit code a moment to land before reporting
            try:
                self._proc.wait(timeout=1.0)
            except subprocess.TimeoutExpired:
                pass
            raise ProcessExited(
                f"evaluator stream ended; {self._diagnostics()}"
            )
        return item

    def _check_handshake(self):
        line = self._next_line(self.timeout).strip()
        fields = line.split()
        if len(fields) != 2 or fields[0] != "CFO-OBJ":
            raise ProtocolError(
                f"bad handshake {line!r} (expected {HANDSHAKE!r}); "
                + self._diagnostics()
            )
        if fields[1] != PROTOCOL_VERSION:
            raise ProtocolError(
                f"unsupported protocol version {fields[1]!r} "
                f"(this harness speaks version {PROTOCOL_VERSION})"
            )

    # -- public API --------------------------------------------------------

    def evaluate(self, x, step: int = 0, probe: int = 1) -> float:
        """Send one EVAL request and return the parsed fitness."""
        if self._closed:
            raise ProcessExited("evaluate() called on a closed client")
        coords = [float(v) for v in x]
        request = "EVAL %s %d %d %d %s\n" % (
            RUN_ID,
            int(step),
            int(probe),
            len(coords),
            " ".join("%.17g" % v for v in coords),
        )
        try:
            self._proc.stdin.write(request)
            self._proc.stdin.flush()
        except (BrokenPipeError, OSError, ValueError) as exc:
            raise ProcessExited(
                f"could not send request ({exc}); {self._diagnostics()}"
            ) from exc
        reply = self._next_line(self.timeout)
        fields = reply.split(None, 1)
        if not fields:
            raise ProtocolError("empty reply line")
        if fields[0] == "FITNESS":
            if len(fields) != 2 or len(fields[1].split()) != 1:
                raise ProtocolError(f"malformed fitness reply {reply!r}")
            try:
                value = float(fields[1])
            except ValueError:
                raise ProtocolError(
                    f"unparseable fitness value in reply {reply!r}"
                ) from None
            self.n_evaluations += 1
            return value
        if fields[0] == "ERROR":
            message = fields[1] if len(fields) == 2 else "unspecified"
            raise EvaluationError(f"evaluator reported: {message}")
        raise ProtocolError(f"unrecognized reply {reply!r}")

    def close(self):
        """Shut the child down; safe to call more than once.

        The child gets a second to exit after its stdin closes, unless it has
        already missed a reply: then it is terminated at once.
        """
        if self._closed:
            return
        self._closed = True
        proc = self._proc
        try:
            if proc.stdin:
                proc.stdin.close()
        except OSError:
            pass
        try:
            proc.wait(timeout=0.0 if self._timed_out else 1.0)
        except subprocess.TimeoutExpired:
            proc.terminate()
            try:
                proc.wait(timeout=2.0)
            except subprocess.TimeoutExpired:
                proc.kill()
                proc.wait()
        self._stdout_thread.join(timeout=1.0)
        self._stderr_thread.join(timeout=1.0)

    def __enter__(self):
        return self

    def __exit__(self, *exc_info):
        self.close()

    def __del__(self):
        try:
            self.close()
        except Exception:
            pass


# ---------------------------------------------------------------------------
# server side


def serve_objective(fn, stdin=None, stdout=None) -> int:
    """Serve ``fn(list_of_floats) -> float`` over the wire protocol.

    Runs until stdin closes. Exceptions raised by fn become ERROR replies;
    malformed requests get an ERROR reply as well, so a confused harness
    sees a diagnosis instead of a hang.
    """
    inp = sys.stdin if stdin is None else stdin
    out = sys.stdout if stdout is None else stdout

    def reply(text):
        out.write(text + "\n")
        out.flush()

    reply(HANDSHAKE)
    for line in inp:
        tokens = line.split()
        if not tokens:
            continue
        if tokens[0] != "EVAL" or len(tokens) < 5:
            reply("ERROR malformed request %r" % line.rstrip("\n"))
            continue
        try:
            n_dims = int(tokens[4])
            coords = [float(t) for t in tokens[5:]]
            if len(coords) != n_dims:
                raise ValueError(
                    f"expected {n_dims} coordinates, got {len(coords)}"
                )
            value = float(fn(coords))
        except Exception as exc:  # noqa: BLE001 - everything becomes ERROR
            message = " ".join(str(exc).split()) or exc.__class__.__name__
            reply("ERROR " + message)
            continue
        reply("FITNESS %.17g" % value)
    return 0


# ---------------------------------------------------------------------------
# built-in evaluators (test fixtures and protocol demos)


def _serve_echo() -> int:
    # the same fitness for every point
    return serve_objective(lambda coords: 1.5)


def _serve_quadratic() -> int:
    return serve_objective(lambda coords: -sum(v * v for v in coords))


def _serve_malformed() -> int:
    # handshakes correctly, then mistypes every fitness keyword
    print(HANDSHAKE, flush=True)
    for _line in sys.stdin:
        print("FITNES 1.0", flush=True)
    return 0


def _serve_sleepy() -> int:
    # handshakes correctly, then stalls an hour before each reply
    print(HANDSHAKE, flush=True)
    for line in sys.stdin:
        if line.strip():
            time.sleep(3600.0)
            print("FITNESS 0", flush=True)
    return 0


def _serve_badshake() -> int:
    print("CFO-OBJ 999", flush=True)
    sys.stdin.read()
    return 0


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(
        prog="python -m cfobench.external",
        description="serve a built-in external-protocol objective",
    )
    parser.add_argument(
        "name",
        choices=["quadratic", "echo", "malformed", "sleepy", "badshake"],
        help="which built-in evaluator to run",
    )
    args = parser.parse_args(argv)
    if args.name == "quadratic":
        return _serve_quadratic()
    if args.name == "echo":
        return _serve_echo()
    if args.name == "malformed":
        return _serve_malformed()
    if args.name == "sleepy":
        return _serve_sleepy()
    return _serve_badshake()


if __name__ == "__main__":
    sys.exit(main())
