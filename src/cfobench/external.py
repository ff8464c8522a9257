"""Bridge to objective functions running in a separate process.

The wire protocol is line-oriented text over the child's standard streams:

  - on startup the child prints ``CFO-OBJ 1``
  - each request is ``EVAL <run_id> <step> <probe> <n_dims> <x1> ... <xNd>``
    with coordinates formatted to 17 significant digits
  - each reply is ``FITNESS <value>`` or ``ERROR <message>``

Replies come in request order, one per request. The client pipelines a
batch: it writes every request of the batch (one engine step, or one grid
chunk) before it reads the first reply, so a child may find a whole batch
waiting on its stdin, and after an ``ERROR`` reply the batch's later
requests have already been sent. The client still reads their replies, so
it stays in step with the child.

Determinism of a run driven through this bridge is the child's business:
the harness replays requests identically, so a deterministic evaluator
yields a deterministic run.

``python -m cfobench.external quadratic`` serves a small built-in evaluator
(see ``main`` for the full list); the other built-ins deliberately misbehave
so the failure paths can be exercised in tests.
"""

from __future__ import annotations

import argparse
import codecs
import io
import locale
import os
import select
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
_READ_SIZE = 65536  # bytes per read of the child's stdout


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

    evaluate() writes and reads the child's stdin and stdout in the calling
    thread; only stderr has a reader thread, which keeps the tail that
    error messages quote.
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
            )
        except OSError as exc:
            raise ProcessExited(f"could not start {argv[0]!r}: {exc}") from exc
        self._stdin_fd = self._proc.stdin.fileno()
        self._stdout_fd = self._proc.stdout.fileno()
        os.set_blocking(self._stdin_fd, False)
        # replies decode as text=True would: locale encoding, universal newlines
        self._decoder = io.IncrementalNewlineDecoder(
            codecs.getincrementaldecoder(locale.getpreferredencoding(False))(),
            translate=True,
        )
        self._partial = ""  # decoded text after the last complete reply line
        self._replies: deque = deque()  # complete reply lines not yet consumed
        self._stderr_tail: deque = deque(maxlen=_STDERR_TAIL_LINES)
        self._stderr_thread = threading.Thread(
            target=self._pump_stderr, daemon=True, name="cfo-obj-stderr"
        )
        self._stderr_thread.start()
        try:
            self._check_handshake()
        except BaseException:
            # the reader thread holds this instance, so nothing else would
            # ever close the child
            self.close()
            raise

    # -- plumbing ----------------------------------------------------------

    def _pump_stderr(self):
        with io.TextIOWrapper(self._proc.stderr) as stderr:
            for line in stderr:
                self._stderr_tail.append(line.rstrip("\n"))

    def _diagnostics(self) -> str:
        rc = self._proc.poll()
        parts = [f"command {self.command!r}"]
        if rc is not None:
            parts.append(f"exit code {rc}")
        if self._stderr_tail:
            parts.append("stderr tail:\n" + "\n".join(self._stderr_tail))
        return "; ".join(parts)

    def _receive(self) -> bool:
        """Read what the child has written; False at the end of its stream."""
        chunk = os.read(self._stdout_fd, _READ_SIZE)
        text = self._partial + self._decoder.decode(chunk, final=not chunk)
        *lines, self._partial = text.split("\n")
        if not chunk and self._partial:  # a last line without its newline
            lines.append(self._partial)
            self._partial = ""
        self._replies.extend(lines)
        return bool(chunk)

    def _exchange(self, requests: bytes, n_replies: int):
        """Write requests and wait until n_replies reply lines are queued.

        One poll loop writes and reads at once, so a batch larger than the
        pipe buffers cannot deadlock with a child blocked on its stdout.
        When no byte moves for the timeout, EvaluationTimeout; when the
        child's stdout ends first, ProcessExited.
        """
        todo = memoryview(requests)
        send_error = None
        poller = select.poll()
        poller.register(self._stdout_fd, select.POLLIN)
        if todo:
            poller.register(self._stdin_fd, select.POLLOUT)
        while todo or len(self._replies) < n_replies:
            ready = poller.poll(self.timeout * 1000.0)
            if not ready:
                self._timed_out = True
                raise EvaluationTimeout(
                    f"no reply within {self.timeout:g} s; {self._diagnostics()}"
                )
            for fd, _event in ready:
                if fd == self._stdin_fd:
                    try:
                        todo = todo[os.write(fd, todo):]
                    except BlockingIOError:
                        continue
                    except OSError as exc:  # the child closed its stdin
                        send_error, todo = exc, todo[:0]
                    if not todo:
                        poller.unregister(fd)
                elif not self._receive():
                    if len(self._replies) >= n_replies:
                        return
                    # give the exit code a moment to land before reporting
                    try:
                        self._proc.wait(timeout=1.0)
                    except subprocess.TimeoutExpired:
                        pass
                    if send_error is not None:
                        raise ProcessExited(
                            f"could not send request ({send_error}); "
                            f"{self._diagnostics()}"
                        )
                    raise ProcessExited(
                        f"evaluator stream ended; {self._diagnostics()}"
                    )

    def _check_handshake(self):
        self._exchange(b"", 1)
        line = self._replies.popleft().strip()
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

    def _fitness(self, reply: str) -> float:
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

    # -- public API --------------------------------------------------------

    def evaluate(self, rows, step: int = 0) -> list:
        """Send one EVAL request per row and return the fitnesses in order.

        The k-th row's request carries probe k. Every request is written
        before the first reply is read. A failure carries failed_row, the
        1-based row whose reply was missing or bad. After an ERROR or a
        malformed reply the batch's other replies are still read, so the
        client stays in step with the child, and the first failure is
        raised; a timeout or the end of the child's stream raises at once.
        """
        if self._closed:
            raise ProcessExited("evaluate() called on a closed client")
        requests = []
        for probe, x in enumerate(rows, 1):
            coords = [float(v) for v in x]
            requests.append("EVAL %s %d %d %d %s\n" % (
                RUN_ID,
                int(step),
                probe,
                len(coords),
                " ".join("%.17g" % v for v in coords),
            ))
        try:
            self._exchange("".join(requests).encode(), len(requests))
        except (EvaluationTimeout, ProcessExited) as exc:
            exc.failed_row = len(self._replies) + 1
            raise
        values, failure = [], None
        for row in range(1, len(requests) + 1):
            try:
                values.append(self._fitness(self._replies.popleft()))
            except ExternalObjectiveError as exc:
                if failure is None:
                    exc.failed_row = row
                    failure = exc
        if failure is not None:
            raise failure
        return values

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
        proc.stdout.close()
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
    servers = {"quadratic": _serve_quadratic, "echo": _serve_echo,
               "malformed": _serve_malformed, "sleepy": _serve_sleepy,
               "badshake": _serve_badshake}
    parser.add_argument("name", choices=servers, help="which built-in evaluator to run")
    return servers[parser.parse_args(argv).name]()


if __name__ == "__main__":
    sys.exit(main())
