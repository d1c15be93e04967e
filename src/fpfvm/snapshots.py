"""Snapshot formatting, in the calling process or in one worker process.

A snapshot file holds one ``%.17g`` line per cell value (17 significant
digits, so reading the file back reproduces every value) behind the geometry
header that :func:`fpfvm.density.save_density` writes; :func:`format_values`
is the one statement that formats them.

One ``%`` format call holds the GIL throughout, so a thread cannot format a
snapshot while the filter steps; a second interpreter can.
:class:`SnapshotWorker` starts one, ``python -I -S <this file>``, at the
first snapshot of a run.  On its input each snapshot arrives as an
8-byte little-endian byte count and the raw float64 values; the worker
formats them and keeps the ASCII text.  At the end of its input it writes
every text back, as its byte count and its bytes, in arrival order.  The
worker program is this file, so the module imports nothing at its top but
``sys``.
"""

import sys

_COUNT = 8  # bytes of a length prefix
_CHUNK = 1 << 16  # bytes of a text moved at a time, one default pipe's worth
_PIPE_BYTES = 1 << 20  # the input pipe's size, Linux's default cap for it


def format_values(values) -> str:
    """One ``%.17g`` line per value: a snapshot file's body."""
    values = tuple(values)
    return "%.17g\n" * len(values) % values


def _serve(inp, out) -> None:
    """The worker's loop: format every snapshot read from ``inp``, then write
    the texts to ``out``."""
    texts = []
    while head := inp.read(_COUNT):
        data = inp.read(int.from_bytes(head, "little"))
        texts.append(format_values(memoryview(data).cast("d").tolist()).encode("ascii"))
    for text in texts:
        out.write(len(text).to_bytes(_COUNT, "little"))
        out.write(text)
    out.flush()


class SnapshotWorker:
    """The parent's end of one worker interpreter.

    :meth:`send` is a ``run_filter`` ``on_snapshot`` callback; after the run,
    :meth:`text` returns each snapshot's body in the order sent.  If the
    worker cannot start or dies while the run goes on, every body is
    formatted in the caller instead (``text`` returns ``None``).  Leaving the
    ``with`` block stops and reaps the worker, wherever the run stands.
    """

    def __init__(self):
        self._proc = None
        self._failed = False

    def __enter__(self):
        return self

    def __exit__(self, *exc):
        self.close()

    def send(self, t: float, density) -> None:
        """Hand one snapshot's values to the worker, starting it on the first."""
        if self._failed:
            return
        try:
            if self._proc is None:
                import subprocess  # only a run that takes a snapshot pays for it

                self._proc = subprocess.Popen([sys.executable, "-I", "-S", __file__],
                                              stdin=subprocess.PIPE, stdout=subprocess.PIPE)
                try:  # room for whole snapshots: a send need not wait for the worker
                    import fcntl

                    fcntl.fcntl(self._proc.stdin, fcntl.F_SETPIPE_SZ, _PIPE_BYTES)
                except (ImportError, AttributeError, OSError):  # not Linux, or refused
                    pass
            pipe = self._proc.stdin
            pipe.write(density.values.nbytes.to_bytes(_COUNT, "little"))
            pipe.write(density.values)
            pipe.flush()
        except OSError:
            self.close()
            self._failed = True

    def text(self):
        """The next snapshot's body as ASCII byte chunks, or ``None`` where
        the caller must format it."""
        proc = self._proc
        if proc is None:
            return None
        try:
            proc.stdin.close()  # end of input: the worker starts writing
            head = proc.stdout.read(_COUNT)
        except OSError:
            head = b""
        if len(head) < _COUNT:
            self.close()
            return None
        return self._chunks(proc.stdout, int.from_bytes(head, "little"))

    @staticmethod
    def _chunks(pipe, size: int):
        while size:
            chunk = pipe.read(min(size, _CHUNK))
            if not chunk:
                raise EOFError("the snapshot worker stopped within a text")
            size -= len(chunk)
            yield chunk

    def close(self) -> None:
        """Stop and reap the worker, if one runs."""
        proc, self._proc = self._proc, None
        if proc is None:
            return
        proc.kill()
        for pipe in (proc.stdin, proc.stdout):
            try:
                pipe.close()
            except OSError:  # bytes left for a worker that is gone
                pass
        proc.wait()


if __name__ == "__main__":  # the worker interpreter
    _serve(sys.stdin.buffer, sys.stdout.buffer)
