"""Snapshot files, written by the calling process or by one worker process.

A snapshot file is the geometry header of
:func:`fpfvm.density.snapshot_header`, then one ``%.17g`` line per value (17
significant digits, so reading the file back reproduces every value):
:func:`format_values` formats them and :func:`write_snapshot` writes a file.

One ``%`` format call holds the GIL throughout, so a thread cannot format a
snapshot while the filter steps; a second interpreter can.
:class:`SnapshotWorker` starts one, ``python -I -S <this file>``, at the
first snapshot of a run.  On its input each snapshot arrives as an 8-byte
little-endian byte count and the raw float64 values, which it formats at
once.  A zero count starts the commit, up to the end of the input: each
file's path and header, NUL-separated.  The worker writes the files and
exits 0; the parent reads nothing back.  The worker program is this file,
so the module imports nothing at its top but ``sys``.
"""

import sys

_COUNT = 8  # bytes of a length prefix
_PIPE_BYTES = 1 << 20  # the input pipe's size, Linux's default cap for it


def format_values(values) -> str:
    """One ``%.17g`` line per value: a snapshot file's body."""
    values = tuple(values)
    return "%.17g\n" * len(values) % values


def write_snapshot(path, header: bytes, body: bytes) -> None:
    """Write one snapshot file: its header bytes, then its body bytes."""
    with open(path, "wb") as fh:
        fh.writelines((header, body))


def _serve(inp) -> None:
    """The worker's loop: format each snapshot read from ``inp`` as it
    arrives, then write each into the file the commit names."""
    texts = []
    while size := int.from_bytes(inp.read(_COUNT), "little"):
        texts.append(format_values(memoryview(inp.read(size)).cast("d").tolist()).encode("ascii"))
    commit = inp.read().split(b"\0")
    for text, path, header in zip(texts, commit[::2], commit[1::2], strict=True):
        write_snapshot(path, header, text)


class SnapshotWorker:
    """The parent's end of one worker interpreter.

    :meth:`send` is a ``run_filter`` ``on_snapshot`` callback; after the run,
    :meth:`commit` has the worker write every snapshot sent, or returns
    False, and the caller writes every file, if the worker could not start,
    died during the run or failed while writing.  Leaving the ``with`` block
    stops and reaps the worker, wherever the run stands.
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

                self._proc = subprocess.Popen(  # a failing worker prints nothing
                    [sys.executable, "-I", "-S", __file__], stdin=subprocess.PIPE,
                    stdout=subprocess.DEVNULL, stderr=subprocess.DEVNULL)
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

    def commit(self, files) -> bool:
        """Have the worker write the snapshots sent, in order, one to each
        ``(path, header)`` of ``files``, and wait for it: True if it wrote
        them all, False if the caller must write every file."""
        proc = self._proc
        if proc is None:
            return False
        import os

        try:
            proc.stdin.write(bytes(_COUNT) + b"\0".join(
                field for path, header in files
                for field in (os.fsencode(os.path.abspath(path)), header)))
            proc.stdin.close()  # end of input: the worker writes and exits
            return proc.wait() == 0
        except OSError:  # the worker is gone
            return False
        finally:
            self.close()

    def close(self) -> None:
        """Stop and reap the worker, if one runs."""
        proc, self._proc = self._proc, None
        if proc is None:
            return
        proc.kill()
        try:
            proc.stdin.close()
        except OSError:  # bytes left for a worker that is gone
            pass
        proc.wait()


if __name__ == "__main__":  # the worker interpreter
    _serve(sys.stdin.buffer)
