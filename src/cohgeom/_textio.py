"""Text output of the CLI and the OBJ writer, written atomically in blocks."""

import contextlib
import os

# Rows of text, OBJ vertices or faces and dynamics CSV rows, formatted and
# written at a time, so a run holds one block of text instead of the whole
# file.
BLOCK_ROWS = 1 << 14


@contextlib.contextmanager
def open_atomic(path):
    """Open an ASCII text file that appears at ``path`` only once complete.

    Writes go to a new temporary file in the same directory, which replaces
    ``path`` when the block exits normally and is removed when it raises, so
    a failed write leaves neither a partial file nor a changed old one.
    """
    temp = f"{os.fspath(path)}.{os.urandom(4).hex()}.tmp"
    try:
        with open(temp, "x", encoding="ascii", newline="\n") as handle:
            yield handle
        os.replace(temp, path)
    except BaseException as exc:
        with contextlib.suppress(FileNotFoundError):
            os.unlink(temp)
        if isinstance(exc, OSError) and exc.filename == temp:
            exc.filename = os.fspath(path)
        raise
