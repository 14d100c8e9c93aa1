"""Text output of the CLI and the OBJ writer, written atomically in blocks."""

import contextlib
import errno
import os
import stat

# Rows of text, OBJ vertices or faces and dynamics CSV rows, formatted and
# written at a time, so a run holds one block of text instead of the whole
# file.
BLOCK_ROWS = 1 << 14


@contextlib.contextmanager
def open_atomic(path):
    """Open an ASCII text file that appears at ``path`` only once complete.

    ``path`` is followed through symlinks to its target.  A regular file or
    a missing target is written atomically: writes go to a new temporary
    file in the target's directory, which replaces the target when the block
    exits normally and is removed when it raises, so a failed write leaves
    neither a partial file nor a changed old one.  A replaced file's
    permission bits carry over to the new one; a hard link to it keeps the
    old bytes, since a rename cannot keep it.  Any other existing
    target, such as a FIFO or a device, is opened and written directly, so
    it stays what it is.  An empty path raises FileNotFoundError.
    """
    if not os.fspath(path):
        # realpath would take it for the working directory
        raise FileNotFoundError(errno.ENOENT, "empty output path", path)
    target = os.path.realpath(path)
    if os.path.exists(target) and not os.path.isfile(target):
        with open(target, "w", encoding="ascii", newline="\n") as handle:
            yield handle
        return
    temp = f"{target}.{os.urandom(4).hex()}.tmp"
    try:
        with open(temp, "x", encoding="ascii", newline="\n") as handle:
            yield handle
        with contextlib.suppress(FileNotFoundError):
            os.chmod(temp, stat.S_IMODE(os.stat(target).st_mode))
        os.replace(temp, target)
    except BaseException as exc:
        with contextlib.suppress(FileNotFoundError):
            os.unlink(temp)
        if isinstance(exc, OSError) and exc.filename == temp:
            exc.filename = os.fspath(path)
        raise
