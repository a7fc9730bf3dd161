"""The one writer of ``trajectory.csv``, run as a second interpreter.

Usage: python -I -S _trajectory.py N PATH

The CLI runs this file by path while ``simulate`` is still stepping, so the
formatting overlaps the Heun loop.  It imports only the standard library,
never the package or NumPy, so it boots in a few milliseconds under
``-I -S``.

Standard input carries native float64 values: the N node values, then one
record per stored frame of (t, u[N], u_t[N]), then the end record, a single
NaN where the next record's t would be (the solver never stores a
non-finite t).  The file gets the header ``t,x,u,ut`` and one row per node
per frame, each float as ``repr``, and is written one frame at a time.  It
is kept only once the end record has come.  Input that ends before it, cut
inside a record or at a record boundary, is an error: this process then
removes the file it made, and exits nonzero.  A caller that dies, even by
SIGKILL, closes the pipe without the end record, so its file goes too.
"""

import math
import os
import sys

_FLOAT = 8


def _ended(data, size):
    """Whether ``data``, read as ``size`` bytes, is the end record; input cut short raises."""
    if len(data) == size:
        return False
    if len(data) == _FLOAT and math.isnan(memoryview(data).cast("d")[0]):
        return True
    raise EOFError(f"input ends without the end record: {len(data)} of {size} bytes")


def write_trajectory(source, n, out):
    """Format the frames of the binary stream ``source`` as CSV rows into ``out``.

    Returns once the end record has been read.
    """
    nodes = source.read(n * _FLOAT)
    if len(nodes) != n * _FLOAT:
        raise EOFError("input ends before the node values")
    x = [repr(xi) for xi in memoryview(nodes).cast("d").tolist()]
    out.write("t,x,u,ut\n")
    size = (2 * n + 1) * _FLOAT
    while not _ended(record := source.read(size), size):
        values = memoryview(record).cast("d").tolist()
        t = repr(values[0])
        u, ut = map(float.__repr__, values[1:n + 1]), map(float.__repr__, values[n + 1:])
        out.write("".join(f"{t},{xi},{ui},{uti}\n" for xi, ui, uti in zip(x, u, ut)))


def main(argv):
    n, path = int(argv[1]), argv[2]
    with open(path, "w", encoding="ascii") as out:
        try:
            write_trajectory(sys.stdin.buffer, n, out)
        except BaseException:
            os.unlink(path)
            raise


if __name__ == "__main__":
    main(sys.argv)
