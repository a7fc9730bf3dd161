"""The one writer of ``trajectory.csv``, run as a second interpreter.

Usage: python -I -S _trajectory.py N PATH

The CLI runs this file by path while ``simulate`` is still stepping, so the
formatting overlaps the Heun loop.  It imports only the standard library,
never the package or NumPy, so it boots in a few milliseconds under
``-I -S``.

Standard input carries native float64 values: the N node values, then one
record per stored frame of (t, u[N], u_t[N]).  The file gets the header
``t,x,u,ut`` and one row per node per frame, each float as ``repr``, and is
written one frame at a time.  A record cut short is an error; this process
then removes the file it made, and exits nonzero.  End of input at a record
boundary ends the file; keeping or discarding it is the caller's choice.
"""

import os
import sys

_FLOAT = 8


def _read(source, size):
    """Exactly ``size`` bytes of ``source``, or b"" at end of input."""
    data = source.read(size)
    if data and len(data) != size:
        raise EOFError(f"input ends inside a record: {len(data)} of {size} bytes")
    return data


def write_trajectory(source, n, out):
    """Format the frames of the binary stream ``source`` as CSV rows into ``out``."""
    nodes = _read(source, n * _FLOAT)
    if not nodes:
        raise EOFError("input ends before the node values")
    x = [repr(xi) for xi in memoryview(nodes).cast("d").tolist()]
    out.write("t,x,u,ut\n")
    while record := _read(source, (2 * n + 1) * _FLOAT):
        values = memoryview(record).cast("d").tolist()
        t = repr(values[0])
        out.write("".join(f"{t},{xi},{ui!r},{uti!r}\n"
                          for xi, ui, uti in zip(x, values[1:n + 1], values[n + 1:])))


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
