"""Every labelled frame, for tests that need them all and as the reference
for `semantics.enumerate_frames`, which yields one frame per isomorphism
class."""

from sabcorr.semantics import FRAME_CAP, KripkeFrame


def labelled_frames(n):
    """All 2^(n*n) frames on {0..n-1}, edge set read as an ascending
    n*n-bit integer, cell (i,j) at bit i*n+j."""
    if not 1 <= n <= FRAME_CAP:
        msg = f"world count {n} outside 1..{FRAME_CAP}"
        raise ValueError(msg)
    cells = [(i, j) for i in range(n) for j in range(n)]
    for mask in range(1 << (n * n)):
        edges = frozenset(cells[k] for k in range(n * n) if mask >> k & 1)
        yield KripkeFrame(n, edges)
