"""Every labelled frame, for tests that need them all and as the reference
for `semantics.enumerate_frames`, which yields one frame per isomorphism
class; valuations built from world sets; and truth at one world."""

from sabcorr.semantics import FRAME_CAP, KripkeFrame, extension


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


def valuation(props=None, noms=None):
    """A valuation from world sets for propositions and worlds for
    nominals: one dict from each proposition to its bit mask of worlds and
    from each nominal to its world."""
    masks = {k: sum(1 << w for w in set(v)) for k, v in (props or {}).items()}
    return {**masks, **(noms or {})}


def satisfies(frame, val, deleted, w, f):
    """Whether f holds at world w with the edges in deleted removed: bit w
    of `semantics.extension`."""
    return bool(extension(frame, val, deleted, f) >> w & 1)
