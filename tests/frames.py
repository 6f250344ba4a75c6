"""The tests' own frame, `KripkeFrame`: its world count and its arrows as
a set, which the set-based oracles read; every labelled frame, for tests
that need them all and as the reference for `semantics.enumerate_frames`,
which yields one frame per isomorphism class as an arrow tuple; every
valuation of some names, one at a time, and valuations built from world
sets; truth at one world; the propositions of a statement; both checks on
test frames; and `oracle_ext` and `oracle_holds`, the reference reading of
ALBA's expanded language and statements."""

import itertools
from collections import namedtuple

from sabcorr.syntax import (
    And, Bot, Box, Dia, ExistsNom, ForallNom, GBox, Imp, Ineq, InvLBox,
    InvLDia, LBox, LDia, MegaGuard, Nom, Not, Or, Prop, SBox, SDia, Top,
    UQIneq, props_of,
)
from sabcorr.semantics import (
    FRAME_CAP, extension, frame_valid, valuation_blocks,
)
from sabcorr.fol import eval_fo

# A frame on worlds 0..n-1 with the arrows r0, a frozenset; the program
# reads a frame as n and the tuple of its arrows (`arrows`).
KripkeFrame = namedtuple("KripkeFrame", "n r0")


def arrows(frame):
    """The frame's arrows as the tuple the program reads, in sorted order."""
    return tuple(sorted(frame.r0))


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


def valuations(frame, props):
    """Every valuation of `props` on the frame, each a fresh dict.  Each
    name maps to a bit mask of worlds, ascending; the first name varies
    slowest."""
    for masks in itertools.product(range(1 << frame.n), repeat=len(props)):
        yield dict(zip(props, masks))


def valuation(props=None, noms=None):
    """A valuation from world sets for propositions and worlds for
    nominals: one dict from each proposition to its bit mask of worlds and
    from each nominal to its world."""
    masks = {k: sum(1 << w for w in set(v)) for k, v in (props or {}).items()}
    return {**masks, **(noms or {})}


def statement_props(s):
    """The propositions of statement s, at any depth."""
    if isinstance(s, Ineq):
        return props_of(s.lhs) | props_of(s.rhs)
    if isinstance(s, (MegaGuard, UQIneq)):
        return statement_props(s.body)
    return frozenset().union(*map(statement_props, s.premises),
                             statement_props(s.conclusion))


def fo_mask(frames, val, f):
    """`fol.eval_fo` on frames of one size: bit k is frame k's verdict."""
    (n,) = {frame.n for frame in frames}
    return eval_fo(n, list(map(arrows, frames)), val, f)


def frame_holds(frame, ineq):
    """`semantics.frame_valid` on the unlabelled inequality ineq, under the
    layout of its own propositions."""
    assert not (ineq.sup or ineq.sub), ineq
    layout = valuation_blocks(frame.n, sorted(statement_props(ineq)))
    return frame_valid(frame.n, arrows(frame), ineq.lhs, ineq.rhs, layout)


def satisfies(frame, val, deleted, w, f):
    """Whether f holds at world w with the edges in deleted removed: bit w
    of `semantics.extension` on the live arrows r0 - deleted."""
    return bool(extension(tuple(frame.r0 - deleted), 1, val, f) >> w & 1)


# ---------------------------------------------------------------------------
# independent oracle: extension sets bottom-up over an explicit relation,
# recursing on the relation itself for the deletion modalities; it shares
# no evaluation code with sabcorr

def oracle_ext(f, worlds, r0, rel, props, noms):
    """Worlds where f holds; rel is the current relation, r0 the baseline."""
    def ext(g, rel=rel):
        return oracle_ext(g, worlds, r0, rel, props, noms)
    if isinstance(f, Bot):
        return set()
    if isinstance(f, Top):
        return set(worlds)
    if isinstance(f, Prop):
        return set(props.get(f.name, set()))
    if isinstance(f, Nom):
        return {noms[f.name]}
    if isinstance(f, Not):
        return set(worlds) - ext(f.child)
    if isinstance(f, And):
        return ext(f.left) & ext(f.right)
    if isinstance(f, Or):
        return ext(f.left) | ext(f.right)
    if isinstance(f, Imp):
        return (set(worlds) - ext(f.left)) | ext(f.right)
    if isinstance(f, Dia):
        good = ext(f.child)
        return {w for w in worlds if any((w, v) in rel for v in good)}
    if isinstance(f, Box):
        good = ext(f.child)
        return {w for w in worlds
                if all(v in good for (u, v) in rel if u == w)}
    if isinstance(f, SDia):
        return {w for w in worlds
                if any(w in ext(f.child, rel - {e}) for e in rel)}
    if isinstance(f, SBox):
        return {w for w in worlds
                if all(w in ext(f.child, rel - {e}) for e in rel)}
    if isinstance(f, (LDia, LBox, InvLDia, InvLBox)):
        labeled = r0 - {(noms[a], noms[b]) for (a, b) in f.s}
        good = ext(f.child)
        if isinstance(f, LDia):
            return {w for w in worlds
                    if any((w, v) in labeled for v in good)}
        if isinstance(f, LBox):
            return {w for w in worlds
                    if all(v in good for (u, v) in labeled if u == w)}
        if isinstance(f, InvLDia):
            return {w for w in worlds
                    if any((v, w) in labeled for v in good)}
        return {w for w in worlds
                if all(u in good for (u, v) in labeled if v == w)}
    if isinstance(f, GBox):
        good = ext(f.child)
        return set(worlds) if good == set(worlds) else set()
    if isinstance(f, ExistsNom):
        out = set()
        for v in worlds:
            out |= oracle_ext(f.child, worlds, r0, rel, props,
                              {**noms, f.nom: v})
        return out
    if isinstance(f, ForallNom):
        out = set(worlds)
        for v in worlds:
            out &= oracle_ext(f.child, worlds, r0, rel, props,
                              {**noms, f.nom: v})
        return out
    raise AssertionError(f)


def oracle_holds(frame, val, s):
    """Whether statement s holds on frame under val, a valuation as
    `valuation` builds it: lhs <=^sup_sub rhs reads lhs by oracle_ext under
    r0 minus sup and rhs under r0 minus sub."""
    worlds = set(range(frame.n))
    props = {k: {w for w in worlds if val[k] >> w & 1}
             for k in statement_props(s) & val.keys()}

    def holds(noms, s):
        def minus(label):
            return frame.r0 - {(noms[a], noms[b]) for a, b in label}
        if isinstance(s, Ineq):
            return (oracle_ext(s.lhs, worlds, frame.r0, minus(s.sup), props,
                               noms)
                    <= oracle_ext(s.rhs, worlds, frame.r0, minus(s.sub),
                                  props, noms))
        if isinstance(s, MegaGuard):
            return all(holds({**noms, s.m0: w, s.m1: v}, s.body)
                       for w, v in minus(s.s))
        if isinstance(s, UQIneq):
            return all(holds({**noms, **dict(zip(s.binders, ws))}, s.body)
                       for ws in itertools.product(worlds,
                                                   repeat=len(s.binders)))
        return (not all(holds(noms, p) for p in s.premises)
                or holds(noms, s.conclusion))
    return holds({k: v for k, v in val.items() if k not in props}, s)
