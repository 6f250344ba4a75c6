"""Semantic equivalence of first-order formulas on small frames, for tests
that compare a correspondent with a textbook condition; the predicates and
free names of a formula and its universal closure, the reference the
`simplify` tests check against; and the standard translation of one modal
formula."""

import itertools

from sabcorr.fol import (
    Eq, FOExists, FOForall, Pred, Rel, st_formula, _fo_children,
)

from frames import fo_mask, labelled_frames, valuations


def free_names(f):
    """The names of an FO formula that no quantifier of it binds."""
    if isinstance(f, (Eq, Rel)):
        return frozenset({f.a, f.b})
    if isinstance(f, Pred):
        return frozenset({f.t})
    out = frozenset().union(*map(free_names, _fo_children(f)))
    if isinstance(f, (FOForall, FOExists)):
        out -= {f.var}
    return out


def closure(f):
    """f with one FOForall per free name, the first sorted name outermost."""
    for name in sorted(free_names(f), reverse=True):
        f = FOForall(name, f)
    return f


def pred_names(f):
    """The predicate names of an FO formula."""
    if isinstance(f, Pred):
        return frozenset({f.name})
    return frozenset().union(*map(pred_names, _fo_children(f)))


def translate_formula(f, x="x", e=()):
    """The standard translation of the modal formula f at the point x, the
    label pairs in e deleted from the relation."""
    return st_formula(f, x, e, map("y{}".format, itertools.count()))


def fo_equiv_on_small_frames(f1, f2, max_n=3, vars=()):
    """True iff f1 and f2 agree on every frame with 1..max_n worlds, every
    valuation of vars and their predicates, and every assignment of their
    free names; each side is evaluated once per assignment, on every
    labelled frame of a size at once."""
    vars = sorted(set(vars) | pred_names(f1) | pred_names(f2))
    names = sorted(free_names(f1) | free_names(f2))
    for n in range(1, max_n + 1):
        frames = list(labelled_frames(n))
        for val in valuations(frames[0], vars):
            for worlds in itertools.product(range(n), repeat=len(names)):
                v = {**val, **dict(zip(names, worlds))}
                if fo_mask(frames, v, f1) != fo_mask(frames, v, f2):
                    return False
    return True
