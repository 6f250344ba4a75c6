"""Semantic equivalence of first-order formulas on small frames, for tests
that compare a correspondent with a textbook condition."""

import itertools

from sabcorr.semantics import valuations
from sabcorr.fol import eval_fo, free_names, pred_names

from frames import labelled_frames


def fo_equiv_on_small_frames(f1, f2, max_n=3, vars=()):
    """True iff f1 and f2 agree on every frame with 1..max_n worlds, every
    valuation of vars and their predicates, and every assignment of their
    free names; each side is evaluated once per assignment."""
    vars = sorted(set(vars) | pred_names(f1) | pred_names(f2))
    names = sorted(free_names(f1) | free_names(f2))
    for n in range(1, max_n + 1):
        for frame in labelled_frames(n):
            for val in valuations(frame, vars):
                for worlds in itertools.product(frame.worlds,
                                                repeat=len(names)):
                    env = dict(zip(names, worlds))
                    if (eval_fo(frame, val, env, f1)
                            != eval_fo(frame, val, env, f2)):
                        return False
    return True
