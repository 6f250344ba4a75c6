"""Critical branches and the Sahlqvist / definite / inner classifiers.

A formula is read as the signed generation tree of the paper without
building one: signs propagate from the root as the connective table in
`syntax` says (flipped under not and for the first child of imp, kept
everywhere else), and the same table says at which signs a node is outer
or inner.  An order type maps each variable to '1' or 'd' (for the dual
order); a leaf +p with eps(p)='1' or -p with eps(p)='d' is critical.
"""

from __future__ import annotations

from .syntax import (
    And, Formula, Ineq, Or, Prop, CONNECTIVES, eliminate_iff,
    occurrence_signs, parse_formula, props_of,
)

# Per sign, the join that is outer but not definite (+or, -and):
# preprocessing splits it and distributes the other outer nodes over it.
JOIN = {"+": Or, "-": And}


def critical_branches(f: Formula, sign: str, eps: dict, branch=()):
    """Yield (variable, branch) for every eps-critical leaf of f signed
    `sign`.  The branch is the leaf-to-root sequence of (row, sign) pairs
    of the leaf's ancestors, the leaf itself excluded."""
    if type(f) is Prop:
        if f.name in eps and sign == ("+" if eps[f.name] == "1" else "-"):
            yield f.name, branch
        return
    row = CONNECTIVES[type(f)]
    branch = ((row, sign), *branch)
    for child, s in zip(row.children(f), row.signs[sign]):
        yield from critical_branches(child, s, eps, branch)


def is_excellent_branch(branch) -> bool:
    """An inner segment on the leaf side followed by an outer segment on
    the root side: everything from the first non-inner node on is outer."""
    k = next((i for i, (row, s) in enumerate(branch) if s not in row.inner),
             len(branch))
    return all(s in row.outer for row, s in branch[k:])


def _sides(ineq: Ineq) -> tuple:
    """The Iff-free sides with their signs; no order type is needed."""
    return ((eliminate_iff(ineq.lhs), "+"), (eliminate_iff(ineq.rhs), "-"))


def not_excellent(sides, eps: dict) -> set:
    """The variables with an eps-critical branch of the (formula, sign)
    sides that is not excellent."""
    return {name for f, sign in sides
            for name, branch in critical_branches(f, sign, eps)
            if not is_excellent_branch(branch)}


def is_epsilon_sahlqvist(ineq: Ineq, eps: dict) -> bool:
    """eps covers every variable and makes every critical branch excellent."""
    return (props_of(ineq.lhs) | props_of(ineq.rhs) <= eps.keys()
            and not not_excellent(_sides(ineq), eps))


def find_order_type(ineq: Ineq):
    """First order type (lexicographic, '1' before 'd') making the
    inequality Sahlqvist, or None.  Whether a leaf is critical depends on
    its own variable's value only, so the first order type gives each
    variable its first value whose critical branches are all excellent."""
    names = sorted(props_of(ineq.lhs) | props_of(ineq.rhs))
    sides = _sides(ineq)
    up = not_excellent(sides, dict.fromkeys(names, "1"))
    if up and up & not_excellent(sides, dict.fromkeys(up, "d")):
        return None
    return {name: "d" if name in up else "1" for name in names}


def is_definite(f: Formula, sign: str, eps: dict) -> bool:
    """No +or / -and on any critical branch.

    Those two node shapes are outer-only, so on an excellent branch they can
    only sit in the outer part.
    """
    return not any(row.cls is JOIN[s]
                   for _, branch in critical_branches(f, sign, eps)
                   for row, s in branch)


def is_inner_sahlqvist(f: Formula, sign: str, eps: dict) -> bool:
    """Every critical branch consists of inner-capable nodes only."""
    return all(s in row.inner
               for _, branch in critical_branches(f, sign, eps)
               for row, s in branch)


def has_critical_occurrence(f: Formula, sign: str, eps: dict) -> bool:
    """True iff f signed `sign` has a critical variable occurrence.  A
    formula with no critical occurrences is eps-dual-uniform."""
    return any(("+" if eps[name] == "1" else "-") in signs
               for name, signs in occurrence_signs(f, sign).items()
               if name in eps)


def parse_order_type(spec: str) -> dict:
    """Parse an override such as `p=1,q=d`."""
    eps = {}
    for part in spec.split(","):
        part = part.strip()
        if not part:
            continue
        if "=" not in part:
            msg = f"bad order-type entry {part!r}"
            raise ValueError(msg)
        name, value = (x.strip() for x in part.split("=", 1))
        if value not in ("1", "d"):
            msg = f"order-type value must be 1 or d, got {value!r}"
            raise ValueError(msg)
        try:
            is_variable = parse_formula(name) == Prop(name)
        except ValueError:
            is_variable = False
        if not is_variable:
            msg = f"order-type name {name!r} is not a variable"
            raise ValueError(msg)
        if name in eps:
            msg = f"order-type variable {name!r} given twice"
            raise ValueError(msg)
        eps[name] = value
    return eps
