"""Independent set-based evaluators used as test oracles.

Everything here works on frozensets of element labels and quantifies
literally over the powerset, with none of the bitmask machinery of the
package.  Expected values asserted by the tests are computed (or re-checked)
through these functions.
"""

from itertools import combinations


def powerset(universe):
    els = sorted(universe)
    return [frozenset(c) for r in range(len(els) + 1) for c in combinations(els, r)]


def from_space(space):
    """(universe, closure dict) view of a package Space."""
    labels = space.ground.labels

    def to_set(mask):
        return frozenset(labels[i] for i in range(len(labels)) if (mask >> i) & 1)

    cl = {to_set(m): to_set(space.table[m]) for m in range(space.ground.size)}
    return frozenset(labels), cl


def mask_to_set(space, mask):
    labels = space.ground.labels
    return frozenset(labels[i] for i in range(len(labels)) if (mask >> i) & 1)


def set_to_mask(space, subset):
    return sum(1 << i for i, label in enumerate(space.ground.labels) if label in subset)


def interior(universe, cl, a):
    return universe - cl[universe - a]


def exterior(universe, cl, a):
    return universe - cl[a]


def separated(universe, cl, a, b):
    return not (a & cl[b]) and not (cl[a] & b)


def grounded(universe, cl):
    return cl[frozenset()] == frozenset()


def isotonic(universe, cl):
    ps = powerset(universe)
    return all(cl[a] <= cl[b] for a in ps for b in ps if a <= b)


def enlarging(universe, cl):
    return all(a <= cl[a] for a in powerset(universe))


def idempotent(universe, cl):
    return all(cl[cl[a]] == cl[a] for a in powerset(universe))


def sublinear(universe, cl):
    ps = powerset(universe)
    return all(cl[a | b] <= cl[a] | cl[b] for a in ps for b in ps)


def pointwise_symmetric(universe, cl):
    for x in universe:
        for y in universe:
            if x in cl[frozenset({y})] and y not in cl[frozenset({x})]:
                return False
    return True


def neighborhoods(universe, cl, x):
    return [nset for nset in powerset(universe) if x in interior(universe, cl, nset)]


def r0(universe, cl):
    for x in universe:
        for y in universe:
            if all(x in nset for nset in neighborhoods(universe, cl, y)):
                if not all(y in nset for nset in neighborhoods(universe, cl, x)):
                    return False
    return True


def exterior_separated(universe, cl):
    for a in powerset(universe):
        for x in exterior(universe, cl, a):
            if not separated(universe, cl, frozenset({x}), a):
                return False
    return True


def separated_pairs(universe, cl):
    """Unordered pairs as frozensets of subsets ({A, A} collapses)."""
    ps = powerset(universe)
    return {
        frozenset({a, b})
        for a in ps
        for b in ps
        if separated(universe, cl, a, b)
    }


def relation_pairs_from(space, rel):
    """Package relation in the same unordered-frozenset encoding."""
    return {
        frozenset({mask_to_set(space, a), mask_to_set(space, b)}) for a, b in rel.pairs
    }


def conditions(universe, pairs):
    """The two reconstruction conditions on an unordered-pairs relation."""
    ps = powerset(universe)

    def has(a, b):
        return frozenset({a, b}) in pairs

    cond1 = True
    for b in ps:
        for c in ps:
            if not has(b, c):
                continue
            for a in ps:
                if a <= b and not has(a, c):
                    cond1 = False

    cond2 = True
    for a in ps:
        for b in ps:
            if has(a, b):
                continue
            if all(has(frozenset({x}), b) for x in a) and all(
                has(frozenset({y}), a) for y in b
            ):
                cond2 = False

    return cond1, cond2


def first_witnesses(n, mask_pairs):
    """The first condition-1 triple (A, B, C) and the first condition-2 pair
    (A, B), or None, scanning masks in ascending order.  ``mask_pairs``
    holds each related pair as a frozenset of one or two subset masks."""
    size = 1 << n

    def has(a, b):
        return frozenset({a, b}) in mask_pairs

    witness1 = None
    for a in range(size):
        for b in range(size):
            for c in range(size):
                if witness1 is None and a & ~b == 0 and has(b, c) and not has(a, c):
                    witness1 = (a, b, c)

    witness2 = None
    for a in range(size):
        for b in range(a, size):
            hyp = all(has(1 << x, b) for x in range(n) if (a >> x) & 1) and all(
                has(1 << y, a) for y in range(n) if (b >> y) & 1
            )
            if witness2 is None and hyp and not has(a, b):
                witness2 = (a, b)

    return witness1, witness2


def reconstructed_closure(universe, pairs):
    def has(a, b):
        return frozenset({a, b}) in pairs

    return {
        a: frozenset(x for x in universe if not has(frozenset({x}), a))
        for a in powerset(universe)
    }


def criteria(universe, pairs):
    """grounded / enlarging / sublinear criteria and the idempotence
    sufficiency condition, straight off the relation."""
    ps = powerset(universe)

    def has(a, b):
        return frozenset({a, b}) in pairs

    grounded_crit = all(has(frozenset({x}), frozenset()) for x in universe)

    enlarging_crit = True
    for a in ps:
        for b in ps:
            if has(a, b) and a & b:
                enlarging_crit = False

    sublinear_crit = True
    for a in ps:
        for b in ps:
            for c in ps:
                if has(a, b) and has(a, c) and not has(a, b | c):
                    sublinear_crit = False

    idem_sufficient = True
    for x in universe:
        for a in ps:
            for b in ps:
                if (
                    not has(frozenset({x}), b)
                    and all(not has(frozenset({y}), a) for y in b)
                    and has(frozenset({x}), a)
                ):
                    idem_sufficient = False

    return grounded_crit, enlarging_crit, sublinear_crit, idem_sufficient


# --- maps -------------------------------------------------------------------


def from_map(mp):
    ux, clx = from_space(mp.domain)
    uy, cly = from_space(mp.codomain)
    f = {
        mp.domain.ground.labels[i]: mp.codomain.ground.labels[mp.assignment[i]]
        for i in range(mp.domain.ground.n)
    }
    return ux, clx, uy, cly, f


def image(f, a):
    return frozenset(f[x] for x in a)


def preimage(f, b):
    return frozenset(x for x in f if f[x] in b)


def closure_preserving(ux, clx, uy, cly, f):
    return all(image(f, clx[a]) <= cly[image(f, a)] for a in powerset(ux))


def continuous(ux, clx, uy, cly, f):
    return all(clx[preimage(f, b)] <= preimage(f, cly[b]) for b in powerset(uy))


def nonseparating(ux, clx, uy, cly, f):
    for a in powerset(ux):
        for b in powerset(ux):
            if separated(uy, cly, image(f, a), image(f, b)) and not separated(
                ux, clx, a, b
            ):
                return False
    return True


def preimage_separation(ux, clx, uy, cly, f):
    for c in powerset(uy):
        for d in powerset(uy):
            if separated(uy, cly, c, d) and not separated(
                ux, clx, preimage(f, c), preimage(f, d)
            ):
                return False
    return True
