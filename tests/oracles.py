"""Independent set-based evaluators used as test oracles.

Everything here works on frozensets of element labels and quantifies
literally over the powerset, with none of the bitmask machinery of the
package.  Expected values asserted by the tests are computed (or re-checked)
through these functions.
"""

from itertools import combinations, combinations_with_replacement
from math import prod

import numpy as np


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


def exterior_separated_count(n):
    """Exterior-separated tables on {0..n-1}, counted one symmetric relation
    R at a time: the singleton entries are the rows of R, and every other
    entry A holds {x : R(x) meets A} plus any of the remaining elements."""
    universe = frozenset(range(n))
    slots = [(x, y) for x in range(n) for y in range(x, n)]
    total = 0
    for chosen in powerset(slots):
        related = {(x, y) for x, y in chosen} | {(y, x) for x, y in chosen}
        count = 1
        for a in powerset(universe):
            if len(a) == 1:
                continue
            forced = {x for x in universe if any((x, y) in related for y in a)}
            count *= 2 ** (n - len(forced))
        total += count
    return total


# --- seeded samples ----------------------------------------------------------
#
# One table at a time, from the same draws as the package's samplers, so a
# seed keeps selecting the same tables.  The only numpy use in this module is
# the random generator.


def upset_families(n):
    """Up-closed families of subsets of {0..n-1}, each as a bitmask over the
    subset masks (bit m set: subset m belongs), ascending."""
    ps = powerset(range(n))
    mask = {s: sum(1 << i for i in s) for s in ps}
    out = []
    for bits in range(1 << len(ps)):
        fam = [s for s in ps if (bits >> mask[s]) & 1]
        if all(t in fam for s in fam for t in ps if s <= t):
            out.append(bits)
    return out


def isotonic_sample(n, count, seed):
    """Bit j of entry A is set iff A lies in the up-set picked for j."""
    fams = upset_families(n)
    picks = np.random.default_rng(seed).integers(0, len(fams), size=(count, n))
    return [
        [sum(1 << j for j in range(n) if (fams[p[j]] >> a) & 1) for a in range(1 << n)]
        for p in picks
    ]


def isotonic_pointwise_symmetric_sample(n, count, seed):
    """Uniform table numbers, decoded one table at a time.

    An isotonic table is pointwise-symmetric iff the singleton signatures
    {y : {y} in U_x} of its up-sets form a symmetric matrix M.  The matrices
    are listed by their bits (bit k fills the k-th slot (x, y), x <= y); M
    owns as many consecutive numbers as it has tables, the product over x of
    the number of up-sets with signature M[x].  Within its run, the digits of
    the remainder (bit 0 most significant) pick, for each x, one up-set with
    signature M[x], in ascending order.
    """
    fams = upset_families(n)
    slots = list(combinations_with_replacement(range(n), 2))

    def signature(fam):
        return sum(1 << y for y in range(n) if (fam >> (1 << y)) & 1)

    runs = []
    for bits in range(1 << len(slots)):
        rows = [0] * n
        for k, (x, y) in enumerate(slots):
            if (bits >> k) & 1:
                rows[x] |= 1 << y
                rows[y] |= 1 << x
        choices = [[f for f in fams if signature(f) == rows[x]] for x in range(n)]
        runs.append((prod(len(c) for c in choices), choices))
    total = sum(size for size, _ in runs)
    tables = []
    for number in np.random.default_rng(seed).integers(0, total, size=count).tolist():
        for size, choices in runs:
            if number < size:
                break
            number -= size
        picked = [0] * n
        for x in reversed(range(n)):
            number, digit = divmod(number, len(choices[x]))
            picked[x] = choices[x][digit]
        tables.append(
            [sum(1 << j for j in range(n) if (picked[j] >> a) & 1) for a in range(1 << n)]
        )
    return tables


def exterior_separated_sample(n, count, seed):
    """One symmetric relation R per table from the matrix bits (bit k fills
    the k-th slot (x, y), x <= y), then one extra mask per entry: the entry
    of {x} is R(x), and every other entry A is {x : R(x) meets A} plus the
    extra mask drawn for A."""
    slots = list(combinations_with_replacement(range(n), 2))
    rng = np.random.default_rng(seed)
    matrices = rng.integers(0, 1 << len(slots), size=count).tolist()
    extras = rng.integers(0, 1 << n, size=(count, 1 << n), dtype=np.int64).tolist()
    singletons = {1 << x for x in range(n)}
    tables = []
    for bits, extra in zip(matrices, extras):
        related = {(x, y) for k, (x, y) in enumerate(slots) if (bits >> k) & 1}
        related |= {(y, x) for x, y in related}
        table = []
        for a in range(1 << n):
            members = [y for y in range(n) if (a >> y) & 1]
            forced = sum(1 << x for x in range(n) if any((x, y) in related for y in members))
            table.append(forced if a in singletons else forced | extra[a])
        tables.append(table)
    return tables


def relation_sample(n, count, seed):
    """The relations a sampled reconstruction sweep checks, as bitmask rows
    (bit b of row a set iff {a, b} is related), built one relation at a
    time: the separated pairs of an isotonic pointwise-symmetric sample,
    each followed by a copy with one drawn pair flipped, until there are
    ``count``."""
    size = 1 << n
    pairs = [(a, b) for a in range(size) for b in range(a, size)]
    rng = np.random.default_rng(seed)
    relations = []
    for table in isotonic_pointwise_symmetric_sample(n, (count + 1) // 2, seed):
        related = {(a, b) for a, b in pairs if not a & table[b] and not table[a] & b}
        relations.append(related)
        if len(relations) >= count:
            break
        # mutate one pair so invalid relations are exercised too
        flip = pairs[int(rng.integers(0, len(pairs)))]
        relations.append(related ^ {flip})
        if len(relations) >= count:
            break
    return [
        [sum(1 << b for b in range(size) if (min(a, b), max(a, b)) in rel) for a in range(size)]
        for rel in relations
    ]


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
