"""Batch kernels behind the enumeration sweeps.

Each kernel evaluates one family of predicates for a whole batch of
instances at once: numpy operations run over the instance axis while Python
loops run only over subsets and points, whose number depends on n alone.
``python3 perfbench/run.py`` times the kernels inside the sweeps that use
them.

Tables arrive as int64 arrays of shape (count, 2**n); flag outputs are uint8
with one row per instance.  Kernels are pure, so chunk sweeps may run on a
thread pool.
"""

from __future__ import annotations

import numpy as np

# perfbench records these and fails any run whose backend is not numpy.
BACKEND = "numpy"
HAVE_NUMBA = False


def _axiom_flags(tables, n):
    count = tables.shape[0]
    size = 1 << n

    grounded = tables[:, 0] == 0

    isotonic = np.ones(count, bool)
    for a in range(size):
        ca = tables[:, a]
        for x in range(n):
            bit = 1 << x
            if a & bit:
                isotonic &= (tables[:, a ^ bit] & ~ca) == 0

    enlarging = np.ones(count, bool)
    for a in range(size):
        enlarging &= (a & ~tables[:, a]) == 0

    rows = np.arange(count)
    idempotent = np.ones(count, bool)
    for a in range(size):
        ta = tables[:, a]
        idempotent &= tables[rows, ta] == ta

    sublinear = np.ones(count, bool)
    for a in range(size):
        ta = tables[:, a]
        for b in range(a, size):
            sublinear &= (tables[:, a | b] & ~(ta | tables[:, b])) == 0

    return (
        np.stack([grounded, isotonic, enlarging, idempotent, sublinear], axis=1)
        .astype(np.uint8)
    )


def _isotonic_all_pairs(tables, n):
    # definitional all-pairs isotonicity, the audit route for the fast test
    size = 1 << n
    iso = np.ones(tables.shape[0], bool)
    for b in range(size):
        cb = tables[:, b]
        a = b
        while True:
            iso &= (tables[:, a] & ~cb) == 0
            if a == 0:
                break
            a = (a - 1) & b
    return iso.astype(np.uint8)


def _symmetry_flags(tables, n):
    count = tables.shape[0]
    size = 1 << n
    full = size - 1

    pws = np.ones(count, bool)
    for x in range(n):
        cx = tables[:, 1 << x]
        for y in range(n):
            pws &= ~((((tables[:, 1 << y] >> x) & 1) == 1) & (((cx >> y) & 1) == 0))

    # r0 by the literal neighborhood quantifiers
    # hyp[x][y]: x lies in every neighborhood of y
    hyp = np.empty((n, n, count), bool)
    for x in range(n):
        for y in range(n):
            h = np.ones(count, bool)
            for ns in range(size):
                if (ns >> x) & 1:
                    continue
                h &= (((full ^ tables[:, full ^ ns]) >> y) & 1) == 0
            hyp[x, y] = h
    r0 = np.ones(count, bool)
    for x in range(n):
        for y in range(n):
            r0 &= ~hyp[x, y] | hyp[y, x]

    extsep = np.ones(count, bool)
    for a in range(size):
        ext = full ^ tables[:, a]
        for x in range(n):
            extsep &= ~((((ext >> x) & 1) == 1) & ((tables[:, 1 << x] & a) != 0))

    return np.stack([pws, r0, extsep], axis=1).astype(np.uint8)


def _formula_flags(tables, n):
    # does cl(A) equal {x : {x} and A are not separated}, for every A?
    count = tables.shape[0]
    size = 1 << n
    ok = np.ones(count, bool)
    for a in range(size):
        ta = tables[:, a]
        m = np.zeros(count, np.int64)
        for x in range(n):
            hit = (((1 << x) & ta) != 0) | ((tables[:, 1 << x] & a) != 0)
            m |= hit.astype(np.int64) << x
        ok &= m == ta
    return ok.astype(np.uint8)


def _sep_tensor(tables, size):
    # sep[s, a, b]: subsets a and b separated in space s
    count = tables.shape[0]
    sep = np.empty((count, size, size), bool)
    for a in range(size):
        ta = tables[:, a]
        for b in range(size):
            sep[:, a, b] = ((a & tables[:, b]) == 0) & ((ta & b) == 0)
    return sep


def _neighbourhoods(sep, n):
    # nb[s, a]: the points x whose singleton is not separated from a, which
    # is the closure of a that the separated pairs determine
    count, size = sep.shape[0], sep.shape[1]
    nb = np.zeros((count, size), np.int64)
    for a in range(size):
        for x in range(n):
            nb[:, a] |= (~sep[:, 1 << x, a]).astype(np.int64) << x
    return nb


def _criteria_flags(tables, n):
    count = tables.shape[0]
    size = 1 << n
    sep = _sep_tensor(tables, size)

    grounded_crit = np.ones(count, bool)
    for x in range(n):
        grounded_crit &= sep[:, 1 << x, 0]

    enlarging_crit = np.ones(count, bool)
    for a in range(size):
        for b in range(a, size):
            if a & b:
                enlarging_crit &= ~sep[:, a, b]

    sublinear_crit = np.ones(count, bool)
    for b in range(size):
        for c in range(b, size):
            u = b | c
            bad = sep[:, :, b] & sep[:, :, c] & ~sep[:, :, u]
            sublinear_crit &= ~bad.any(axis=1)

    # the sufficiency condition: B inside nb[A] forces nb[B] inside nb[A]
    nb = _neighbourhoods(sep, n)
    idem_sufficient = np.ones(count, bool)
    for a in range(size):
        na = nb[:, a]
        for b in range(size):
            inside = (b & ~na) == 0
            idem_sufficient &= ~(inside & ((nb[:, b] & ~na) != 0))

    return (
        np.stack([grounded_crit, enlarging_crit, sublinear_crit, idem_sufficient], axis=1)
        .astype(np.uint8)
    )


def _roundtrip_flags(tables, n):
    count = tables.shape[0]
    size = 1 << n
    sep = _sep_tensor(tables, size)
    nb = _neighbourhoods(sep, n)
    ok = (nb == tables).all(axis=1)
    # condition 1: shrinking a member keeps the pair related
    for b in range(size):
        a = b
        while True:
            ok &= ~(sep[:, b, :] & ~sep[:, a, :]).any(axis=1)
            if a == 0:
                break
            a = (a - 1) & b
    # condition 2: singleton hypotheses force the pair
    for a in range(size):
        na = nb[:, a]
        for b in range(a, size):
            hyp = ((a & nb[:, b]) == 0) & ((b & na) == 0)
            ok &= ~(hyp & ~sep[:, a, b])
    return ok.astype(np.uint8)


def _map_flags(tx_block, ty, imgs, pres, nx, ny):
    bx = tx_block.shape[0]
    sy = ty.shape[0]
    fcount = imgs.shape[0]
    sizex = 1 << nx
    sizey = 1 << ny

    cp = np.ones((bx, sy, fcount), bool)
    for a in range(sizex):
        cl_a = tx_block[:, a]
        f_cl_a = imgs[:, cl_a].T  # (bx, F)
        im_a = imgs[:, a]  # (F,)
        cl_y_im_a = ty[:, im_a]  # (sy, F)
        cp &= (f_cl_a[:, None, :] & ~cl_y_im_a[None, :, :]) == 0

    cont = np.ones((bx, sy, fcount), bool)
    for b in range(sizey):
        pre_b = pres[:, b]  # (F,)
        cl_x_pre_b = tx_block[:, pre_b]  # (bx, F)
        pre_cl_y_b = pres[:, ty[:, b]].T  # (sy, F)
        cont &= (cl_x_pre_b[:, None, :] & ~pre_cl_y_b[None, :, :]) == 0

    ns = np.ones((bx, sy, fcount), bool)
    for a in range(sizex):
        for b in range(a, sizex):
            ia = imgs[:, a]
            ib = imgs[:, b]
            sep_y = ((ia[None, :] & ty[:, ib]) == 0) & ((ty[:, ia] & ib[None, :]) == 0)
            sep_x = ((a & tx_block[:, b]) == 0) & ((tx_block[:, a] & b) == 0)
            ns &= ~(sep_y[None, :, :] & ~sep_x[:, None, None])

    presep = np.ones((bx, sy, fcount), bool)
    for c in range(sizey):
        for d in range(c, sizey):
            sep_y = ((c & ty[:, d]) == 0) & ((ty[:, c] & d) == 0)  # (sy,)
            pc = pres[:, c]
            pd = pres[:, d]
            sep_x = ((pc[None, :] & tx_block[:, pd]) == 0) & (
                (tx_block[:, pc] & pd[None, :]) == 0
            )  # (bx, F)
            presep &= ~(sep_y[None, :, None] & ~sep_x[:, None, :])

    return np.stack([cp, cont, ns, presep], axis=-1).astype(np.uint8)


_KERNELS = {
    "axiom_flags": _axiom_flags,
    "isotonic_all_pairs": _isotonic_all_pairs,
    "symmetry_flags": _symmetry_flags,
    "formula_flags": _formula_flags,
    "criteria_flags": _criteria_flags,
    "roundtrip_flags": _roundtrip_flags,
    "map_flags": _map_flags,
}


def kernel(name: str):
    """Fetch a kernel by name."""
    return _KERNELS[name]


def build_map_tables(fmaps: np.ndarray, nx: int, ny: int) -> tuple[np.ndarray, np.ndarray]:
    """Image and preimage lookup tables for a batch of assignments."""
    fcount = fmaps.shape[0]
    sizex = 1 << nx
    sizey = 1 << ny
    imgs = np.zeros((fcount, sizex), np.int64)
    pres = np.zeros((fcount, sizey), np.int64)
    for k in range(fcount):
        f = fmaps[k]
        for a in range(sizex):
            m = 0
            for x in range(nx):
                if (a >> x) & 1:
                    m |= 1 << f[x]
            imgs[k, a] = m
        for b in range(sizey):
            m = 0
            for x in range(nx):
                if (b >> f[x]) & 1:
                    m |= 1 << x
            pres[k, b] = m
    return imgs, pres
