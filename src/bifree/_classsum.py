"""The one lattice-sum engine: block-profile sums over bi-non-crossing classes.

Every sum over a partition lattice in the package has the shape

    sum over pi in BNC(shape) with pi v sigma = 1 and a per-block purity
    condition, of a product over blocks of table entries,

where the entry a block contributes depends only on (its color, its number
of left nodes, its number of right nodes).  The partition set does not
depend on the table, so each (kind, n, m) cell is enumerated once and
collapsed to a counter

    subclass tag -> { sorted tuple of (color, #lefts, #rights) : count }

which any number of tables can then be evaluated against (`weigh`).

Enumeration walks positions in the chi-permuted order keeping a stack of
open blocks (the standard non-crossing sweep: a new element either opens a
block or joins an open one, closing every block nested above it).  Two
prunes keep the walk far below the raw Catalan count:

  * color purity: a block may only absorb nodes of its color (for the
    T-shaped kinds only right nodes are colored);
  * connectivity death: union-find over the sigma-classes, merged as blocks
    span them, with an undo trail.  When a block closes inside a class with
    no other open block and no unprocessed position, the join with sigma
    can no longer become full and the branch is abandoned.

Colors encode the alternation pattern of the product word: for the standard
words (left string a1 a2 a1 ... and right string b1 b2 b1 ...) the color of
a node is the parity of its index, and a block's color decides which pair's
cumulant it reads.  The flipped-right kind serves the reversed right word.

Two kinds turn the plain lattice sums into weighings of the sweep:

  * "bnc": all of BNC(n, m), with one sigma-group and no colors, so no
    prune fires.  Moments weigh it with the cumulant table.
  * "kreweras": the flipped-right layout of (n, m).  Its 2(n+m) points
    alternate in color and sigma pairs each color-1 point with the next
    color-2 point, so the pure partitions joined to sigma are exactly
    pi u K(pi) for pi in BNC(n, m) (`ncpart.unique_complement_check`
    brute-forces this bijection): color 1 carries pi, color 2 K(pi).
    Leaves are tagged "pinched" when {1} is a singleton of pi, else
    "rest".  Convolutions (m = 0) and the Mobius inversion weigh it.

BIFREE_CAP bounds the lattice: `weigh` checks it against the swept size K,
but for "kreweras" against n + m, the ground set of pi.
"""

from __future__ import annotations

from fractions import Fraction
from functools import lru_cache

from ._caps import check_cap
from .errors import InvariantViolation

# block fields
_FIRST, _LAST, _COLOR, _NL, _NR, _MINLAB, _REP = range(7)


def _layout(kind, n, m):
    """Positions in permuted order with colors and sigma-group ids.

    Returns (K, colors, sid, group_last, purity, tag_mode).  Positions are
    0-based in chi-order: lefts 1..L ascending then rights R..1 descending.
    """
    if kind == "T":
        if n < 0 or m < 1:
            raise ValueError("kind T needs n >= 0, m >= 1")
        L, R = n, 2 * m
        lgroup = lambda k: k - 1
        rgroup = lambda j: L + (j - 1) // 2
        n_groups = L + m
        lcolor = lambda k: 0
        rcolor = lambda j: 1 if j % 2 else 2
        purity = "rights"
        tag_mode = "T" if n >= 1 else "none"
    elif kind == "T_primed":
        if n < 0 or m < 0:
            raise ValueError("kind T_primed needs n, m >= 0")
        L, R = n, 2 * m + 1
        lgroup = lambda k: k - 1
        rgroup = lambda j: L if j == 1 else L + 1 + (j - 2) // 2
        n_groups = L + 1 + m
        lcolor = lambda k: 0
        rcolor = lambda j: 1 if j % 2 else 2
        purity, tag_mode = "rights", "none"
    elif kind in ("S", "S_flip_right", "kreweras"):
        if n < 0 or m < 0 or n + m < 1:
            raise ValueError(f"kind {kind} needs n, m >= 0 with n+m >= 1")
        L, R = 2 * n, 2 * m
        lgroup = lambda k: (k - 1) // 2
        rgroup = lambda j: n + (j - 1) // 2
        n_groups = n + m
        lcolor = lambda k: 1 if k % 2 else 2
        if kind == "S":
            rcolor = lambda j: 1 if j % 2 else 2
            tag_mode = "S" if n >= 1 and m >= 1 else "none"
        else:
            rcolor = lambda j: 2 if j % 2 else 1
            tag_mode = "pinched" if kind == "kreweras" else "none"
        purity = "both"
    elif kind == "S_primed":
        if n < 0 or m < 0:
            raise ValueError("kind S_primed needs n, m >= 0")
        L, R = 2 * n + 1, 2 * m + 1
        lgroup = lambda k: 0 if k == 1 else 1 + (k - 2) // 2
        rgroup = lambda j: 0 if j == 1 else 1 + n + (j - 2) // 2
        n_groups = 1 + n + m
        lcolor = lambda k: 1 if k % 2 else 2
        rcolor = lambda j: 1 if j % 2 else 2
        purity, tag_mode = "both", "Sprime"
    elif kind == "bnc":
        if n < 0 or m < 0 or n + m < 1:
            raise ValueError("kind bnc needs n, m >= 0 with n+m >= 1")
        L, R = n, m
        lgroup = rgroup = lambda k: 0
        n_groups = 1
        lcolor = rcolor = lambda k: 0
        purity, tag_mode = "both", "none"
    else:
        raise ValueError(f"unknown class kind {kind!r}")

    K = L + R
    colors = []
    sid = []
    labels = []
    for p in range(K):
        if p < L:
            lab = p + 1
            colors.append(lcolor(lab))
            sid.append(lgroup(lab))
        else:
            lab = R - (p - L)
            colors.append(rcolor(lab))
            sid.append(rgroup(lab))
        labels.append(lab)
    group_last = [-1] * n_groups
    for p in range(K):
        if p > group_last[sid[p]]:
            group_last[sid[p]] = p
    return K, L, colors, sid, labels, group_last, purity, tag_mode


@lru_cache(maxsize=None)
def class_profiles(kind, n, m):
    """{tag: {profile: count}} for one cell of a partition class.

    Tags: kind "T" -> "o"/"e" (color 1/2 of the rights in the block of the
    first left node); "S" -> "o"/"e" (color 1/2 of the topmost two-sided
    block); "S_primed" -> "o0"/"or"/"ol"/"olr"; "kreweras" ->
    "pinched"/"rest" (whether {1} is a singleton of pi); otherwise "all".
    The cap is checked by `weigh`, in front of this cache.
    """
    K, L, colors, sid, labels, group_last, purity, tag_mode = _layout(kind, n, m)
    rights_only = purity == "rights"

    parent = list(range(len(group_last)))
    size = [1] * len(group_last)
    open_cnt = [0] * len(group_last)
    pend_max = list(group_last)
    state = {"classes": len(group_last)}

    def find(x):
        while parent[x] != x:
            x = parent[x]
        return x

    trail = []

    def union(a, b):
        ra, rb = find(a), find(b)
        if ra == rb:
            return
        if size[ra] < size[rb]:
            ra, rb = rb, ra
        trail.append((ra, rb, size[ra], open_cnt[ra], pend_max[ra]))
        parent[rb] = ra
        size[ra] += size[rb]
        open_cnt[ra] += open_cnt[rb]
        if pend_max[rb] > pend_max[ra]:
            pend_max[ra] = pend_max[rb]
        state["classes"] -= 1

    def undo_to(mark):
        # records with ra == rb are open/close bookkeeping, not merges
        while len(trail) > mark:
            ra, rb, sz, oc, pm = trail.pop()
            if ra != rb:
                parent[rb] = rb
                state["classes"] += 1
            size[ra] = sz
            open_cnt[ra] = oc
            pend_max[ra] = pm

    stack = []
    closed = []
    results = {}

    def leaf():
        if state["classes"] != 1:
            return
        blocks = closed + stack
        if tag_mode == "T":
            color = next(blk[_COLOR] for blk in blocks if blk[_FIRST] == 0)
            if not color:
                raise InvariantViolation(
                    "block of the first left node has no rights at a leaf")
            tag = "o" if color == 1 else "e"
        elif tag_mode == "S":
            best = None
            for blk in blocks:
                if blk[_NL] and blk[_NR]:
                    if best is None or blk[_MINLAB] < best[_MINLAB]:
                        best = blk
            if best is None:
                raise InvariantViolation("no two-sided block at a leaf")
            tag = "o" if best[_COLOR] == 1 else "e"
        elif tag_mode == "Sprime":
            b0 = blast = None
            for blk in blocks:
                if blk[_FIRST] == 0:
                    b0 = blk
                if blk[_LAST] == K - 1:
                    blast = blk
            if b0 is blast:
                tag = "olr"
            elif b0[_NR] == 0 and blast[_NL] == 0:
                tag = "o0"
            elif b0[_NR] == 0:
                tag = "or"
            elif blast[_NL] == 0:
                tag = "ol"
            else:
                raise InvariantViolation(
                    "blocks of the two first nodes both two-sided yet distinct")
        elif tag_mode == "pinched":
            # the block holding position 0 is pi's block of 1; it is {1}
            # exactly when it also ends there
            tag = "pinched" if any(blk[_LAST] == 0 for blk in blocks) else "rest"
        else:
            tag = "all"
        profile = tuple(sorted((blk[_COLOR], blk[_NL], blk[_NR]) for blk in blocks))
        bucket = results.setdefault(tag, {})
        bucket[profile] = bucket.get(profile, 0) + 1

    def close_ok(blk, i):
        # a closed block's class must still be reachable: an open block or a
        # pending position; otherwise only the full single class survives
        c = find(blk[_REP])
        return open_cnt[c] or pend_max[c] >= i or state["classes"] == 1

    def dfs(i):
        if i == K:
            leaf()
            return
        col = colors[i]
        g = sid[i]
        is_right = i >= L

        # open a new block with i
        mark = len(trail)
        r = find(g)
        trail.append((r, r, size[r], open_cnt[r], pend_max[r]))
        open_cnt[r] += 1
        blk = [i, i, col, 0 if is_right else 1, 1 if is_right else 0,
               labels[i], g]
        stack.append(blk)
        dfs(i + 1)
        stack.pop()
        undo_to(mark)

        # join an open block, closing everything nested above it
        n_closed = 0
        while stack:
            blk = stack[-1]
            bcol = blk[_COLOR]
            ok = True
            if rights_only:
                if is_right and bcol and bcol != col:
                    ok = False
            elif bcol != col:
                ok = False
            if ok:
                saved = (blk[_LAST], blk[_COLOR], blk[_NL], blk[_NR],
                         blk[_MINLAB])
                mark = len(trail)
                union(blk[_REP], g)
                blk[_LAST] = i
                if is_right:
                    blk[_NR] += 1
                    if not blk[_COLOR]:
                        blk[_COLOR] = col
                else:
                    blk[_NL] += 1
                if labels[i] < blk[_MINLAB]:
                    blk[_MINLAB] = labels[i]
                dfs(i + 1)
                (blk[_LAST], blk[_COLOR], blk[_NL], blk[_NR],
                 blk[_MINLAB]) = saved
                undo_to(mark)
            # close the top block and expose the next depth
            mark = len(trail)
            r = find(blk[_REP])
            trail.append((r, r, size[r], open_cnt[r], pend_max[r]))
            open_cnt[r] -= 1
            if not close_ok(blk, i):
                undo_to(mark)
                break
            stack.pop()
            closed.append(blk)
            n_closed += 1
        # reopen everything closed in this frame
        for _ in range(n_closed):
            stack.append(closed.pop())
            undo_to(len(trail) - 1)

    dfs(0)
    return results


def weigh(kind, n, m, block_value, tag=None):
    """Sum count * prod block_value(color, nl, nr) over the profiles of one
    cell: every bucket, or only the bucket of `tag`.

    The cap is checked on every call, so whether a cell is refused does not
    depend on whether it was swept and cached before.
    """
    if kind in ("bnc", "kreweras"):
        ground = n + m
    elif kind in ("T", "T_primed"):
        ground = n + 2 * m + (kind == "T_primed")
    else:
        ground = 2 * (n + m) + 2 * (kind == "S_primed")
    check_cap(ground, f"class {kind} cell ({n},{m})")
    buckets = class_profiles(kind, n, m)
    chosen = buckets.values() if tag is None else [buckets.get(tag, {})]
    total = Fraction(0)
    for profiles in chosen:
        for prof, cnt in profiles.items():
            v = Fraction(1)
            for color, nl, nr in prof:
                v *= block_value(color, nl, nr)
                if not v:
                    break
            if v:
                total += cnt * v
    return total
