"""The lattice NC(n) of non-crossing partitions of {1, ..., n}.

Enumeration, the reverse-refinement order, join-connectivity, the Kreweras
complement (built by the interleaving construction), the sublattice NC'(n)
of partitions having {1} as a block, and the brute-force uniqueness check
for the complement of any element of NC(n).  The package's lattice sums
run on the `_classsum` sweep; the objects here serve the CLI listings and
the tests' brute-force references.
"""

from __future__ import annotations

from ._caps import check_cap
from .errors import SizeMismatch, UniquenessViolation


class NCPartition:
    """A non-crossing partition in canonical form.

    blocks: tuple of tuples, each sorted ascending, blocks ordered by their
    minimum.  The constructor validates the partition and crossing-freeness.
    """

    __slots__ = ("n", "blocks")

    def __init__(self, n, blocks):
        n = int(n)
        canon = tuple(sorted((tuple(sorted(b)) for b in blocks), key=lambda b: b[0]))
        seen = [x for b in canon for x in b]
        if sorted(seen) != list(range(1, n + 1)):
            raise ValueError(f"blocks do not partition 1..{n}: {blocks}")
        if not _is_noncrossing(canon, n):
            raise ValueError(f"partition is crossing: {canon}")
        self.n = n
        self.blocks = canon

    def __eq__(self, other):
        return (isinstance(other, NCPartition)
                and self.n == other.n and self.blocks == other.blocks)

    def __hash__(self):
        return hash((self.n, self.blocks))

    def __repr__(self):
        return f"NCPartition({self.n}, {partition_to_text(self)!r})"

    def __str__(self):
        return partition_to_text(self)


def _is_noncrossing(blocks, n):
    bid = {}
    first = {}
    last = {}
    for k, b in enumerate(blocks):
        for x in b:
            bid[x] = k
        first[k] = b[0]
        last[k] = b[-1]
    stack = []
    for i in range(1, n + 1):
        k = bid[i]
        if i == first[k]:
            stack.append(k)
        elif not stack or stack[-1] != k:
            return False
        if i == last[k]:
            stack.pop()
    return True


def full_partition(n):
    return NCPartition(n, [tuple(range(1, n + 1))])


def singletons_partition(n):
    return NCPartition(n, [(i,) for i in range(1, n + 1)])


def _rgs(blocks, n):
    # restricted growth string: block index of each element, blocks numbered
    # by first appearance
    bid = {}
    for k, b in enumerate(blocks):
        for x in b:
            bid[x] = k
    return tuple(bid[i] for i in range(1, n + 1))


def enumerate_nc(n):
    """All of NC(n), graded by block count and then lexicographic.

    The order is fixed (and golden-tested): partitions with fewer blocks come
    first; ties are broken by the restricted-growth string of the partition.
    """
    check_cap(n, f"enumerate_nc({n})")
    if n < 1:
        raise ValueError("n must be >= 1")
    out = []
    _gen_nc(n, 1, [], [], out)
    out.sort(key=lambda p: (len(p.blocks), _rgs(p.blocks, n)))
    return out


def _gen_nc(n, i, stack, closed, out):
    # stack entries are growing blocks; joining a non-top block closes
    # everything above it (the non-crossing condition)
    if i > n:
        out.append(NCPartition(n, closed + stack))
        return
    stack.append([i])
    _gen_nc(n, i + 1, stack, closed, out)
    stack.pop()
    for d in range(len(stack) - 1, -1, -1):
        moved = stack[d + 1:]
        del stack[d + 1:]
        stack[d].append(i)
        _gen_nc(n, i + 1, stack, closed + moved, out)
        stack[d].pop()
        stack.extend(moved)


def enumerate_nc_prime(n):
    """Partitions in NC(n) having {1} as a singleton block (count C_{n-1})."""
    return [p for p in enumerate_nc(n) if p.blocks[0] == (1,)]


def leq(pi, sigma):
    """Reverse refinement order: every block of pi inside a block of sigma."""
    if pi.n != sigma.n:
        raise SizeMismatch(f"ground sets differ: {pi.n} vs {sigma.n}")
    holder = {}
    for k, b in enumerate(sigma.blocks):
        for x in b:
            holder[x] = k
    for b in pi.blocks:
        k = holder[b[0]]
        if any(holder[x] != k for x in b[1:]):
            return False
    return True


def _blocks_of(p):
    return p.blocks if hasattr(p, "blocks") else [tuple(b) for b in p]


def join_is_full(pi, sigma):
    """Whether the set-partition join of the two inputs is the full block.

    Pure connectivity of the union of the block graphs; the inputs are taken
    as-is and need not individually be non-crossing.
    """
    bpi, bsig = _blocks_of(pi), _blocks_of(sigma)
    ground = sorted(x for b in bpi for x in b)
    ground2 = sorted(x for b in bsig for x in b)
    if ground != ground2:
        raise SizeMismatch("partitions do not cover the same ground set")
    parent = {x: x for x in ground}

    def find(x):
        while parent[x] != x:
            parent[x] = parent[parent[x]]
            x = parent[x]
        return x

    for b in list(bpi) + list(bsig):
        r = find(b[0])
        for x in b[1:]:
            parent[find(x)] = r
    roots = {find(x) for x in ground}
    return len(roots) == 1


def kreweras(pi):
    """Kreweras complement by the interleaving construction.

    Insert primed points 1', ..., n' after the unprimed ones; two primes j'
    and k' (j < k) fall in a common block exactly when {j+1, ..., k} is a
    union of complete blocks of pi.  The components of that relation form
    the coarsest non-crossing partition of the primes compatible with pi.
    The result is returned on the relabeled ground set 1..n.
    """
    n = pi.n
    bid = {}
    for k, b in enumerate(pi.blocks):
        for x in b:
            bid[x] = k
    spans = {k: (b[0], b[-1]) for k, b in enumerate(pi.blocks)}

    def interval_is_union(j, k):
        # is {j+1..k} a union of complete blocks?
        for x in range(j + 1, k + 1):
            lo, hi = spans[bid[x]]
            if lo <= j or hi > k:
                return False
        return True

    parent = list(range(n + 1))

    def find(x):
        while parent[x] != x:
            parent[x] = parent[parent[x]]
            x = parent[x]
        return x

    for j in range(1, n + 1):
        for k in range(j + 1, n + 1):
            if interval_is_union(j, k):
                parent[find(k)] = find(j)
    comp = {}
    for x in range(1, n + 1):
        comp.setdefault(find(x), []).append(x)
    return NCPartition(n, list(comp.values()))


def unique_complement_check(pi):
    """Brute-force the defining property of the Kreweras complement.

    For pi in NC(n), search all tau in NC(n) (on the primed points) for
    which the interleaved union pi cup tau (order 1, 1', 2, 2', ..., n, n')
    is non-crossing and joins with the pairing {{k, k'}} to the full
    partition.  Exactly one tau must survive, and it must be kreweras(pi);
    anything else raises UniquenessViolation.  This is the bijection the
    "kreweras" kind of the class sweep rests on.
    """
    n = pi.n
    pairing = [(2 * k - 1, 2 * k) for k in range(1, n + 1)]
    pi_blocks = [tuple(2 * x - 1 for x in b) for b in pi.blocks]
    found = []
    for tau in enumerate_nc(n):
        tau_blocks = [tuple(2 * x for x in b) for b in tau.blocks]
        combined = pi_blocks + tau_blocks
        if not _is_noncrossing(
                sorted(combined, key=lambda b: b[0]), 2 * n):
            continue
        if join_is_full(combined, pairing):
            found.append(tau)
    if len(found) != 1:
        raise UniquenessViolation(
            f"expected exactly one complement for {pi}, found {len(found)}")
    return found[0]


# -- text forms -------------------------------------------------------------

def partition_to_text(pi):
    return "{" + "|".join(",".join(str(x) for x in b) for b in pi.blocks) + "}"


def partition_from_text(text):
    """Parse "{1,6|2,3,4|5|7}" into an NCPartition."""
    s = text.strip()
    if not (s.startswith("{") and s.endswith("}")):
        raise ValueError(f"bad partition literal: {text!r}")
    blocks = []
    for chunk in s[1:-1].split("|"):
        chunk = chunk.strip()
        if not chunk:
            raise ValueError(f"empty block in {text!r}")
        blocks.append(tuple(int(t) for t in chunk.split(",")))
    n = max(x for b in blocks for x in b)
    return NCPartition(n, blocks)


def ascii_diagram(pi):
    """Bracket diagram: one row per block above the node line."""
    n = pi.n
    width = 3
    rows = []
    order = sorted(range(len(pi.blocks)),
                   key=lambda k: (pi.blocks[k][-1] - pi.blocks[k][0], pi.blocks[k][0]),
                   reverse=True)
    for k in order:
        b = pi.blocks[k]
        row = [" "] * (width * n)
        for x in range(b[0], b[-1] + 1):
            row[(x - 1) * width] = "-"
            if (x - 1) * width + 1 < len(row) and x < b[-1]:
                row[(x - 1) * width + 1] = "-"
                row[(x - 1) * width + 2] = "-"
        for x in b:
            row[(x - 1) * width] = "+"
        rows.append("".join(row).rstrip())
    nodes = "".join(str(x).ljust(width) for x in range(1, n + 1)).rstrip()
    return "\n".join(rows + [nodes])
