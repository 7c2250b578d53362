"""Edge-path presentations of the fundamental group, with Tietze moves.

A connected simplicial set yields generators from its nondegenerate
1-cells and relators from a spanning tree plus the nondegenerate 2-cells.
Simplification is best-effort under a move budget: reaching the empty
presentation certifies triviality, while a stalled simplification is
inconclusive (the word problem does not let us conclude nontriviality).
Almost every move eliminates a generator that occurs in a few relators,
so the simplifier keeps an index from each generator to the relators that
contain it and rewrites only those; lazy heaps give the next relator of
length at most 2 and the next generator that occurs once, and the
generators are renumbered once, at the end.  The abelianization is always
computed exactly.
"""

from __future__ import annotations

import heapq
from collections import deque
from dataclasses import dataclass

import numpy as np

from .homology import HomologyGroup, SparseIntMatrix, smith_normal_form
from .simplicial import SimplicialError, TruncatedSimplicialSet


@dataclass(frozen=True)
class GroupPresentation:
    """Generators ``1..generator_count``; relators are signed index words."""

    generator_count: int
    relators: tuple[tuple[int, ...], ...]

    def __post_init__(self):
        if self.generator_count < 0:
            raise ValueError(f"negative generator_count {self.generator_count}")
        for word in self.relators:
            for g in word:
                if g == 0 or abs(g) > self.generator_count:
                    raise ValueError(f"relator letter {g} out of range")

    @property
    def is_trivial(self) -> bool:
        return self.generator_count == 0


def fundamental_presentation(S: TruncatedSimplicialSet) -> GroupPresentation:
    """Edge-path presentation of the fundamental group of a simplicial set.

    Generators are the nondegenerate 1-cells; a spanning-tree edge
    contributes a killing relator and every nondegenerate 2-cell s the
    relator d_2(s) d_0(s) (d_1(s))^-1, with degenerate faces read as the
    empty word.
    """
    if S.truncation < 1:
        raise SimplicialError("need at least the 1-skeleton for pi_1")
    n_vertices = S.counts[0]
    edges = np.nonzero(S.nondegenerate(1))[0]
    gen_of_edge = {int(e): i + 1 for i, e in enumerate(edges)}
    # edge e runs from d_1(e) to d_0(e)
    adjacency: dict[int, list[tuple[int, int]]] = {v: [] for v in range(n_vertices)}
    for e in edges:
        start = int(S.faces[1][e, 1])
        end = int(S.faces[1][e, 0])
        adjacency[start].append((end, int(e)))
        adjacency[end].append((start, int(e)))

    seen = {0}
    tree_edges: set[int] = set()
    queue = deque([0])
    while queue:
        v = queue.popleft()
        for w, e in adjacency[v]:
            if w not in seen:
                seen.add(w)
                tree_edges.add(e)
                queue.append(w)
    if len(seen) != n_vertices:
        raise SimplicialError("simplicial set is not connected")

    relators: list[tuple[int, ...]] = [(gen_of_edge[e],) for e in sorted(tree_edges)]
    if S.truncation >= 2:
        nondeg1 = S.nondegenerate(1)
        for t in np.nonzero(S.nondegenerate(2))[0]:
            word = []
            for face_index, sign in ((2, 1), (0, 1), (1, -1)):
                e = int(S.faces[2][t, face_index])
                if nondeg1[e]:
                    word.append(sign * gen_of_edge[e])
            relators.append(_free_reduce(tuple(word)))
    relators = [w for w in relators if w]
    return GroupPresentation(len(edges), tuple(relators))


def _free_reduce(word: tuple[int, ...]) -> tuple[int, ...]:
    out: list[int] = []
    for g in word:
        if out and out[-1] == -g:
            out.pop()
        else:
            out.append(g)
    return tuple(out)


def _cyclic_reduce(word: tuple[int, ...]) -> tuple[int, ...]:
    word = _free_reduce(word)
    while len(word) >= 2 and word[0] == -word[-1]:
        word = _free_reduce(word[1:-1])
    return word


def _invert(word: tuple[int, ...]) -> tuple[int, ...]:
    return tuple(-g for g in reversed(word))


def _canonical(word: tuple[int, ...]) -> tuple[int, ...]:
    """Least rotation among the word and its inverse; for deduplication."""
    candidates = []
    for w in (word, _invert(word)):
        candidates.extend(w[i:] + w[:i] for i in range(len(w)))
    return min(candidates) if candidates else ()


def _substitute(word: tuple[int, ...], gen: int,
                replacement: tuple[int, ...]) -> tuple[int, ...]:
    out: list[int] = []
    inverse = _invert(replacement)
    for g in word:
        if g == gen:
            out.extend(replacement)
        elif g == -gen:
            out.extend(inverse)
        else:
            out.append(g)
    return _free_reduce(tuple(out))


def _shorten_with(short: tuple[int, ...], long_word: tuple[int, ...]):
    """Replace a long cyclic chunk of ``short`` inside ``long_word``."""
    n = len(short)
    if n < 2 or len(long_word) < n:
        return None
    variants = []
    for base in (short, _invert(short)):
        variants.extend(base[i:] + base[:i] for i in range(n))
    need = n // 2 + 1
    for v in variants:
        chunk = v[:need] if need < n else v
        # replacing chunk u (prefix of relator v = u*t) with t^-1 shortens
        for start in range(len(long_word) - len(chunk) + 1):
            if tuple(long_word[start:start + len(chunk)]) == chunk:
                tail = _invert(v[len(chunk):])
                candidate = _free_reduce(
                    long_word[:start] + tail + long_word[start + len(chunk):])
                if len(candidate) < len(long_word):
                    return candidate
    return None


def _key(word: tuple[int, ...]):
    """Order in which relators are scanned: shortest, then least letters."""
    return (len(word), tuple(abs(g) for g in word), word)


def _pins(word: tuple[int, ...]) -> bool:
    """Whether ``word`` alone eliminates a generator (length 1, or 2 on two)."""
    return len(word) == 1 or (len(word) == 2 and abs(word[0]) != abs(word[1]))


def tietze_simplify(pres: GroupPresentation, budget: int = 20000) -> GroupPresentation:
    """Bounded best-effort simplification by Tietze transformations.

    Applies generator eliminations (length-1 and length-2 relators,
    generators occurring exactly once overall) and relator shortening via
    overlaps, until stable or the move budget runs out.

    The relators are kept one per class of rotations and inversions, the
    least under :func:`_key`, with an index from each generator to the
    relators that contain it and its number of occurrences.  Eliminating a
    generator rewrites only the relators in its index entry; a lazy heap
    yields the least pinning relator and another the least generator that
    occurs once.  Generators keep their input numbers until one order- and
    sign-preserving renumbering at the end, so every choice is the one a
    scan of the whole renumbered presentation would make.
    """
    count = pres.generator_count
    rep_of: dict[tuple[int, ...], tuple[int, ...]] = {}    # canonical form -> relator
    canon_of: dict[tuple[int, ...], tuple[int, ...]] = {}  # relator -> canonical form
    holders: list[set[tuple[int, ...]]] = [set() for _ in range(count + 1)]
    occurrences = [0] * (count + 1)
    pinning: list[tuple] = []    # (_key(w), w) for pinning relators, lazily stale
    once: list[int] = []         # generators that occurred once, lazily stale

    def add(canon, word):
        rep_of[canon] = word
        canon_of[word] = canon
        for g in word:
            occurrences[abs(g)] += 1
            holders[abs(g)].add(word)
        for g in word:
            if occurrences[abs(g)] == 1:
                heapq.heappush(once, abs(g))
        if _pins(word):
            heapq.heappush(pinning, (_key(word), word))

    def remove(word):
        del rep_of[canon_of.pop(word)]
        for g in word:
            occurrences[abs(g)] -= 1
            holders[abs(g)].discard(word)
        for g in word:
            if occurrences[abs(g)] == 1:
                heapq.heappush(once, abs(g))

    def reduced(words):
        return [w for w in map(_cyclic_reduce, words) if w]

    eliminated: set[int] = set()
    pending = reduced(pres.relators)    # new relators, merged at the next move
    moves = 0
    while moves < budget:
        for word in pending:
            canon = _canonical(word)
            old = rep_of.get(canon)
            if old is None:
                add(canon, word)
            elif _key(word) < _key(old):
                remove(old)
                add(canon, word)
        pending = []

        while pinning and pinning[0][1] not in canon_of:
            heapq.heappop(pinning)
        while once and occurrences[once[0]] != 1:
            heapq.heappop(once)
        if pinning:
            word = pinning[0][1]
            g = abs(word[0])
            replacement = () if len(word) == 1 else (
                (-word[1],) if word[0] > 0 else (word[1],))
            touched = list(holders[g])
            for w in touched:
                remove(w)
            pending = reduced(_substitute(w, g, replacement) for w in touched)
        elif once:
            # g = rest of its one relator, which drops out; no other relator has g
            g = once[0]
            remove(next(iter(holders[g])))
        else:
            shortened = _shorten_once(sorted(canon_of, key=_key))
            if shortened is None:
                break
            target, candidate = shortened
            remove(target)
            pending = reduced([candidate])
            moves += 1
            continue
        eliminated.add(g)
        moves += 1

    number = {}
    for g in range(1, count + 1):
        if g not in eliminated:
            number[g] = len(number) + 1
    relators = {tuple(number[g] if g > 0 else -number[-g] for g in w)
                for w in (*canon_of, *pending)}
    return GroupPresentation(len(number), tuple(sorted(relators)))


def _shorten_once(relators: list[tuple[int, ...]]):
    """First ``(target, shorter)`` that one relator's overlap gives another."""
    for i, short in enumerate(relators):
        for j, target in enumerate(relators):
            if i != j and len(target) >= len(short):
                candidate = _shorten_with(short, target)
                if candidate is not None:
                    return target, candidate
    return None


def abelianization(pres: GroupPresentation) -> HomologyGroup:
    """Abelianized group computed exactly from the exponent-sum matrix."""
    entries = []
    for j, w in enumerate(pres.relators):
        sums: dict[int, int] = {}
        for g in w:
            sums[abs(g)] = sums.get(abs(g), 0) + (1 if g > 0 else -1)
        for g, v in sums.items():
            if v:
                entries.append((g - 1, j, v))
    M = SparseIntMatrix(pres.generator_count, len(pres.relators), entries)
    snf = smith_normal_form(M, transforms=False, verify=False)
    betti = pres.generator_count - snf.rank
    return HomologyGroup(1, betti, snf.torsion)
