"""Edge-path presentations of the fundamental group, with Tietze moves.

A connected simplicial set yields generators from its nondegenerate
1-cells and relators from a spanning tree plus the nondegenerate 2-cells.
Simplification is best-effort under a move budget: reaching the empty
presentation certifies triviality, while a stalled simplification is
inconclusive (the word problem does not let us conclude nontriviality).
There is one elimination move: a generator that occurs once in a relator
is solved for by that relator and substituted into the others.  Overlap
shortening of relators is the fallback when no relator offers one.  Each
move touches a few relators, so the simplifier keeps an index from each
generator to the relators that contain it and rewrites only those; a lazy
heap gives the next relator to eliminate by, and the generators are
renumbered once, at the end.

The abelianization is always computed exactly, as H_1 of the presentation
complex: one vertex, a loop per generator and a 2-cell per relator.  Its
d_2 is the exponent-sum matrix and its d_1 is 0, so the homology layer's
``_reduction`` pairs most relators with generators by coreduction, and the
Smith form sees only the small residual.
"""

from __future__ import annotations

import heapq
from collections import deque
from dataclasses import dataclass
from itertools import chain

import numpy as np

from .homology import ChainComplexZ, HomologyGroup, SparseIntMatrix, homology
from .simplicial import SimplicialError


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


def fundamental_presentation(S) -> GroupPresentation:
    """Edge-path presentation of the fundamental group of a simplicial set.

    ``S`` is a :class:`NondegenerateComplex` or anything with a
    ``nondegenerate_form()``.  Generators are the nondegenerate 1-cells; a
    spanning-tree edge contributes a killing relator and every
    nondegenerate 2-cell s the relator d_2(s) d_0(s) (d_1(s))^-1, with
    degenerate faces read as the empty word.
    """
    F = S.nondegenerate_form()
    if F.truncation < 1:
        raise SimplicialError("need at least the 1-skeleton for pi_1")
    n_vertices = F.ranks[0]
    # edge e (generator e + 1) runs from d_1(e) to d_0(e)
    adjacency: dict[int, list[tuple[int, int]]] = {v: [] for v in range(n_vertices)}
    for e, (end, start) in enumerate(F.faces[1].tolist()):
        adjacency[start].append((end, e))
        adjacency[end].append((start, e))

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

    relators: list[tuple[int, ...]] = [(e + 1,) for e in sorted(tree_edges)]
    if F.truncation >= 2:
        for d0, d1, d2 in F.faces[2].tolist():
            word = [sign * (e + 1) for e, sign in ((d2, 1), (d0, 1), (d1, -1)) if e >= 0]
            relators.append(_free_reduce(tuple(word)))
    relators = [w for w in relators if w]
    return GroupPresentation(F.ranks[1], tuple(relators))


def _free_reduce(word: tuple[int, ...]) -> tuple[int, ...]:
    out: list[int] = []
    for g in word:
        if out and out[-1] == -g:
            out.pop()
        else:
            out.append(g)
    return tuple(out)


def _strip_ends(word: tuple[int, ...]) -> tuple[int, ...]:
    """A freely reduced word without its matching ends g ... g^-1."""
    i, j = 0, len(word)
    while j - i > 1 and word[i] == -word[j - 1]:
        i += 1
        j -= 1
    return word[i:j] if i else word


def _cyclic_reduce(word: tuple[int, ...]) -> tuple[int, ...]:
    return _strip_ends(_free_reduce(word))


def _invert(word: tuple[int, ...]) -> tuple[int, ...]:
    return tuple([-g for g in reversed(word)])


def _canonical(word: tuple[int, ...]) -> tuple[int, ...]:
    """Least rotation among the word and its inverse; for deduplication.

    The least rotation starts at the least letter of the two words,
    min(word) or -max(word), so only the rotations starting there are
    compared."""
    if not word:
        return ()
    least, inverse_least = min(word), -max(word)
    if least == inverse_least:
        return min([w[i:] + w[:i] for w in (word, _invert(word))
                    for i, g in enumerate(w) if g == least])
    if inverse_least < least:
        word, least = _invert(word), inverse_least
    if word.count(least) > 1:
        return min([word[i:] + word[:i] for i, g in enumerate(word) if g == least])
    i = word.index(least)
    return word[i:] + word[:i]


def _substitute(word: tuple[int, ...], gen: int,
                replacement: tuple[int, ...]) -> tuple[int, ...]:
    """``word`` with gen replaced by ``replacement`` and gen^-1 by its
    inverse, freely reduced as it is written out."""
    out: list[int] = []
    inverse = _invert(replacement) if -gen in word else ()
    for g in word:
        for h in (replacement if g == gen else inverse if g == -gen else (g,)):
            if out and out[-1] == -h:
                out.pop()
            else:
                out.append(h)
    return tuple(out)


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
    """Order in which relators are scanned: shortest, then least signed word."""
    return (len(word), word)


def _once(word: tuple[int, ...]) -> list[int]:
    """The generators that occur exactly once in ``word``."""
    letters = [abs(g) for g in word]
    if len(set(letters)) == len(letters):
        return letters
    return [g for g in letters if letters.count(g) == 1]


def tietze_simplify(pres: GroupPresentation, budget: int = 20000) -> GroupPresentation:
    """Bounded best-effort simplification by Tietze transformations.

    One move eliminates a generator: in the least relator under
    :func:`_key` in which some generator occurs exactly once, take such a
    generator g held by the fewest relators (then the least), write the
    relator as g^e rest, substitute g = rest^-e into every other relator
    and drop this one.  When no relator has such a generator, relators are
    shortened via overlaps.  Moves run until stable or ``budget`` moves
    have been made; a negative budget raises ValueError.

    The relators are kept one per class of rotations and inversions, the
    least under :func:`_key`, each with the generators that occur once in
    it, and with an index from each generator to the relators that contain
    it.  Eliminating a generator rewrites only the relators in its index
    entry; a lazy heap yields the least relator with a generator that
    occurs once.  Generators keep their input numbers until one order- and
    sign-preserving renumbering at the end, so every choice is the one a
    scan of the whole renumbered presentation would make.
    """
    if budget < 0:
        raise ValueError(f"negative budget {budget}")
    count = pres.generator_count
    rep_of: dict[tuple[int, ...], tuple[int, ...]] = {}   # canonical form -> relator
    stored: dict[tuple[int, ...], tuple] = {}   # relator -> (canonical form, _once)
    holders: list[set[tuple[int, ...]]] = [set() for _ in range(count + 1)]
    ready: list[tuple] = []    # _key(w) of relators with a letter once, lazily stale

    def remove(word):
        del rep_of[stored.pop(word)[0]]
        for g in word:
            holders[abs(g)].discard(word)

    eliminated: set[int] = set()
    pending = [w for w in map(_cyclic_reduce, pres.relators) if w]   # merged at the next move
    moves = 0
    while moves < budget:
        for word in pending:
            canon = _canonical(word)
            old = rep_of.get(canon)
            if old is not None:
                if (len(word), word) >= (len(old), old):
                    continue
                remove(old)
            rep_of[canon] = word
            stored[word] = (canon, once := _once(word))
            for g in word:
                holders[abs(g)].add(word)
            if once:
                heapq.heappush(ready, (len(word), word))
        pending = []

        while ready and ready[0][1] not in stored:
            heapq.heappop(ready)
        if ready:
            word = ready[0][1]
            g = min(stored[word][1], key=lambda h: (len(holders[h]), h))
            j = word.index(g) if g in word else word.index(-g)
            # g^e rest = 1, so g = rest^-1 for e = +1 and g = rest for e = -1
            rest = word[j + 1:] + word[:j]
            replacement = _invert(rest) if word[j] > 0 else rest
            others, holders[g] = holders[g], set()
            others.discard(word)
            remove(word)
            for w in others:
                remove(w)
                # _substitute reduces freely, so stripping the ends reduces cyclically
                if w := _strip_ends(_substitute(w, g, replacement)):
                    pending.append(w)
            eliminated.add(g)
        else:
            shortened = _shorten_once(sorted(stored, key=_key))
            if shortened is None:
                break
            target, candidate = shortened
            remove(target)
            if candidate := _cyclic_reduce(candidate):
                pending.append(candidate)
        moves += 1

    number = {}
    for g in range(1, count + 1):
        if g not in eliminated:
            number[g] = len(number) + 1
    relators = {tuple(number[g] if g > 0 else -number[-g] for g in w)
                for w in (*stored, *pending)}
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
    """H_1 of the presentation complex (see the module docstring); d_2 sums
    the letters of each relator into its column of exponent sums."""
    count, relators = pres.generator_count, pres.relators
    letters = np.fromiter(chain.from_iterable(relators), dtype=np.int64)
    relator_of = np.repeat(np.arange(len(relators)), [len(w) for w in relators])
    d2 = SparseIntMatrix.from_arrays(count, len(relators), np.abs(letters) - 1, relator_of,
                                     np.sign(letters))
    return homology(ChainComplexZ((1, count, len(relators)), {2: d2})).group(1)
