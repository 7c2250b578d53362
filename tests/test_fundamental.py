"""Tests of pi_1 presentations, including a differential test of Tietze moves.

``reference_tietze_simplify`` applies the simplifier's rule without its
index and heap: every move re-reduces, re-sorts and re-deduplicates the
whole presentation, counts occurrences afresh and renumbers the
generators.  It is kept here only as an oracle; it shares the word
primitives of ``finsub.fundamental`` but none of the bookkeeping.
"""

import random
from functools import lru_cache

import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from finsub.fundamental import (GroupPresentation, abelianization,
                                fundamental_presentation, tietze_simplify,
                                _canonical, _cyclic_reduce, _free_reduce, _invert,
                                _shorten_with, _substitute)
from finsub.homology import SparseIntMatrix, homology_of_sset, invariant_factors
from finsub.constructions import finite_subset_space, symmetric_product
from finsub.simplicial import SimplicialError, from_ordered_complex
from finsub.spaces import builtin_space

from conftest import import_perfbench

relabel = import_perfbench("workloads").relabel


def _renumber(generator_count, relators, removed):
    remap = {}
    nxt = 1
    for g in range(1, generator_count + 1):
        if g not in removed:
            remap[g] = nxt
            nxt += 1
    new_relators = []
    for w in relators:
        new_relators.append(tuple((1 if g > 0 else -1) * remap[abs(g)] for g in w))
    return GroupPresentation(nxt - 1, tuple(new_relators))


def reference_tietze_simplify(pres, budget=20000):
    """Tietze moves that rebuild the whole presentation after each one."""
    gens = pres.generator_count
    relators = [_cyclic_reduce(w) for w in pres.relators]
    moves = 0

    while moves < budget:
        relators = sorted({w for w in (_cyclic_reduce(r) for r in relators) if w},
                          key=lambda w: (len(w), w))
        dedup = {}
        for w in relators:
            dedup.setdefault(_canonical(w), w)
        relators = list(dedup.values())

        elim = None
        for i, w in enumerate(relators):
            once = [abs(g) for g in w if w.count(g) + w.count(-g) == 1]
            if once:
                g = min(once, key=lambda h: (
                    sum(1 for r in relators if h in r or -h in r), h))
                j = [abs(h) for h in w].index(g)
                rotated = w[j:] + w[:j]
                rest = rotated[1:]
                elim = (g, _invert(rest) if rotated[0] > 0 else rest)
                relators = relators[:i] + relators[i + 1:]
                break
        if elim is not None:
            g, repl = elim
            relators = [w for w in (_substitute(w, g, repl) for w in relators) if w]
            moves += 1
            renum = _renumber(gens, relators, {g})
            gens = renum.generator_count
            relators = list(renum.relators)
            continue

        improved = False
        for i, short in enumerate(relators):
            for j, target in enumerate(relators):
                if i == j:
                    continue
                if len(target) < len(short):
                    continue
                candidate = _shorten_with(short, target)
                if candidate is not None:
                    relators[j] = candidate
                    improved = True
                    moves += 1
                    break
            if improved:
                break
        if not improved:
            break

    relators = sorted({w for w in (_cyclic_reduce(r) for r in relators) if w})
    return GroupPresentation(gens, tuple(relators))


def test_free_and_cyclic_reduction():
    assert _free_reduce((1, -1, 2)) == (2,)
    assert _free_reduce((1, 2, -2, -1)) == ()
    assert _cyclic_reduce((1, 2, -1)) == (2,)
    assert _cyclic_reduce((2, 1, -2)) == (1,)


_words = st.lists(st.integers(1, 4).flatmap(lambda g: st.sampled_from((g, -g))),
                  max_size=9).map(tuple)


@settings(max_examples=300, deadline=None)
@given(_words)
def test_canonical_is_the_least_rotation_of_the_word_or_its_inverse(word):
    rotations = [w[i:] + w[:i] for w in (word, _invert(word)) for i in range(len(w))]
    assert _canonical(word) == (min(rotations) if word else ())


@settings(max_examples=300, deadline=None)
@given(_words, st.integers(1, 4), _words)
def test_substitute_is_the_expansion_freely_reduced(word, gen, replacement):
    expanded = []
    for g in word:
        expanded += replacement if g == gen else _invert(replacement) if g == -gen else (g,)
    assert _substitute(word, gen, replacement) == _free_reduce(tuple(expanded))


@settings(max_examples=300, deadline=None)
@given(_words, _words)
def test_cyclic_reduce_strips_cancelling_ends_up_to_conjugacy(core, conjugator):
    word = conjugator + core + _invert(conjugator)
    out = _cyclic_reduce(word)
    assert _free_reduce(out) == out
    assert len(out) < 2 or out[0] != -out[-1]
    # the free reduction of word is u out u^-1, so out = u^-1 word u
    reduced = _free_reduce(word)
    k = (len(reduced) - len(out)) // 2
    assert reduced[k:len(reduced) - k] == out
    u = reduced[:k]
    assert _free_reduce(_invert(u) + word + u) == out


def test_circle_gives_free_group_of_rank_one():
    S = from_ordered_complex(builtin_space("circle3"), 2)
    pres = fundamental_presentation(S)
    simplified = tietze_simplify(pres)
    assert simplified.generator_count == 1
    assert simplified.relators == ()
    assert str(abelianization(pres)) == "Z"


def test_sphere_is_simply_connected():
    S = from_ordered_complex(builtin_space("sphere2"), 3)
    simplified = tietze_simplify(fundamental_presentation(S))
    assert simplified.is_trivial


def test_torus_abelianization():
    S = from_ordered_complex(builtin_space("torus"), 3)
    pres = fundamental_presentation(S)
    ab = abelianization(pres)
    assert (ab.betti, ab.torsion) == (2, ())


def test_rp2_abelianization():
    S = from_ordered_complex(builtin_space("rp2"), 3)
    ab = abelianization(fundamental_presentation(S))
    assert (ab.betti, ab.torsion) == (0, (2,))


def test_wedge_of_circles_free_rank_two():
    S = from_ordered_complex(builtin_space("wedge_circles2"), 2)
    simplified = tietze_simplify(fundamental_presentation(S))
    assert simplified.generator_count == 2
    assert simplified.relators == ()


def test_sub3_circle_trivializes():
    sub = finite_subset_space(builtin_space("circle3"), 3, with_filtration=False)
    pres = fundamental_presentation(sub.space)
    simplified = tietze_simplify(pres)
    assert simplified.is_trivial


def test_sp2_torus_pi1_matches_h1():
    sp = symmetric_product(builtin_space("torus"), 2)
    ab = abelianization(fundamental_presentation(sp.space))
    h1 = homology_of_sset(sp.space).group(1)
    assert (ab.betti, ab.torsion) == (h1.betti, h1.torsion)


def test_abelianization_always_matches_h1():
    for name, n in [("circle3", 2), ("circle4", 2), ("rp2", 2)]:
        sp = symmetric_product(builtin_space(name), n)
        ab = abelianization(fundamental_presentation(sp.space))
        h1 = homology_of_sset(sp.space).group(1)
        assert (ab.betti, ab.torsion) == (h1.betti, h1.torsion), (name, n)


def test_disconnected_rejected():
    from xn_reference import sub_object
    S = from_ordered_complex(builtin_space("circle3"), 2)
    # two isolated vertices form a valid but disconnected subobject
    two_points, _ = sub_object(S, lambda level, payload: set(payload) in ({0}, {2}))
    with pytest.raises(SimplicialError, match="connected"):
        fundamental_presentation(two_points)


def test_presentation_validation():
    with pytest.raises(ValueError):
        GroupPresentation(1, ((2,),))
    with pytest.raises(ValueError, match="generator_count"):
        GroupPresentation(-1, ())


def test_negative_budget_rejected():
    with pytest.raises(ValueError, match="budget"):
        tietze_simplify(GroupPresentation(2, ((1, 2),)), budget=-3)


def test_budget_zero_returns_input_shape():
    pres = GroupPresentation(2, ((1, 1), (2, 2)))
    out = tietze_simplify(pres, budget=0)
    assert out.generator_count == 2


@st.composite
def _presentations(draw):
    """Small presentations rich in the cases each Tietze move handles.

    Besides random words there are relators of length 1 and 2, squares
    ``(g, g)``, rotations and inverses of earlier relators (duplicates the
    dedup must see through), empty relators, and generators that occur in
    only one relator.
    """
    n = draw(st.integers(0, 6))
    if n == 0:
        return GroupPresentation(0, draw(st.lists(st.just(()), max_size=2)))
    letter = st.integers(1, n).flatmap(lambda g: st.sampled_from((g, -g)))
    relators = []
    for kind in draw(st.lists(st.sampled_from(
            ["word", "word", "short", "square", "rotate", "invert", "once", "empty"]),
            max_size=9)):
        if kind == "word":
            word = tuple(draw(st.lists(letter, min_size=1, max_size=7)))
        elif kind == "short":
            word = tuple(draw(st.lists(letter, min_size=1, max_size=2)))
        elif kind == "square":
            g = draw(letter)
            word = (g, g)
        elif kind in ("rotate", "invert") and relators:
            word = draw(st.sampled_from(relators))
            i = draw(st.integers(0, max(len(word) - 1, 0)))
            word = word[i:] + word[:i]
            if kind == "invert":
                word = _invert(word)
        elif kind == "once":
            # a generator absent from every relator so far, placed once
            used = {abs(g) for w in relators for g in w}
            free = [g for g in range(1, n + 1) if g not in used]
            if not free:
                continue
            g = draw(st.sampled_from(free)) * draw(st.sampled_from((1, -1)))
            rest = [h for h in draw(st.lists(letter, max_size=5)) if abs(h) != abs(g)]
            i = draw(st.integers(0, len(rest)))
            word = tuple(rest[:i] + [g] + rest[i:])
        else:
            word = ()
        relators.append(word)
    return GroupPresentation(n, tuple(relators))


@settings(max_examples=300, deadline=None)
@given(_presentations(), st.sampled_from([0, 1, 2, 3, 5, 20000]))
@example(GroupPresentation(2, ((1, 1), (2, 2))), 20000)
@example(GroupPresentation(2, ((1, 2), (2, 1), (-1, -2))), 20000)
@example(GroupPresentation(3, ((1, 2, -1, -2), (3,), (2, 1, -2, -1))), 1)
def test_tietze_matches_reference(pres, budget):
    simplified = tietze_simplify(pres, budget=budget)
    assert simplified == reference_tietze_simplify(pres, budget=budget)
    assert _abelian(simplified) == _abelian(pres)


def _abelian(pres):
    ab = abelianization(pres)
    return ab.betti, ab.torsion


@lru_cache(maxsize=None)
def _real_presentation(key):
    """pi_1 presentation of SP^2 of the torus relabelled by a seed
    (("sp2-torus", seed)), or of SP^2, SP^3 or Sub_3 of a built-in space
    (("sp2", name), ("sp3", name), ("sub3", name))."""
    kind, arg = key
    if kind == "sp2-torus":
        space = symmetric_product(relabel(builtin_space("torus"), random.Random(arg)), 2)
    elif kind == "sub3":
        space = finite_subset_space(builtin_space(arg), 3, with_filtration=False)
    else:
        space = symmetric_product(builtin_space(arg), int(kind[2:]))
    return fundamental_presentation(space.space)


@pytest.mark.parametrize("key", [("sp2-torus", 0), ("sp2-torus", 1), ("sp2-torus", 2),
                                 ("sub3", "wedge_circles2"), ("sub3", "circle3"),
                                 ("sub3", "sphere2"), ("sp2", "rp2"), ("sp3", "circle3"),
                                 ("sp2", "wedge_circles2")])
@pytest.mark.parametrize("budget", [0, 1, 5, 20000])
def test_tietze_matches_reference_on_real_presentations(key, budget):
    pres = _real_presentation(key)
    simplified = tietze_simplify(pres, budget=budget)
    assert simplified == reference_tietze_simplify(pres, budget=budget)
    assert _abelian(simplified) == _abelian(pres)


@pytest.mark.parametrize("key", [("sp2-torus", 0), ("sp2-torus", 1), ("sp2-torus", 2),
                                 ("sp2", "wedge_circles2"), ("sp3", "circle3"),
                                 ("sp2", "rp2")])
def test_tietze_reaches_a_minimal_presentation(key):
    """As many generators as H_1 needs: b_1 plus one per torsion factor."""
    pres = _real_presentation(key)
    betti, torsion = _abelian(pres)
    assert tietze_simplify(pres).generator_count == betti + len(torsion)


def _exponent_sum_group(pres):
    """(betti, torsion) of the whole exponent-sum matrix's Smith form."""
    M = SparseIntMatrix(pres.generator_count, len(pres.relators), [
        (abs(g) - 1, j, 1 if g > 0 else -1) for j, w in enumerate(pres.relators) for g in w])
    rank, diagonal = invariant_factors(M)
    return pres.generator_count - rank, tuple(d for d in diagonal if d > 1)


_ABELIAN_EDGE_CASES = [
    (GroupPresentation(0, ()), (0, ())),
    (GroupPresentation(3, ()), (3, ())),
    (GroupPresentation(1, ((1, -1),)), (1, ())),
    (GroupPresentation(2, ((1, 2, -1, -2),)), (2, ())),
    (GroupPresentation(1, ((1, 1),)), (0, (2,))),
    (GroupPresentation(2, ((1,) * 6, (2,) * 4)), (0, (2, 12))),
    (GroupPresentation(2, ((1, 1),)), (1, (2,))),
    (GroupPresentation(3, ((1, 1), (3, 2, -3, -2))), (2, (2,))),
]


@pytest.mark.parametrize("pres, group", _ABELIAN_EDGE_CASES)
def test_abelianization_of_edge_cases(pres, group):
    assert _abelian(pres) == _exponent_sum_group(pres) == group


@settings(max_examples=300, deadline=None)
@given(_presentations())
def test_abelianization_matches_the_exponent_sum_smith_form(pres):
    assert _abelian(pres) == _exponent_sum_group(pres)


@pytest.mark.parametrize("key", [("sp2-torus", 0), ("sub3", "wedge_circles2"),
                                 ("sp2", "rp2"), ("sp3", "circle3")])
def test_abelianization_matches_the_exponent_sum_smith_form_on_real_presentations(key):
    pres = _real_presentation(key)
    assert _abelian(pres) == _exponent_sum_group(pres)
