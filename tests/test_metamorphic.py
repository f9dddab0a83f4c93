"""Metamorphic checks of the exact solver at sizes the oracle cannot reach.

The oracle stops near n = 6 at q = 2, so on larger draws the solver's answer
is checked against itself: the same question asked through a different
search. Renumbering users and messages changes every search order but not
the problem, so kappa, the acyclic-set bound and the stage-one row rank must
not move (node counts may). A copy of a user asks nothing new, so kappa
must not move either; the exhaustive studies rely on this to solve one
demand vector per orbit. A message no user demands need never be decoded,
so adding one, held by some users, moves neither kappa nor the bounds; the
solver drops such messages from its pool, and this relation makes it drop
one more. Dropping users to decode can only shorten the optimal code, and
every cover plan is a code, so no cover is shorter than kappa. A user that
holds one more message decodes whatever it decoded and can send whatever it
sent, so growing side information never raises kappa.
"""

import itertools
import random

import pytest

from eicp.covers import biclique_cover, tree_cover
from eicp.experiments import random_single_unicast
from eicp.minrank import minrank_bnb
from eicp.model import EicpInstance, _renamed, gen_random


def relabel(inst: EicpInstance, rng: random.Random) -> EicpInstance:
    """`inst` with its users and its messages renumbered by permutations drawn from `rng`."""
    users = list(range(inst.num_users))  # users[new position] = old position
    rng.shuffle(users)
    messages = list(inst.messages)  # messages[new name - 1] = old name
    rng.shuffle(messages)
    image = (0,) + tuple(messages.index(m) + 1 for m in inst.messages)
    side_info = _renamed(inst.side_info, image)
    return EicpInstance(inst.q, inst.num_users, inst.num_messages,
                        side_info=tuple(side_info[u] for u in users),
                        demands=tuple(image[inst.demands[u]] for u in users))


def _corpus():
    """Seeded gen_random and random_single_unicast draws, q = 2 at n = 6-8 and q = 3 at n = 6.

    At q = 3 and n = 7-8 several single-unicast draws take seconds in stage
    two, too slow for tier-1.
    """
    return [draw
            for q, sizes in ((2, (6, 7, 8)), (3, (6,)))
            for n in sizes for density in (0.3, 0.5, 0.7) for seed in (0, 1)
            for draw in (random_single_unicast(n, q, density, seed),
                         gen_random(n, n, q, density, seed))]


def _answer(inst):
    r = minrank_bnb(inst)
    return r.kappa, r.stats["lower_bound"], r.stats["row_rank_bound"]


@pytest.fixture(scope="module")
def solved():
    """Each corpus draw with its (kappa, lower_bound, row_rank_bound)."""
    corpus = _corpus()
    assert len(corpus) == 48
    return [(inst, _answer(inst)) for inst in corpus]


def test_relabeling_keeps_kappa_and_both_bounds(solved):
    rng = random.Random(7)
    for inst, answer in solved:
        for _ in range(2):
            assert _answer(relabel(inst, rng)) == answer


def test_a_copied_user_keeps_kappa(solved):
    rng = random.Random(5)
    for inst, (kappa, _, _) in solved:
        u = rng.randrange(inst.num_users)
        doubled = EicpInstance(inst.q, inst.num_users + 1, inst.num_messages,
                               side_info=inst.side_info + (inst.side_info[u],),
                               demands=inst.demands + (inst.demands[u],))
        assert minrank_bnb(doubled).kappa == kappa


def test_an_undemanded_message_keeps_kappa_and_both_bounds(solved):
    rng = random.Random(13)
    for inst, answer in solved:
        extra = inst.num_messages + 1
        holders = set(rng.sample(list(inst.users), rng.randrange(1, inst.num_users)))
        grown = EicpInstance(inst.q, inst.num_users, extra,
                             side_info=tuple(k + (extra,) if u in holders else k
                                             for u, k in zip(inst.users, inst.side_info)),
                             demands=inst.demands)
        r = minrank_bnb(grown)
        assert r.stats["messages_projected"] == extra - len(set(inst.demands))
        assert (r.kappa, r.stats["lower_bound"], r.stats["row_rank_bound"]) == answer


def test_growing_side_information_never_raises_kappa(solved):
    # One seeded user gains one message that it neither holds nor demands
    # and that at least one other user still lacks, so the instance stays
    # valid; on 3 draws the seeded user has no such message. The grown
    # random_single_unicast(6, 3, .5, 0) takes about 2 s of stage two.
    rng = random.Random(17)
    grown_count = 0
    for inst, (kappa, _, _) in solved:
        u = rng.choice(inst.users)
        lacking = [m for m in inst.messages
                   if m not in inst.knows(u) and m != inst.demand(u)
                   and sum(m in inst.knows(v) for v in inst.users) < inst.num_users - 1]
        if not lacking:
            continue
        side = list(inst.side_info)
        side[u - 1] = tuple(sorted(side[u - 1] + (rng.choice(lacking),)))
        grown = EicpInstance(inst.q, inst.num_users, inst.num_messages,
                             side_info=tuple(side), demands=inst.demands)
        assert minrank_bnb(grown).kappa <= kappa
        grown_count += 1
    assert grown_count == 45


def test_no_cover_is_shorter_than_kappa(solved):
    # The q = 2 single-unicast draws are the even entries of the first 36.
    draws = itertools.product((6, 7, 8), (0.3, 0.5, 0.7), (0, 1))
    for (n, density, seed), (inst, (kappa, _, _)) in zip(draws, solved[:36:2], strict=True):
        assert inst == random_single_unicast(n, 2, density, seed)
        for cover in (tree_cover, biclique_cover):
            for exact in (False, True):
                assert kappa <= cover(inst, exact=exact).counts["length"], (
                    n, density, seed, cover.__name__, exact)


def test_kappa_is_monotone_in_the_users_to_serve(solved):
    # Each draw is solved for all its users and for two nested random
    # subsets of them: kappa(I, S) <= kappa(I, T) whenever S is inside T.
    rng = random.Random(11)
    chains = 0
    for inst, (kappa, _, _) in solved:
        users = list(inst.users)
        middle = sorted(rng.sample(users, len(users) * 2 // 3))
        small = sorted(rng.sample(middle, len(middle) // 2))
        kappas = [minrank_bnb(inst, users=s).kappa for s in (small, middle)] + [kappa]
        assert kappas == sorted(kappas), kappas
        chains += kappas[0] < kappas[-1]
    assert chains >= 40
