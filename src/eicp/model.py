"""Problem instances: construction, validity, classification, JSON I/O, generators.

An instance has N users and M messages over F_q. User i holds the messages in
side_info[i-1] and demands the single message demands[i-1]. All user and
message indices are 1-based, in memory and on disk. A file may give each user
a list of wanted messages instead ("wants"); parse_instance splits such a user
into one single-demand user per wanted message.

Construction checks structure only (index ranges, shapes); the semantic
validity rules live in validate() so that broken instances can still be
loaded, inspected, and reported on.
"""

from __future__ import annotations

import itertools
import json
import random
from collections import Counter
from dataclasses import asdict, dataclass
from functools import cached_property
from typing import Iterator

from .errors import (
    GenerationError,
    GuardExceededError,
    InstanceFormatError,
    InvalidInstanceError,
)
from .gf import FieldOrder

DEMAND_ENUM_LIMIT = 10 ** 6


def _check_message_set(label: str, entries, num_messages: int) -> tuple[int, ...]:
    out = set()
    for m in entries:
        if not isinstance(m, int) or isinstance(m, bool):
            raise InstanceFormatError(f"{label}: message index {m!r} is not an integer")
        if not 1 <= m <= num_messages:
            raise InstanceFormatError(
                f"{label}: message index {m} out of range 1..{num_messages}"
            )
        out.add(m)
    return tuple(sorted(out))


@dataclass(frozen=True)
class EicpInstance:
    """A single-demand problem instance. Side-info sets are stored sorted ascending."""

    q: FieldOrder
    num_users: int
    num_messages: int
    side_info: tuple[tuple[int, ...], ...]
    demands: tuple[int, ...]

    def __post_init__(self):
        object.__setattr__(self, "q", FieldOrder(self.q))
        if self.num_users < 1:
            raise InstanceFormatError("an instance needs at least one user")
        if self.num_messages < 1:
            raise InstanceFormatError("an instance needs at least one message")
        if len(self.side_info) != self.num_users:
            raise InstanceFormatError(
                f"side_info has {len(self.side_info)} entries for {self.num_users} users"
            )
        if len(self.demands) != self.num_users:
            raise InstanceFormatError(
                f"demands has {len(self.demands)} entries for {self.num_users} users"
            )
        side = tuple(
            _check_message_set(f"user {i + 1} side info", k, self.num_messages)
            for i, k in enumerate(self.side_info)
        )
        object.__setattr__(self, "side_info", side)
        demands = []
        for i, d in enumerate(self.demands):
            if not isinstance(d, int) or isinstance(d, bool):
                raise InstanceFormatError(f"user {i + 1} demand {d!r} is not an integer")
            if not 1 <= d <= self.num_messages:
                raise InstanceFormatError(
                    f"user {i + 1} demand {d} out of range 1..{self.num_messages}"
                )
            demands.append(d)
        object.__setattr__(self, "demands", tuple(demands))

    @cached_property
    def side_sets(self) -> tuple[frozenset[int], ...]:
        return tuple(frozenset(k) for k in self.side_info)

    @property
    def users(self) -> range:
        return range(1, self.num_users + 1)

    @property
    def messages(self) -> range:
        return range(1, self.num_messages + 1)

    def knows(self, user: int) -> frozenset[int]:
        return self.side_sets[user - 1]

    def demand(self, user: int) -> int:
        return self.demands[user - 1]


@dataclass(frozen=True)
class InstanceClass:
    """Structural classification flags. The two are not mutually exclusive."""

    single_unicast: bool
    single_uniprior: bool


def validate(inst: EicpInstance) -> list[str]:
    """Semantic validity check; returns one message per violation (empty iff valid).

    More messages than users is legal and is not reported.
    """
    violations = []
    holders = Counter(m for k in inst.side_info for m in k)
    # Only held messages are visited, num_messages + 1 closing the last run,
    # and each run of unheld messages is one violation, so neither the cost
    # nor the report grows with num_messages.
    last = 0
    for m in sorted(holders) + [inst.num_messages + 1]:
        if m == last + 2:
            violations.append(f"message {last + 1} is held by no user")
        elif m > last + 2:
            violations.append(f"messages {last + 1}-{m - 1} are held by no user")
        if holders[m] == inst.num_users:
            violations.append(f"message {m} is held by every user")
        last = m
    for i in inst.users:
        if len(inst.knows(i)) == inst.num_messages:
            violations.append(f"user {i} holds every message")
        d = inst.demand(i)
        if d in inst.knows(i):
            violations.append(f"user {i} demands message {d} it already holds")
        elif not holders[d]:
            # Implied by the holder rules above, but reported for the user.
            violations.append(f"no user other than {i} holds its demanded message {d}")
    return violations


def require_valid(inst: EicpInstance) -> None:
    violations = validate(inst)
    if violations:
        raise InvalidInstanceError("; ".join(violations))


def classify(inst: EicpInstance) -> InstanceClass:
    unicast = (
        inst.num_messages == inst.num_users
        and len(set(inst.demands)) == inst.num_users
    )
    uniprior = (
        all(len(k) == 1 for k in inst.side_info)
        and len(set(inst.side_info)) == inst.num_users
    )
    return InstanceClass(single_unicast=unicast, single_uniprior=uniprior)


# ---------- JSON I/O ----------

_COMMON_KEYS = {"q", "num_users", "num_messages", "side_info"}


def _expect_int(obj, key: str) -> int:
    v = obj.get(key)
    if not isinstance(v, int) or isinstance(v, bool):
        raise InstanceFormatError(f"'{key}' must be an integer, got {v!r}")
    return v


def _expect_list_of_lists(obj, key: str, n: int):
    v = obj.get(key)
    if not isinstance(v, list) or not all(isinstance(e, list) for e in v):
        raise InstanceFormatError(f"'{key}' must be a list of lists")
    if len(v) != n:
        raise InstanceFormatError(f"'{key}' has {len(v)} entries for {n} users")
    return v


def load_json(text: str):
    """json.loads, raising InstanceFormatError for any text that does not parse.

    Besides malformed text (JSONDecodeError) and nesting too deep for the
    parser (RecursionError), json rejects an integer literal longer than
    Python's int conversion limit with a plain ValueError.
    """
    try:
        return json.loads(text)
    except (json.JSONDecodeError, RecursionError) as e:
        raise InstanceFormatError(f"not valid JSON: {e}") from e
    except ValueError as e:
        raise InstanceFormatError("not valid JSON: an integer literal has too many digits") from e


def parse_instance(text: str, check: bool = True) -> EicpInstance:
    """Parse the JSON instance format; multi-demand input is split on load.

    A "wants" user becomes one user per wanted message, in ascending order,
    each with a copy of its side information; users keep their order. Every
    user is checked before any is found to want nothing.

    With check=True (the default) a semantically invalid instance raises
    InvalidInstanceError listing every violation.
    """
    obj = load_json(text)
    if not isinstance(obj, dict):
        raise InstanceFormatError("instance file must contain a JSON object")
    keys = set(obj)
    if "wants" in keys and "demands" in keys:
        raise InstanceFormatError("instance has both 'demands' and 'wants'")
    demand_key = "wants" if "wants" in keys else "demands"
    expected = _COMMON_KEYS | {demand_key}
    unknown = keys - expected
    if unknown:
        raise InstanceFormatError(f"unknown keys: {sorted(unknown)}")
    missing = expected - keys
    if missing:
        raise InstanceFormatError(f"missing keys: {sorted(missing)}")

    q = _expect_int(obj, "q")
    n = _expect_int(obj, "num_users")
    m = _expect_int(obj, "num_messages")
    side = _expect_list_of_lists(obj, "side_info", n)
    if demand_key == "wants":
        wants = _expect_list_of_lists(obj, "wants", n)
        # EicpInstance checks q and num_messages again; checking them here
        # first reports a bad one before any user's error.
        q = FieldOrder(q)
        if m < 1:
            raise InstanceFormatError("an instance needs at least one message")
        users = []
        for i, (w, k) in enumerate(zip(wants, side), 1):
            w = _check_message_set(f"user {i} wants", w, m)
            k = _check_message_set(f"user {i} side info", k, m)
            overlap = set(w) & set(k)
            if overlap:
                raise InstanceFormatError(
                    f"user {i} wants messages it already holds: {sorted(overlap)}"
                )
            users.append((w, k))
        for i, (w, _k) in enumerate(users, 1):
            if not w:
                raise InvalidInstanceError(f"user {i} demands nothing")
        side = [k for w, k in users for _d in w]
        demands = [d for w, _k in users for d in w]
        n = len(demands)
    else:
        demands = obj["demands"]
        if not isinstance(demands, list) or len(demands) != n:
            raise InstanceFormatError(f"'demands' must be a list of {n} integers")
    inst = EicpInstance(q, n, m, tuple(tuple(k) for k in side), tuple(demands))
    if check:
        require_valid(inst)
    return inst


def serialize_instance(inst: EicpInstance) -> str:
    """Inverse of parse_instance for single-demand instances (round-trips exactly).

    The file's keys are EicpInstance's fields, in their order.
    """
    return json.dumps(asdict(inst))


# ---------- generators ----------

_REPAIR_ROUNDS = 64


def _repair_family(rng: random.Random, side: list[set[int]], num_messages: int) -> None:
    """Nudge side-info sets until the family-level validity rules hold."""
    n = len(side)
    full = set(range(1, num_messages + 1))
    for _ in range(_REPAIR_ROUNDS):
        dirty = False
        for k in side:
            if k >= full:
                k.discard(rng.choice(sorted(k)))
                dirty = True
        for m in range(1, num_messages + 1):
            holders = [i for i in range(n) if m in side[i]]
            if not holders:
                takers = [i for i in range(n) if len(side[i]) < num_messages - 1]
                if not takers:
                    raise GenerationError(
                        f"cannot place message {m}: every user is saturated"
                    )
                side[rng.choice(takers)].add(m)
                dirty = True
            elif len(holders) == n:
                side[rng.choice(holders)].discard(m)
                dirty = True
        if not dirty:
            return
    raise GenerationError("side-info repair did not converge")


def _draw_instance(rng: random.Random, q: int, side: list[set[int]],
                   num_messages: int) -> EicpInstance:
    """Repair the drawn side information, draw each user's demand, and check the instance."""
    _repair_family(rng, side, num_messages)
    full = set(range(1, num_messages + 1))
    # _repair_family returns only after a pass in which no user held every
    # message, so no user's pool of demands is empty.
    demands = [rng.choice(sorted(full - k)) for k in side]
    inst = EicpInstance(q, len(side), num_messages,
                        tuple(tuple(sorted(k)) for k in side), tuple(demands))
    require_valid(inst)
    return inst


def gen_random(num_users: int, num_messages: int, q: int, density: float,
               seed: int) -> EicpInstance:
    """Random valid instance; identical arguments always produce the identical instance."""
    if num_users < 2 or num_messages < 2:
        raise InstanceFormatError("random generation needs at least 2 users and 2 messages")
    if not 0.0 <= density <= 1.0:
        raise InstanceFormatError(f"density must be in [0, 1], got {density}")
    rng = random.Random(seed)
    side = [
        {m for m in range(1, num_messages + 1) if rng.random() < density}
        for _ in range(num_users)
    ]
    return _draw_instance(rng, q, side, num_messages)


def gen_vanet(num_users: int, num_messages: int, q: int, overlap: float,
              seed: int) -> EicpInstance:
    """Heavy-overlap instance: a fraction `overlap` of messages is held by most users.

    Models a cluster of vehicles that have each cached most of a shared
    broadcast, plus a tail of sparsely held messages.
    """
    if num_users < 2 or num_messages < 2:
        raise InstanceFormatError("generation needs at least 2 users and 2 messages")
    if not 0.5 <= overlap < 1.0:
        raise InstanceFormatError(f"overlap must be in [0.5, 1), got {overlap}")
    rng = random.Random(seed)
    num_shared = max(1, round(overlap * num_messages))
    side: list[set[int]] = [set() for _ in range(num_users)]
    for m in range(1, num_messages + 1):
        anchor = (m - 1) % num_users
        if m <= num_shared:
            # Shared message: everyone but one rotating user holds it.
            for i in range(num_users):
                if i != anchor:
                    side[i].add(m)
        else:
            side[anchor].add(m)
            if rng.random() < overlap:
                other = rng.randrange(num_users - 1)
                side[other if other < anchor else other + 1].add(m)
    return _draw_instance(rng, q, side, num_messages)


def _renamed(side_info, image) -> tuple[tuple[int, ...], ...]:
    """Each user's side information after message m is renamed image[m], as a sorted tuple.

    `image` is indexed by message (image[0] is unused); a demand d becomes
    image[d].

    Why a renaming keeps kappa. A code is a set of transmissions, each a
    combination of messages that some user holds, and user i is served when
    d_i is recoverable from the transmissions and the messages of K_i. So
    kappa reads the users only as the set P of their (K_i, d_i) pairs: the
    K_i of P fix what can be sent, and the pairs fix what must be decoded.
    Reordering users changes no pair, and a repeated user adds a sender and
    a decoding condition that are already there, so demand vectors with the
    same P have the same kappa. A renaming sigma of the messages maps a
    code for P to a code for sigma(P) of the same length, by permuting the
    coordinates of every transmission, and sigma^-1 maps it back; so
    kappa(P) == kappa(sigma(P)).
    """
    return tuple(tuple(sorted(image[m] for m in k)) for k in side_info)


def enumerate_demands(side_info, num_messages: int) -> Iterator[tuple[int, ...]]:
    """All demand vectors with d_i outside user i's side info, lexicographic order.

    Refuses up front (naming the product) when the space exceeds DEMAND_ENUM_LIMIT.
    """
    pools = [
        sorted(set(range(1, num_messages + 1)) - set(k))
        for k in side_info
    ]
    count = 1
    for p in pools:
        count *= len(p)
    if count > DEMAND_ENUM_LIMIT:
        raise GuardExceededError(
            f"demand enumeration would visit {count} vectors (limit {DEMAND_ENUM_LIMIT})"
        )
    return iter(itertools.product(*pools))
