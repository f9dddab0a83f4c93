"""Problem instances: construction, validity, classification, JSON I/O, generators.

An instance has N users and M messages over F_q. User i holds the messages in
side_info[i-1] and demands the single message demands[i-1]. All user and
message indices are 1-based, in memory and on disk. A multi-demand problem
(RawEicp) is normalized by splitting each user into one single-demand user per
wanted message.

Construction checks structure only (index ranges, shapes); the semantic
validity rules live in validate() so that broken instances can still be
loaded, inspected, and reported on.
"""

from __future__ import annotations

import itertools
import json
import random
import warnings
from collections import Counter
from dataclasses import dataclass
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


class MessageCountWarning(UserWarning):
    """More messages than users: legal, but often a modelling mistake."""


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


@dataclass(frozen=True)
class RawEicp:
    """Multi-demand form: user i wants every message in wants[i-1]."""

    q: FieldOrder
    num_messages: int
    wants: tuple[tuple[int, ...], ...]
    side_info: tuple[tuple[int, ...], ...]

    def __post_init__(self):
        object.__setattr__(self, "q", FieldOrder(self.q))
        if self.num_messages < 1:
            raise InstanceFormatError("an instance needs at least one message")
        if len(self.wants) != len(self.side_info):
            raise InstanceFormatError("wants and side_info describe different user counts")
        wants = []
        side = []
        for i, (w, k) in enumerate(zip(self.wants, self.side_info)):
            w = _check_message_set(f"user {i + 1} wants", w, self.num_messages)
            k = _check_message_set(f"user {i + 1} side info", k, self.num_messages)
            overlap = set(w) & set(k)
            if overlap:
                raise InstanceFormatError(
                    f"user {i + 1} wants messages it already holds: {sorted(overlap)}"
                )
            wants.append(w)
            side.append(k)
        object.__setattr__(self, "wants", tuple(wants))
        object.__setattr__(self, "side_info", tuple(side))

    @property
    def num_users(self) -> int:
        return len(self.wants)


def split_multi_demand(raw: RawEicp) -> EicpInstance:
    """Normalize a multi-demand problem to single demands.

    User order is preserved; a user's demands are emitted in ascending message
    index, each with a copy of that user's side information.
    """
    side = []
    demands = []
    for i, (w, k) in enumerate(zip(raw.wants, raw.side_info)):
        if not w:
            raise InvalidInstanceError(f"user {i + 1} demands nothing")
        for m in w:
            side.append(k)
            demands.append(m)
    return EicpInstance(raw.q, len(demands), raw.num_messages, tuple(side), tuple(demands))


def validate(inst: EicpInstance) -> list[str]:
    """Semantic validity check; returns one message per violation (empty iff valid).

    Emits a non-fatal MessageCountWarning when there are more messages than users.
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
    if inst.num_messages > inst.num_users:
        warnings.warn(
            f"{inst.num_messages} messages for {inst.num_users} users",
            MessageCountWarning,
            stacklevel=2,
        )
    return violations


def require_valid(inst: EicpInstance) -> None:
    with warnings.catch_warnings():
        warnings.simplefilter("ignore", MessageCountWarning)
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


def parse_instance(text: str, check: bool = True) -> EicpInstance:
    """Parse the JSON instance format; multi-demand input is split on load.

    With check=True (the default) a semantically invalid instance raises
    InvalidInstanceError listing every violation.
    """
    try:
        obj = json.loads(text)
    except (json.JSONDecodeError, RecursionError) as e:
        raise InstanceFormatError(f"not valid JSON: {e}") from e
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
        raw = RawEicp(FieldOrder(q), m, tuple(tuple(w) for w in wants),
                      tuple(tuple(k) for k in side))
        inst = split_multi_demand(raw)
    else:
        demands = obj["demands"]
        if not isinstance(demands, list) or len(demands) != n:
            raise InstanceFormatError(f"'demands' must be a list of {n} integers")
        inst = EicpInstance(FieldOrder(q), n, m, tuple(tuple(k) for k in side),
                            tuple(demands))
    if check:
        require_valid(inst)
    return inst


def serialize_instance(inst: EicpInstance) -> str:
    """Inverse of parse_instance for single-demand instances (round-trips exactly)."""
    obj = {
        "q": int(inst.q),
        "num_users": inst.num_users,
        "num_messages": inst.num_messages,
        "side_info": [list(k) for k in inst.side_info],
        "demands": list(inst.demands),
    }
    return json.dumps(obj)


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


def _draw_demands(rng: random.Random, side: list[set[int]], num_messages: int) -> list[int]:
    full = set(range(1, num_messages + 1))
    demands = []
    for k in side:
        pool = sorted(full - k)
        if not pool:
            raise GenerationError("a user holds every message after repair")
        demands.append(rng.choice(pool))
    return demands


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
    _repair_family(rng, side, num_messages)
    demands = _draw_demands(rng, side, num_messages)
    inst = EicpInstance(FieldOrder(q), num_users, num_messages,
                        tuple(tuple(sorted(k)) for k in side), tuple(demands))
    require_valid(inst)
    return inst


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
    _repair_family(rng, side, num_messages)
    demands = _draw_demands(rng, side, num_messages)
    inst = EicpInstance(FieldOrder(q), num_users, num_messages,
                        tuple(tuple(sorted(k)) for k in side), tuple(demands))
    require_valid(inst)
    return inst


def enumerate_demands(side_info, num_messages: int,
                      limit: int = DEMAND_ENUM_LIMIT) -> Iterator[tuple[int, ...]]:
    """All demand vectors with d_i outside user i's side info, lexicographic order.

    Refuses up front (naming the product) when the space exceeds `limit`.
    """
    pools = [
        sorted(set(range(1, num_messages + 1)) - set(k))
        for k in side_info
    ]
    count = 1
    for p in pools:
        count *= len(p)
    if count > limit:
        raise GuardExceededError(
            f"demand enumeration would visit {count} vectors (limit {limit})"
        )
    return iter(itertools.product(*pools))
