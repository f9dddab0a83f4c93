"""Scalar linear codes for an instance and the machinery to verify them.

A code is an ordered list of transmissions; transmission t is the linear
combination sum_m coeffs[m-1] * x_m announced by one user, so its
coefficient support must sit inside that user's side information. User i can
recover its demand iff the demand's unit vector lies in the span of the
transmitted columns together with the unit vectors of everything i already
holds. Coefficient positions are 0-based internally; position m-1 carries
message m.
"""

from __future__ import annotations

import json
from dataclasses import dataclass

from .errors import (
    ConsistencyError,
    InstanceFormatError,
    InvalidCodeError,
    InvalidInstanceError,
    NotDecodableError,
)
from .gf import EchelonBasis, GfVector, basis_insert, in_span, reduce
from .model import EicpInstance, load_json


def unit_vector(q: int, num_messages: int, message: int) -> GfVector:
    if not 1 <= message <= num_messages:
        raise ValueError(f"message {message} out of range 1..{num_messages}")
    return GfVector(q, tuple(1 if m == message else 0 for m in range(1, num_messages + 1)))


def message_support(v: GfVector) -> frozenset[int]:
    """1-based message indices with nonzero coefficient."""
    return frozenset(i + 1 for i, c in enumerate(v.coords) if c)


@dataclass(frozen=True)
class Transmission:
    """One broadcast symbol: `user` announces the combination `coeffs` of messages."""

    user: int
    coeffs: GfVector

    def __post_init__(self):
        if self.user < 1:
            raise InvalidCodeError(f"transmitter index {self.user} is not a user")
        if self.coeffs.is_zero():
            raise InvalidCodeError("a transmission must combine at least one message")


@dataclass(frozen=True)
class EmbeddedIndexCode:
    """A code tied to the instance it was built for."""

    instance: EicpInstance
    transmissions: tuple[Transmission, ...]

    def __post_init__(self):
        inst = self.instance
        for idx, t in enumerate(self.transmissions):
            if t.user > inst.num_users:
                raise InvalidCodeError(
                    f"transmission {idx + 1} names user {t.user}; instance has {inst.num_users}"
                )
            if t.coeffs.q != inst.q:
                raise InvalidCodeError(f"transmission {idx + 1} uses a different field")
            if len(t.coeffs) != inst.num_messages:
                raise InvalidCodeError(
                    f"transmission {idx + 1} has {len(t.coeffs)} coefficients; "
                    f"instance has {inst.num_messages} messages"
                )

    @property
    def length(self) -> int:
        return len(self.transmissions)


@dataclass(frozen=True)
class UserDecode:
    user: int
    decodable: bool           # from other users' transmissions plus own side info
    decodable_using_own: bool  # same, with the user's own transmissions included


@dataclass(frozen=True)
class DecodeReport:
    overall: bool
    length: int
    per_user: tuple[UserDecode, ...]
    support_violations: tuple[str, ...]


def support_violations(code: EmbeddedIndexCode) -> tuple[str, ...]:
    inst = code.instance
    out = []
    for idx, t in enumerate(code.transmissions):
        extra = message_support(t.coeffs) - inst.knows(t.user)
        if extra:
            out.append(
                f"transmission {idx + 1} by user {t.user} uses messages "
                f"{sorted(extra)} outside its side information"
            )
    return tuple(out)


def side_info_basis(inst: EicpInstance, user: int) -> EchelonBasis:
    """Basis of the unit vectors of the messages `user` holds, in ascending order.

    The rows e_k, k ascending, are already echelon: e_k has its leading 1 on
    pivot k - 1 and is zero on every earlier pivot. So this is the basis the
    same units inserted one by one with basis_insert would give.
    """
    held = sorted(inst.knows(user))
    rows = tuple(tuple(int(m == k) for m in range(1, inst.num_messages + 1)) for k in held)
    return EchelonBasis(inst.q, inst.num_messages, rows, tuple(k - 1 for k in held))


def decodable_from(inst: EicpInstance, columns, user: int) -> bool:
    """Demand of `user` lies in span(columns) + span(side-info units)."""
    basis = side_info_basis(inst, user)
    for col in columns:
        basis, _ = basis_insert(basis, col)
    return in_span(basis, unit_vector(inst.q, inst.num_messages, inst.demand(user)))


def can_decode(code: EmbeddedIndexCode, inst: EicpInstance, user: int) -> bool:
    """Demand of `user` is recoverable from all transmitted columns plus side info.

    Supports are not checked here; verify_code reports those separately.
    """
    _require_same_instance(code, inst)
    return decodable_from(inst, [t.coeffs for t in code.transmissions], user)


def _require_same_instance(code: EmbeddedIndexCode, inst: EicpInstance) -> None:
    if code.instance != inst:
        raise InvalidCodeError("code was built for a different instance")


def verify_code(code: EmbeddedIndexCode, inst: EicpInstance) -> DecodeReport:
    """Full check: supports, and per-user decodability with and without own columns.

    For a support-clean code the two decodability answers always agree (a
    user's own columns lie inside its side-information span); a disagreement
    raises ConsistencyError, and the others-only answer is the operative one.
    A user that sends nothing has one column list for both, decoded once.
    """
    _require_same_instance(code, inst)
    bad = support_violations(code)
    columns = [t.coeffs for t in code.transmissions]
    senders = {t.user for t in code.transmissions}
    per_user = []
    for i in inst.users:
        using_own = others = decodable_from(inst, columns, i)
        if i in senders:
            others = decodable_from(inst, [t.coeffs for t in code.transmissions if t.user != i], i)
            if not bad and others != using_own:
                raise ConsistencyError(f"own-column dependence for user {i}")
        per_user.append(UserDecode(i, others, using_own))
    overall = not bad and all(u.decodable for u in per_user)
    return DecodeReport(overall, code.length, tuple(per_user), bad)


def checked_code(inst: EicpInstance, users, transmissions, route: str) -> EmbeddedIndexCode:
    """The code of `transmissions`, re-checked before the program uses a code it built.

    The embedded model's one validity rule: each transmission sits inside its
    sender's side information, and each user in `users` decodes its demand.
    A code breaking it raises ConsistencyError naming `route`, the builder.
    """
    code = EmbeddedIndexCode(inst, tuple(transmissions))
    columns = [t.coeffs for t in code.transmissions]
    if support_violations(code) or not all(decodable_from(inst, columns, i) for i in users):
        raise ConsistencyError(f"{route} accepted a code the checker rejects")
    return code


def uncoded_scheme(inst: EicpInstance) -> EmbeddedIndexCode:
    """One plain transmission per distinct demanded message; length = uniq(demands)."""
    transmissions = []
    for m in sorted(set(inst.demands)):
        holder = next((j for j in inst.users if m in inst.knows(j)), None)
        if holder is None:
            raise InvalidInstanceError(f"message {m} is held by no user")
        transmissions.append(Transmission(holder, unit_vector(inst.q, inst.num_messages, m)))
    return EmbeddedIndexCode(inst, tuple(transmissions))


def decode_coeffs(code: EmbeddedIndexCode, inst: EicpInstance, user: int
                  ) -> tuple[GfVector, GfVector]:
    """Explicit decoding recipe for `user`: (combo, correction) with

        sum_t combo[t] * T_t  -  sum_k correction[k] * x_k  =  x_demand,

    correction indexed by the user's side-info messages in ascending order.
    The generators are the transmissions, then the side-info units. One that
    lies in the span of those before it is dropped and gets coefficient 0, so
    plain deliveries decode with a unit combo and zero correction. The kept
    generators are independent, so the recipe over them is unique.
    """
    _require_same_instance(code, inst)
    q = inst.q
    m = inst.num_messages
    side = sorted(inst.knows(user))
    gens = [t.coeffs.coords for t in code.transmissions]
    gens += [unit_vector(q, m, k).coords for k in side]
    n_gens = len(gens)

    # Generator j is tracked as (gen_j, e_j): every row and residue then carries,
    # after the m message coordinates, the combination of generators behind it.
    # e_j makes each insert grow; the new pivot, the residue's first nonzero
    # coordinate, is a message coordinate iff gen_j is independent of the
    # kept generators, and only then is the grown basis kept.
    tracked = EchelonBasis.empty(q, m + n_gens)
    for j, gen in enumerate(gens):
        row = GfVector(q, gen + tuple(int(i == j) for i in range(n_gens)))
        grown, _ = basis_insert(tracked, row)
        if grown.pivots[-1] < m:
            tracked = grown

    target = unit_vector(q, m, inst.demand(user)).coords + (0,) * n_gens
    residue = reduce(tracked, GfVector(q, target)).coords
    if any(residue[:m]):
        raise NotDecodableError(f"user {user} cannot decode its demand from this code")
    # The residue is target - sum(c * (gen, e)): its tail is the negated recipe.
    combo = GfVector(q, tuple(-c for c in residue[m:m + code.length]))
    correction = GfVector(q, residue[m + code.length:])

    # Symbolic check of the identity above.
    acc = [0] * m
    for c, t in zip(combo.coords, code.transmissions):
        acc = [(a + c * b) % q for a, b in zip(acc, t.coeffs.coords)]
    for c, k in zip(correction.coords, side):
        acc[k - 1] = (acc[k - 1] - c) % q
    expected = unit_vector(q, m, inst.demand(user)).coords
    if tuple(acc) != expected:
        raise ConsistencyError("decode identity failed")
    return combo, correction


# ---------- JSON I/O ----------

def parse_code(text: str, inst: EicpInstance) -> EmbeddedIndexCode:
    """Parse {"transmissions": [{"user": u, "coeffs": [...]}, ...]} against an instance.

    Each coefficient must be an integer in 0..q - 1; any other value is an
    InstanceFormatError naming the transmission and the value, never reduced
    mod q.
    """
    obj = load_json(text)
    if not isinstance(obj, dict) or set(obj) != {"transmissions"}:
        raise InstanceFormatError("code file must be an object with the single key 'transmissions'")
    entries = obj["transmissions"]
    if not isinstance(entries, list):
        raise InstanceFormatError("'transmissions' must be a list")
    transmissions = []
    for idx, e in enumerate(entries):
        if not isinstance(e, dict) or set(e) != {"user", "coeffs"}:
            raise InstanceFormatError(
                f"transmission {idx + 1} must be an object with keys 'user' and 'coeffs'"
            )
        user = e["user"]
        coeffs = e["coeffs"]
        if not isinstance(user, int) or isinstance(user, bool):
            raise InstanceFormatError(f"transmission {idx + 1}: 'user' must be an integer")
        if not isinstance(coeffs, list) or not all(
            isinstance(c, int) and not isinstance(c, bool) for c in coeffs
        ):
            raise InstanceFormatError(f"transmission {idx + 1}: 'coeffs' must be a list of integers")
        bad = next((c for c in coeffs if not 0 <= c < inst.q), None)
        if bad is not None:
            raise InstanceFormatError(
                f"transmission {idx + 1}: coefficient {bad} out of range 0..{inst.q - 1}"
            )
        transmissions.append(Transmission(user, GfVector(inst.q, tuple(coeffs))))
    return EmbeddedIndexCode(inst, tuple(transmissions))


def transmissions_json(code: EmbeddedIndexCode) -> list[dict]:
    """The transmissions in the JSON form parse_code reads: [{"user", "coeffs"}, ...]."""
    return [{"user": t.user, "coeffs": list(t.coeffs.coords)} for t in code.transmissions]


def serialize_code(code: EmbeddedIndexCode) -> str:
    return json.dumps({"transmissions": transmissions_json(code)})
