"""Codes: assembly, decodability, verification, explicit decoding recipes."""

import hashlib
import json
import random

import pytest

from eicp.codes import (
    EmbeddedIndexCode,
    Transmission,
    assemble_matrix,
    can_decode,
    decodable_from,
    decode_coeffs,
    message_support,
    parse_code,
    serialize_code,
    support_violations,
    uncoded_scheme,
    unit_vector,
    verify_code,
)
from eicp.errors import GenerationError, InstanceFormatError, InvalidCodeError, NotDecodableError
from eicp.experiments import regular_tree_instance
from eicp.gf import FieldOrder, GfVector
from eicp.minrank import minrank_bnb
from eicp.model import EicpInstance, gen_random, parse_instance


def _code(inst, *entries):
    return EmbeddedIndexCode(inst, tuple(
        Transmission(u, GfVector(inst.q, tuple(c))) for u, c in entries
    ))


def test_transmission_rejects_zero_vector():
    with pytest.raises(InvalidCodeError):
        Transmission(1, GfVector(2, (0, 0, 0)))
    with pytest.raises(InvalidCodeError):
        Transmission(0, GfVector(2, (1, 0, 0)))


def test_code_rejects_shape_mismatches(mixed4):
    with pytest.raises(InvalidCodeError, match="names user 9"):
        _code(mixed4, (9, (1, 0, 0, 0)))
    with pytest.raises(InvalidCodeError, match="coefficients"):
        _code(mixed4, (1, (1, 0, 0)))
    with pytest.raises(InvalidCodeError, match="field"):
        EmbeddedIndexCode(mixed4, (Transmission(1, GfVector(3, (1, 0, 0, 0))),))


def test_assemble_matrix_columns(mixed4, mixed4_code_text):
    code = parse_code(mixed4_code_text, mixed4)
    mat = assemble_matrix(code)
    assert mat.num_rows == 4 and mat.num_cols == 3
    assert mat.column(0) == (1, 1, 0, 0)
    assert mat.column(1) == (0, 0, 0, 1)
    assert mat.column(2) == (0, 0, 1, 0)


def test_assemble_matrix_empty_code(mixed4):
    mat = assemble_matrix(EmbeddedIndexCode(mixed4, ()))
    assert mat.num_rows == 4 and mat.num_cols == 0


def test_assemble_matrix_rejects_support_violation(mixed4):
    code = _code(mixed4, (1, (0, 1, 0, 0)))  # user 1 only holds message 1
    with pytest.raises(InvalidCodeError, match="outside its side information"):
        assemble_matrix(code)


def test_can_decode_shipped_code(mixed4, mixed4_code_text):
    code = parse_code(mixed4_code_text, mixed4)
    assert all(can_decode(code, mixed4, i) for i in mixed4.users)
    empty = EmbeddedIndexCode(mixed4, ())
    assert not any(can_decode(empty, mixed4, i) for i in mixed4.users)


def test_can_decode_plain_delivery(mixed4):
    code = _code(mixed4, (3, (0, 1, 0, 0)))  # user 3 announces x_2 plainly
    assert can_decode(code, mixed4, 1)
    assert not can_decode(code, mixed4, 2)


def test_verify_code_shipped(mixed4, mixed4_code_text):
    code = parse_code(mixed4_code_text, mixed4)
    report = verify_code(code, mixed4)
    assert report.overall and report.length == 3
    assert all(u.decodable and u.decodable_using_own for u in report.per_user)
    assert report.support_violations == ()


def test_verify_code_flags_missing_transmission(mixed4, mixed4_code_text):
    full = parse_code(mixed4_code_text, mixed4)
    trimmed = EmbeddedIndexCode(
        mixed4, full.transmissions[:1] + full.transmissions[2:])
    report = verify_code(trimmed, mixed4)
    assert not report.overall
    by_user = {u.user: u.decodable for u in report.per_user}
    assert by_user[2] is False  # user 2 demands message 4, now unserved
    assert by_user[1] is True


def test_verify_code_reports_support_violation(mixed4):
    code = _code(mixed4, (1, (0, 1, 0, 0)))
    report = verify_code(code, mixed4)
    assert not report.overall
    assert len(report.support_violations) == 1
    assert "user 1" in report.support_violations[0]


def test_support_violations_wording(mixed4):
    code = _code(mixed4, (4, (0, 0, 1, 1)))  # user 4 holds only message 4
    (msg,) = support_violations(code)
    assert "transmission 1" in msg and "[3]" in msg


def test_message_support():
    assert message_support(GfVector(2, (1, 0, 1, 0))) == frozenset({1, 3})
    assert message_support(GfVector(3, (0, 0, 0))) == frozenset()


def test_unit_vector():
    assert unit_vector(2, 4, 3).coords == (0, 0, 1, 0)
    assert unit_vector(5, 2, 1).coords == (1, 0)


def test_uncoded_scheme_matches_distinct_demands(mixed4):
    code = uncoded_scheme(mixed4)
    assert code.length == 4
    report = verify_code(code, mixed4)
    assert report.overall


def test_uncoded_scheme_repeated_demands():
    inst = EicpInstance(FieldOrder(2), 3, 3,
                        side_info=((2,), (3,), (1, 2)),
                        demands=(1, 1, 3))
    code = uncoded_scheme(inst)
    assert code.length == 2
    assert verify_code(code, inst).overall


def test_uncoded_scheme_random_batch():
    for seed in range(30):
        inst = gen_random(3 + seed % 3, 3 + seed % 3, 2, 0.5, seed)
        code = uncoded_scheme(inst)
        assert code.length == len(set(inst.demands))
        assert verify_code(code, inst).overall


def test_decode_coeffs_shipped_code(mixed4, mixed4_code_text):
    code = parse_code(mixed4_code_text, mixed4)
    combo, correction = decode_coeffs(code, mixed4, 1)
    assert combo.coords == (1, 0, 0)
    assert correction.coords == (1,)  # subtract the held x_1


def test_decode_coeffs_tree_code():
    inst = regular_tree_instance(4)
    code = _code(inst, (1, (0, 1, 1, 0)), (2, (0, 0, 1, 1)), (3, (1, 0, 0, 1)))
    combo, correction = decode_coeffs(code, inst, 1)
    assert combo.coords == (1, 1, 1)
    assert correction.coords == (1, 0)  # side info sorted: (2, 3)


def test_decode_coeffs_plain_delivery(mixed4):
    code = _code(mixed4, (3, (0, 1, 0, 0)), (2, (1, 1, 0, 0)))
    combo, correction = decode_coeffs(code, mixed4, 1)
    assert combo.coords == (1, 0)
    assert correction.coords == (0,)


def test_decode_coeffs_raises_when_unservable(mixed4):
    empty = EmbeddedIndexCode(mixed4, ())
    with pytest.raises(NotDecodableError):
        decode_coeffs(empty, mixed4, 1)


def test_decode_coeffs_reproduces_demand_numerically(mixed4, mixed4_code_text):
    code = parse_code(mixed4_code_text, mixed4)
    rng = random.Random(9)
    q = mixed4.q
    m = mixed4.num_messages
    for _ in range(100):
        x = [rng.randrange(q) for _ in range(m)]
        symbols = [
            sum(c * xv for c, xv in zip(t.coeffs.coords, x)) % q
            for t in code.transmissions
        ]
        for i in mixed4.users:
            combo, correction = decode_coeffs(code, mixed4, i)
            got = sum(c * s for c, s in zip(combo.coords, symbols)) % q
            for c, k in zip(correction.coords, sorted(mixed4.knows(i))):
                got = (got - c * x[k - 1]) % q
            assert got == x[mixed4.demand(i) - 1]


def _random_decodable_setup(rng, q):
    while True:
        inst = gen_random(rng.randint(3, 5), rng.randint(3, 5), q,
                          0.5, rng.randrange(10**6))
        code = uncoded_scheme(inst)
        if code.length >= 2:
            return inst, code


def test_can_decode_invariant_under_scaling():
    rng = random.Random(31)
    for _ in range(40):
        q = rng.choice((3, 5))
        inst, code = _random_decodable_setup(rng, q)
        scaled = EmbeddedIndexCode(inst, tuple(
            Transmission(t.user, t.coeffs.scale(rng.randrange(1, q)))
            for t in code.transmissions
        ))
        for i in inst.users:
            assert can_decode(code, inst, i) == can_decode(scaled, inst, i)


def test_can_decode_invariant_under_permutation():
    rng = random.Random(32)
    for _ in range(40):
        inst, code = _random_decodable_setup(rng, 2)
        order = list(code.transmissions)
        rng.shuffle(order)
        shuffled = EmbeddedIndexCode(inst, tuple(order))
        for i in inst.users:
            assert can_decode(code, inst, i) == can_decode(shuffled, inst, i)


def test_can_decode_invariant_under_redundant_column():
    rng = random.Random(33)
    for _ in range(40):
        inst, code = _random_decodable_setup(rng, 2)
        combined = code.transmissions[0].coeffs + code.transmissions[1].coeffs
        if combined.is_zero():
            continue
        sender = next(
            (j for j in inst.users
             if message_support(combined) <= inst.knows(j)), None)
        extra = Transmission(sender or code.transmissions[0].user, combined)
        padded = EmbeddedIndexCode(inst, code.transmissions + (extra,))
        for i in inst.users:
            assert can_decode(code, inst, i) == can_decode(padded, inst, i)


def test_decodable_from_ignores_own_units(mixed4):
    # columns already inside the side-info span add nothing
    own = [unit_vector(2, 4, k) for k in sorted(mixed4.knows(2))]
    assert not decodable_from(mixed4, own, 2)
    helpful = own + [unit_vector(2, 4, 4)]
    assert decodable_from(mixed4, helpful, 2)


def test_parse_serialize_round_trip(mixed4, mixed4_code_text):
    code = parse_code(mixed4_code_text, mixed4)
    again = parse_code(serialize_code(code), mixed4)
    assert again == code
    assert json.loads(serialize_code(code)) == json.loads(mixed4_code_text)


def test_parse_code_rejects_bad_shapes(mixed4):
    with pytest.raises(InstanceFormatError, match="JSON"):
        parse_code("{", mixed4)
    with pytest.raises(InstanceFormatError, match="transmissions"):
        parse_code('{"codewords": []}', mixed4)
    with pytest.raises(InstanceFormatError, match="list"):
        parse_code('{"transmissions": 3}', mixed4)
    with pytest.raises(InstanceFormatError, match="keys"):
        parse_code('{"transmissions": [{"user": 1}]}', mixed4)
    with pytest.raises(InstanceFormatError, match="integer"):
        parse_code(
            '{"transmissions": [{"user": true, "coeffs": [1, 0, 0, 0]}]}',
            mixed4)
    with pytest.raises(InstanceFormatError, match="integers"):
        parse_code(
            '{"transmissions": [{"user": 1, "coeffs": [1, 0, "0", 0]}]}',
            mixed4)


def test_serialize_code_of_bnb_codes_pinned(mixed4, seven_user):
    expected = {
        "mixed4": '{"transmissions": [{"user": 2, "coeffs": [1, 1, 0, 0]}, '
                  '{"user": 3, "coeffs": [0, 0, 0, 1]}, '
                  '{"user": 2, "coeffs": [0, 0, 1, 0]}]}',
        "seven_user": '{"transmissions": [{"user": 5, "coeffs": [1, 1, 1, 1, 0, 0, 0]}, '
                      '{"user": 6, "coeffs": [0, 0, 0, 0, 1, 0, 0]}, '
                      '{"user": 5, "coeffs": [0, 0, 0, 0, 0, 1, 1]}]}',
    }
    for name, inst in (("mixed4", mixed4), ("seven_user", seven_user)):
        assert serialize_code(minrank_bnb(inst).code) == expected[name]


def _decode_recipe_corpus():
    """Random codes inside their senders' side info at q = 2, 3, 5, 7; about
    one transmission in five repeats an earlier one, so dependent generators
    occur. Yields the decode_coeffs outcome of every (code, user) pair."""
    rng = random.Random(2201_08680)
    for trial in range(600):
        q = (2, 3, 5, 7)[trial % 4]
        try:
            inst = gen_random(rng.randint(3, 6), rng.randint(3, 6), q,
                              rng.choice((0.3, 0.5, 0.7)), rng.randrange(10**6))
        except GenerationError:
            continue
        senders = [j for j in inst.users if inst.knows(j)]
        entries = []
        for _ in range(rng.randint(0, inst.num_users + 2)):
            if entries and rng.random() < 0.2:
                entries.append(rng.choice(entries))
                continue
            sender = rng.choice(senders)
            held = sorted(inst.knows(sender))
            coeffs = [0] * inst.num_messages
            for k in held:
                coeffs[k - 1] = rng.randrange(q)
            if not any(coeffs):
                coeffs[rng.choice(held) - 1] = rng.randrange(1, q)
            entries.append((sender, coeffs))
        code = _code(inst, *entries)
        for user in inst.users:
            try:
                combo, correction = decode_coeffs(code, inst, user)
            except NotDecodableError as e:
                yield f"{trial} {user} {e}"
            else:
                yield f"{trial} {user} {combo.coords} {correction.coords}"


def test_decode_coeffs_recipes_pinned():
    # The recipe over the kept generators is unique, so any correct
    # elimination reproduces these outcomes; the digest pins every one.
    outcomes = list(_decode_recipe_corpus())
    failures = sum("cannot decode" in line for line in outcomes)
    assert (len(outcomes), failures) == (2699, 1472)
    digest = hashlib.sha256("\n".join(outcomes).encode()).hexdigest()
    assert digest == "c494dc28433fa0146b36e07c75fb703601dab05573103bbeeeb0d550acb65b07"
