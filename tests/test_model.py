"""Instance model: parsing, validity, splitting, classification, generators."""

import dataclasses
import json
import random

import pytest

from eicp.errors import (
    FieldError,
    GuardExceededError,
    InstanceFormatError,
    InvalidInstanceError,
)
from eicp.gf import FieldOrder
from eicp.graphs import build_side_info_graph, is_connected
from eicp.model import (
    EicpInstance,
    _renamed,
    classify,
    enumerate_demands,
    gen_random,
    gen_vanet,
    parse_instance,
    require_valid,
    serialize_instance,
    validate,
)

from conftest import load_instance


def test_parse_example_fixture(mixed4):
    assert mixed4.num_users == 4
    assert mixed4.num_messages == 4
    assert mixed4.knows(2) == frozenset({1, 2, 3})
    assert mixed4.demands == (2, 4, 1, 3)
    assert validate(mixed4) == []


def test_round_trip(dense4):
    assert parse_instance(serialize_instance(dense4)) == dense4


def test_parse_rejects_nonprime_field():
    text = json.dumps({"q": 4, "num_users": 2, "num_messages": 2,
                       "side_info": [[1], [2]], "demands": [2, 1]})
    with pytest.raises(FieldError, match="prime"):
        parse_instance(text)


def test_parse_rejects_unknown_keys(mixed4):
    obj = json.loads(serialize_instance(mixed4))
    obj["extra"] = 1
    with pytest.raises(InstanceFormatError):
        parse_instance(json.dumps(obj))


def test_parse_rejects_out_of_range_indices():
    text = json.dumps({"q": 2, "num_users": 2, "num_messages": 2,
                       "side_info": [[1], [3]], "demands": [2, 1]})
    with pytest.raises(InstanceFormatError):
        parse_instance(text)


def test_parse_accepts_wants_form():
    text = json.dumps({"q": 2, "num_users": 2, "num_messages": 3,
                       "side_info": [[1], [2, 3]], "wants": [[2, 3], [1]]})
    inst = parse_instance(text)
    assert inst.num_users == 3
    assert inst.demands == (2, 3, 1)
    assert inst.knows(1) == inst.knows(2) == frozenset({1})


def _wants_file(**changes):
    obj = {"q": 2, "num_users": 2, "num_messages": 2, "side_info": [[1], [2]],
           "wants": [[2], [1]]}
    return json.dumps({**obj, **changes})


def test_parse_splits_wants_in_order():
    text = _wants_file(num_users=3, num_messages=4, wants=[[4, 2], [1], [3]],
                       side_info=[[1], [2, 4], [1, 2]])
    inst = parse_instance(text, check=False)
    assert inst.num_users == 4
    assert inst.side_info == ((1,), (1,), (2, 4), (1, 2))
    assert inst.demands == (2, 4, 1, 3)


def test_parse_wants_preserves_know_demand_pairs():
    rng = random.Random(5)
    for _ in range(50):
        m = rng.randint(2, 5)
        users = []
        for _ in range(rng.randint(1, 4)):
            msgs = list(range(1, m + 1))
            rng.shuffle(msgs)
            cut = rng.randint(1, m - 1)
            users.append((msgs[:cut][:rng.randint(1, cut)], msgs[cut:]))
        text = _wants_file(num_users=len(users), num_messages=m,
                           wants=[w for w, _ in users], side_info=[s for _, s in users])
        inst = parse_instance(text, check=False)
        expected = [(tuple(sorted(side)), want) for wants, side in users
                    for want in sorted(wants)]
        assert list(zip(inst.side_info, inst.demands)) == expected


# Each malformed wants file raises the same error with check on and off:
# the type and message of the first failing check, in the order q's type,
# the shape of side_info and wants, q's field, num_messages, then each user
# in turn (wants, side info, overlap), and only then a user wanting nothing.
MALFORMED_WANTS = {
    "wants-nothing": ({"wants": [[2], []]}, InvalidInstanceError, "user 2 demands nothing"),
    "range-before-nothing": ({"wants": [[], [3]]}, InstanceFormatError,
                             "user 2 wants: message index 3 out of range 1..2"),
    "no-messages": ({"num_messages": 0}, InstanceFormatError,
                    "an instance needs at least one message"),
    "no-messages-empty-users": ({"num_messages": 0, "side_info": [[], []], "wants": [[], []]},
                                InstanceFormatError, "an instance needs at least one message"),
    "q-composite": ({"q": 4}, FieldError, "field order must be prime, got 4"),
    "q-before-messages": ({"q": 4, "num_messages": 0}, FieldError,
                          "field order must be prime, got 4"),
    "q-too-large": ({"q": 256}, FieldError, "field order 256 exceeds the supported maximum 251"),
    "wants-flat": ({"wants": [1, 2]}, InstanceFormatError, "'wants' must be a list of lists"),
    "shape-before-q": ({"q": 4, "wants": [1, 2]}, InstanceFormatError,
                       "'wants' must be a list of lists"),
    "wants-short": ({"wants": [[2]]}, InstanceFormatError, "'wants' has 1 entries for 2 users"),
    "wants-range": ({"wants": [[3], [1]]}, InstanceFormatError,
                    "user 1 wants: message index 3 out of range 1..2"),
    "side-range": ({"side_info": [[0], [2]]}, InstanceFormatError,
                   "user 1 side info: message index 0 out of range 1..2"),
    "wants-float": ({"wants": [[1.5], [1]]}, InstanceFormatError,
                    "user 1 wants: message index 1.5 is not an integer"),
    "wants-bool": ({"wants": [[True], [1]]}, InstanceFormatError,
                   "user 1 wants: message index True is not an integer"),
    "wants-string": ({"wants": [["2"], [1]]}, InstanceFormatError,
                     "user 1 wants: message index '2' is not an integer"),
    "overlap": ({"num_users": 1, "num_messages": 3, "wants": [[1]], "side_info": [[1, 2]]},
                InstanceFormatError, "user 1 wants messages it already holds: [1]"),
    "no-users": ({"num_users": 0, "side_info": [], "wants": []}, InstanceFormatError,
                 "an instance needs at least one user"),
}


@pytest.mark.parametrize("check", [True, False])
@pytest.mark.parametrize("case", MALFORMED_WANTS)
def test_parse_rejects_malformed_wants(case, check):
    changes, error, message = MALFORMED_WANTS[case]
    with pytest.raises(error) as caught:
        parse_instance(_wants_file(**changes), check=check)
    assert type(caught.value) is error
    assert str(caught.value) == message


def test_validate_names_each_violation():
    inst = EicpInstance(FieldOrder(2), 3, 3,
                        side_info=((1, 2, 3), (1, 2), (1, 2)),
                        demands=(1, 3, 3))
    msgs = validate(inst)
    assert any("user 1 holds every message" in v for v in msgs)
    assert any("message 1 is held by every user" in v for v in msgs)
    assert any("already holds" in v for v in msgs)
    with pytest.raises(InvalidInstanceError):
        require_valid(inst)


def test_validate_flags_unheld_message():
    inst = EicpInstance(FieldOrder(2), 2, 3,
                        side_info=((1,), (2,)),
                        demands=(2, 1))
    msgs = validate(inst)
    assert any("message 3" in v and "no user" in v for v in msgs)


def test_validate_reports_each_unheld_run_once():
    inst = EicpInstance(FieldOrder(2), 3, 9,
                        side_info=((2, 5), (5,), (5, 9)),
                        demands=(9, 2, 2))
    assert validate(inst) == [
        "message 1 is held by no user",
        "messages 3-4 are held by no user",
        "message 5 is held by every user",
        "messages 6-8 are held by no user",
    ]
    huge = dataclasses.replace(inst, num_messages=10 ** 11)
    assert validate(huge)[-1] == "messages 10-100000000000 are held by no user"


def test_classify_examples(mixed4, dense4):
    assert classify(dense4).single_unicast
    assert classify(mixed4).single_unicast
    assert not classify(mixed4).single_uniprior
    uniprior = EicpInstance(FieldOrder(2), 4, 4,
                            side_info=((1,), (2,), (3,), (4,)),
                            demands=(2, 3, 4, 1))
    cls = classify(uniprior)
    assert cls.single_uniprior and cls.single_unicast


def test_enumerate_demands_count_examples(dense4):
    side = dense4.side_info
    vectors = list(enumerate_demands(side, 4))
    assert len(vectors) == (4 - 2) * (4 - 2) * (4 - 1) * (4 - 2)  # 24
    assert all(d[i] not in side[i] for d in vectors for i in range(4))
    assert len(set(vectors)) == len(vectors)
    first = vectors[0]
    assert first == min(vectors)


def test_enumerate_demands_singleton_example():
    side = ((1,), (2,), (3,))
    vectors = list(enumerate_demands(side, 3))
    assert len(vectors) == 8


def test_enumerate_demands_guard(monkeypatch):
    monkeypatch.setattr("eicp.model.DEMAND_ENUM_LIMIT", 1000)
    side = tuple(() for _ in range(8))
    with pytest.raises(GuardExceededError, match=r"6561 vectors \(limit 1000\)"):
        list(enumerate_demands(side, 3))


def test_gen_random_deterministic_and_valid():
    a = gen_random(4, 4, 2, 0.5, 7)
    b = gen_random(4, 4, 2, 0.5, 7)
    assert a == b
    assert validate(a) == []


def test_gen_random_respects_hold_all_repair():
    inst = gen_random(3, 3, 2, 0.9, 1)
    assert all(len(k) <= 2 for k in inst.side_info)


def test_gen_random_batch_always_valid():
    for seed in range(40):
        inst = gen_random(2 + seed % 4, 2 + (seed // 2) % 4, 2, 0.4, seed)
        assert validate(inst) == []


def test_gen_vanet_contract():
    a = gen_vanet(6, 6, 2, 0.7, 3)
    b = gen_vanet(6, 6, 2, 0.7, 3)
    assert a == b
    assert validate(a) == []
    assert is_connected(build_side_info_graph(a))


def test_gen_vanet_rejects_low_overlap():
    with pytest.raises(InstanceFormatError, match="overlap"):
        gen_vanet(4, 4, 2, 0.2, 1)


def test_all_instance_fixtures_are_valid():
    for name in ("mixed4.json", "dense4.json", "seven_user.json"):
        assert validate(load_instance(name)) == []


def test_renamed_inverts_and_sorts():
    assert _renamed(((1, 3), (2,), ()), (0, 3, 1, 2)) == ((2, 3), (1,), ())
    rng = random.Random(29)
    reordered = 0
    for _ in range(40):
        m = rng.randint(2, 6)
        side_info = tuple(tuple(sorted(rng.sample(range(1, m + 1), rng.randint(0, m))))
                          for _ in range(rng.randint(1, 6)))
        assert _renamed(side_info, tuple(range(m + 1))) == side_info
        image = (0, *rng.sample(range(1, m + 1), m))
        inverse = [0] * (m + 1)
        for old, new in enumerate(image):
            inverse[new] = old
        renamed = _renamed(side_info, image)
        assert all(list(k) == sorted(k) for k in renamed)
        assert _renamed(renamed, inverse) == side_info
        # Renaming in place would leave some of these sets out of order.
        reordered += any([image[x] for x in k] != list(r) for k, r in zip(side_info, renamed))
    assert reordered > 20
