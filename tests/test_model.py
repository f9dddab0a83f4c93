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
    MessageCountWarning,
    RawEicp,
    classify,
    enumerate_demands,
    gen_random,
    gen_vanet,
    parse_instance,
    require_valid,
    serialize_instance,
    split_multi_demand,
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


def test_raw_rejects_overlapping_want_and_side():
    with pytest.raises(InstanceFormatError):
        RawEicp(FieldOrder(2), 3, wants=((1,),), side_info=((1, 2),))


def test_split_multi_demand_example():
    raw = RawEicp(FieldOrder(2), 4,
                  wants=((2, 4), (1,), (3,)),
                  side_info=((1,), (2, 4), (1, 2)))
    inst = split_multi_demand(raw)
    assert inst.num_users == 4
    assert inst.side_info[0] == inst.side_info[1] == (1,)
    assert inst.demands[:2] == (2, 4)


def test_split_preserves_know_demand_pairs():
    rng = random.Random(5)
    for _ in range(50):
        m = rng.randint(2, 5)
        users = []
        for _ in range(rng.randint(1, 4)):
            msgs = list(range(1, m + 1))
            rng.shuffle(msgs)
            cut = rng.randint(1, m - 1) if m > 1 else 1
            wants = tuple(sorted(msgs[:cut][:rng.randint(1, max(1, cut))]))
            side = tuple(sorted(msgs[cut:]))
            users.append((wants, side))
        raw = RawEicp(FieldOrder(2), m,
                      wants=tuple(w for w, _ in users),
                      side_info=tuple(s for _, s in users))
        inst = split_multi_demand(raw)
        expected = sorted(
            (side, want) for want_set, side in users for want in want_set
        )
        got = sorted(zip(inst.side_info, inst.demands))
        assert got == expected


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


@pytest.mark.filterwarnings("ignore::eicp.model.MessageCountWarning")
def test_validate_flags_unheld_message():
    inst = EicpInstance(FieldOrder(2), 2, 3,
                        side_info=((1,), (2,)),
                        demands=(2, 1))
    msgs = validate(inst)
    assert any("message 3" in v and "no user" in v for v in msgs)


@pytest.mark.filterwarnings("ignore::eicp.model.MessageCountWarning")
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


def test_more_messages_than_users_warns():
    inst = EicpInstance(FieldOrder(2), 2, 3,
                        side_info=((1, 3), (2,)),
                        demands=(2, 1))
    with pytest.warns(MessageCountWarning):
        validate(inst)


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


def test_enumerate_demands_guard():
    side = tuple(() for _ in range(8))
    with pytest.raises(GuardExceededError, match="6561"):
        list(enumerate_demands(side, 3, limit=1000))


def test_gen_random_deterministic_and_valid():
    a = gen_random(4, 4, 2, 0.5, 7)
    b = gen_random(4, 4, 2, 0.5, 7)
    assert a == b
    assert validate(a) == []


def test_gen_random_respects_hold_all_repair():
    inst = gen_random(3, 3, 2, 0.9, 1)
    assert all(len(k) <= 2 for k in inst.side_info)


@pytest.mark.filterwarnings("ignore::eicp.model.MessageCountWarning")
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
