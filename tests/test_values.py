"""The immutable value types a worker handles: construction, checks,
equality, hashing, and refusal of assignment."""

import copy
import pickle

import pytest

from egroup.collectives import SplitKey
from egroup.groups import (
    HOST_LABEL_WIDTH,
    Group,
    InterGroup,
    MemberDescriptor,
    RetirementToken,
    Side,
)
from egroup.node import Node
from egroup.scaling import ScaleInOutcome
from egroup.spawner import BootstrapTicket, SpawnSpec
from egroup.wire import Envelope


def member(i, host="hostA"):
    return MemberDescriptor(host_label=host,
                            listen_address=f"127.0.0.1:{9000 + i}",
                            incarnation_id=f"{host}.{i}")


ROSTER = (member(0), member(1))
CHILDREN = (member(2), member(3))
GROUP = Group(epoch=2, roster=ROSTER, my_rank=1)

# (type, keyword arguments, the same value with one field changed)
VALUES = [
    (Envelope, dict(epoch=1, tag=17, src_rank=0, dst_rank=1, payload=b"x"),
     dict(payload=b"y")),
    (MemberDescriptor, dict(host_label="h", listen_address="127.0.0.1:1",
                            incarnation_id="h.1"),
     dict(listen_address="127.0.0.1:2")),
    (Group, dict(epoch=2, roster=ROSTER, my_rank=1), dict(my_rank=0)),
    (RetirementToken, dict(epoch=3), dict(epoch=4)),
    (SplitKey, dict(color=1, key=5), dict(key=6)),
    (SpawnSpec, dict(program="w", args=("-v",), count=2,
                     host_labels=("a", "b")),
     dict(args=("-q",))),
    (BootstrapTicket, dict(parent_address="127.0.0.1:1", parent_epoch=0,
                           child_index=1, host_label="h", child_count=2),
     dict(child_index=0)),
    (ScaleInOutcome, dict(new_group=RetirementToken(epoch=1),
                          can_terminate_host=True),
     dict(can_terminate_host=False)),
]
IDS = [cls.__name__ for cls, _, _ in VALUES]


@pytest.mark.parametrize("cls, kwargs, change", VALUES, ids=IDS)
def test_keyword_construction_keeps_fields(cls, kwargs, change):
    value = cls(**kwargs)
    for name, field in kwargs.items():
        assert getattr(value, name) == field


@pytest.mark.parametrize("cls, kwargs, change", VALUES, ids=IDS)
def test_equality_and_hash(cls, kwargs, change):
    a, b = cls(**kwargs), cls(**kwargs)
    assert a == b and hash(a) == hash(b)
    other = cls(**{**kwargs, **change})
    assert a != other
    assert a != tuple(kwargs.values())


@pytest.mark.parametrize("cls, kwargs, change", VALUES, ids=IDS)
def test_assignment_raises(cls, kwargs, change):
    value = cls(**kwargs)
    for name in kwargs:
        with pytest.raises(AttributeError):
            setattr(value, name, kwargs[name])
        with pytest.raises(AttributeError):
            delattr(value, name)
    with pytest.raises(AttributeError):
        value.extra = 1


@pytest.mark.parametrize("cls, kwargs, change", VALUES, ids=IDS)
def test_copy_and_pickle_round_trip(cls, kwargs, change):
    value = cls(**kwargs)
    assert copy.copy(value) == value
    assert pickle.loads(pickle.dumps(value)) == value


def test_defaults():
    assert Envelope(epoch=0, tag=0, src_rank=0, dst_rank=0).payload == b""
    assert Group(epoch=0, roster=ROSTER, my_rank=0).node is None
    spec = SpawnSpec(program="w")
    assert (spec.args, spec.count, spec.host_labels) == ((), 1, None)
    inter = InterGroup(local_group=GROUP, remote_roster=CHILDREN,
                       side=Side.PARENT)
    assert inter.consumed is False


def test_spawn_spec_stores_tuples():
    spec = SpawnSpec(program="w", args=["-v"], count=1, host_labels=["a"])
    assert spec.args == ("-v",) and spec.host_labels == ("a",)
    assert spec == SpawnSpec(program="w", args=("-v",), host_labels=("a",))


@pytest.mark.parametrize("cls, kwargs", [
    (Envelope, dict(epoch=-1, tag=0, src_rank=0, dst_rank=0)),
    (Envelope, dict(epoch=0, tag=-1, src_rank=0, dst_rank=0)),
    (MemberDescriptor, dict(host_label="", listen_address="x:1",
                            incarnation_id="a")),
    (MemberDescriptor, dict(host_label="h" * (HOST_LABEL_WIDTH + 1),
                            listen_address="x:1", incarnation_id="a")),
    # The bound counts UTF-8 bytes: 33 two-byte characters exceed it.
    (MemberDescriptor, dict(host_label="\u00e9" * (HOST_LABEL_WIDTH // 2 + 1),
                            listen_address="x:1", incarnation_id="a")),
    (MemberDescriptor, dict(host_label="h", listen_address="x:1",
                            incarnation_id="")),
    (Group, dict(epoch=-1, roster=ROSTER, my_rank=0)),
    (Group, dict(epoch=0, roster=ROSTER, my_rank=2)),
    (Group, dict(epoch=0, roster=ROSTER, my_rank=-1)),
    (Group, dict(epoch=0, roster=(member(0), member(0)), my_rank=0)),
    (InterGroup, dict(local_group=GROUP, remote_roster=ROSTER[1:],
                      side=Side.PARENT)),
    (SplitKey, dict(color=-1, key=0)),
    (SpawnSpec, dict(program="w", count=0)),
    (SpawnSpec, dict(program="w", count=2, host_labels=("a",))),
    (BootstrapTicket, dict(parent_address="a:1", parent_epoch=0,
                           child_index=2, host_label="h", child_count=2)),
    (BootstrapTicket, dict(parent_address="a:1", parent_epoch=0,
                           child_index=-1, host_label="h", child_count=2)),
    (BootstrapTicket, dict(parent_address="a:1", parent_epoch=-1,
                           child_index=0, host_label="h", child_count=1)),
], ids=lambda v: v.__name__ if isinstance(v, type) else "")
def test_checks_raise_value_error(cls, kwargs):
    with pytest.raises(ValueError):
        cls(**kwargs)


@pytest.mark.parametrize("kwargs", [
    dict(color=2 ** 63, key=0),
    dict(color=0, key=2 ** 63),
    dict(color=0, key=-2 ** 63 - 1),
])
def test_split_key_fits_its_block(kwargs):
    with pytest.raises(ValueError):
        SplitKey(**kwargs)


def test_group_equality_ignores_node():
    with Node(host_label="hostA") as node:
        roster = (node.descriptor(), member(1))
        bound = node.make_group(0, roster, 0)
        unbound = Group(epoch=0, roster=roster, my_rank=0)
        assert bound.node is node and unbound.node is None
        assert bound == unbound and hash(bound) == hash(unbound)
        assert "node" not in repr(bound)


def test_intergroup_consumed_is_the_only_assignable_field():
    inter = InterGroup(local_group=GROUP, remote_roster=CHILDREN,
                       side=Side.PARENT)
    same = InterGroup(local_group=GROUP, remote_roster=CHILDREN,
                      side=Side.PARENT)
    inter.consumed = True
    assert inter.consumed and inter == same
    assert inter != InterGroup(local_group=GROUP, remote_roster=CHILDREN,
                               side=Side.CHILD)
    for name in ("local_group", "remote_roster", "side"):
        with pytest.raises(AttributeError):
            setattr(inter, name, getattr(inter, name))
    with pytest.raises(TypeError):
        hash(inter)
