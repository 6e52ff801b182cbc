"""Host-termination decision, checked exhaustively against a plain-language
oracle before any live scale-in relies on it."""

import itertools

from egroup.scaling import host_can_terminate


def flags_for(n, removing):
    """The flags a scale-in allgather would produce: 1 for each removing
    rank, 0 for everyone else."""
    return bytes(int(i in removing) for i in range(n))


# Oracle: a host may be switched off exactly when every process that will
# keep running lives somewhere else.
def naive_can_terminate(hosts, removing, my_host):
    remaining_hosts = [hosts[i] for i in range(len(hosts))
                       if i not in removing]
    return my_host not in remaining_hosts


class TestExhaustiveOracle:
    def test_all_assignments_up_to_six_ranks_three_hosts(self):
        host_names = ["A", "B", "C"]
        checked = 0
        for n in range(1, 7):
            for hosts in itertools.product(host_names, repeat=n):
                for mask in range(2 ** n):
                    removing = {i for i in range(n) if mask & (1 << i)}
                    flags = flags_for(n, removing)
                    for my_host in host_names:
                        assert host_can_terminate(hosts, flags, my_host) == \
                            naive_can_terminate(hosts, removing, my_host), \
                            (hosts, removing, my_host)
                        checked += 1
        assert checked > 10000

    def test_removing_member_frees_its_host_only_if_alone(self):
        # Two ranks share host A; removing just rank 0 leaves rank 1 there.
        assert not host_can_terminate(("A", "A"), flags_for(2, {0}), "A")
        # Removing both empties the host.
        assert host_can_terminate(("A", "A"), flags_for(2, {0, 1}), "A")

    def test_staying_member_pins_its_host(self):
        # A non-removing member's own host label is in the roster with
        # flag 0, so its host always reads as still in use.
        for n in range(1, 7):
            for hosts in itertools.product(("A", "B", "C"), repeat=n):
                for mask in range(2 ** n):
                    removing = {i for i in range(n) if mask & (1 << i)}
                    flags = flags_for(n, removing)
                    for i in range(n):
                        if i not in removing:
                            assert not host_can_terminate(hosts, flags,
                                                          hosts[i])

    def test_all_sentinel_occupancy_frees_everything(self):
        flags = flags_for(3, {0, 1, 2})
        for host in ("A", "B", "C"):
            assert host_can_terminate(("A", "B", "A"), flags, host)

    def test_empty_roster_frees_everything(self):
        assert host_can_terminate((), b"", "anything")

    def test_distinct_labels_are_not_aliased(self):
        # Labels compare as strings: a prefix, or the same label with
        # trailing NULs, is another host.
        stays = flags_for(1, set())
        for staying, leaving in (("node10", "node1"), ("a\x00", "a"),
                                 ("a", "a\x00")):
            assert host_can_terminate((staying,), stays, leaving)
            assert not host_can_terminate((staying,), stays, staying)
