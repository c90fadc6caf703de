"""The shared delivery on the complete topology must leave every trace as it is.

On the complete topology `World._exchange` builds each receiver's inbox
from one sorted list of the sub-phase's messages, and finds the two
leading senders for the early-sync winner once per sub-phase (see the
engine module docstring).  Each run
here is compared with a reference run that filters every inbox per
receiver into a plain list, as multi-hop topologies do, records edge
contacts by scanning each inbox against the pairs already recorded,
without `NaiveProto._unmet`, and runs every handler of every radio-on tick it
visits, quiet ones included.  The run under test also checks each shared
inbox's early-sync winner against a scan of its messages.
"""

from types import MethodType

from hypothesis import example, given, settings, strategies as st

from radiosync.adversary import build_topology
from radiosync.core import SimConfig
from radiosync.engine import World
from radiosync.protocols import INBOX_ORDER, Inbox, Message, sync_winner

ALGORITHMS = ["synchronize", "dynamic-synch", "naive", "pairwise"]


def scan_winner(j, pid, inbox):
    """The first message with the largest (j, sender), if it beats (j, pid)."""
    best = None
    for msg in inbox:
        if msg.j > j or (msg.j == j and msg.sender > pid):
            best, j, pid = msg, msg.j, msg.sender
    return best


def scan_edge_contacts(proc, t, inbox):
    """Record each inbox sender's edge at its first message, unless recorded."""
    contacts = proc.trace.edge_contacts
    tau, me = proc.tau(t), proc.id
    for msg in inbox:
        other = msg.sender
        key = (me, other) if me < other else (other, me)
        if key not in contacts:
            contacts[key] = (t + proc.phi, msg.tau - tau)


class FilterWorld(World):
    """The reference: a World that delivers per receiver, into plain lists,
    records edge contacts by scanning them and skips no quiet tick.  It
    checks that every sender's messages in a sub-phase carry one
    (tau, j, q)."""

    def __init__(self, cfg):
        super().__init__(cfg)
        self._quiet = lambda procs, t: False
        for proc in self.procs.values():
            proc.edge_contacts = MethodType(scan_edge_contacts, proc)

    def _exchange(self, t, on_sorted, outs):
        for out in outs:
            assert len({(msg.tau, msg.j, msg.q) for msg in out}) <= 1, (t, out)
        sent = [msg for out in outs if out for msg in out] if len(on_sorted) > 1 else ()
        if not sent:
            return {}
        adj = self.adj
        sent.sort(key=INBOX_ORDER)
        return {v: [msg for msg in sent if msg.sender in adj[v]] for v in on_sorted}


class CheckedWorld(World):
    """The engine as it is, checking on every shared inbox that the winner
    `sync_winner` takes from `lead` is the one the scan finds."""

    def _exchange(self, t, on_sorted, outs):
        boxes = super()._exchange(t, on_sorted, outs)
        for v, box in boxes.items():
            assert type(box) is Inbox
            if box:  # at the receiver's progress, and at one every sender beats
                for j in (self.procs[v].j(t), min(msg.j for msg in box) - 1):
                    assert sync_winner(j, v, box) is scan_winner(j, v, list(box)), (t, v, j)
        return boxes


@st.composite
def complete_configs(draw):
    n = draw(st.integers(1, 24))
    m = draw(st.integers(1, 8))
    return SimConfig(n=n, m=m, wake_times=draw(st.lists(st.integers(0, n), min_size=m,
                                                        max_size=m)),
                     algorithm=draw(st.sampled_from(ALGORITHMS)),
                     k_override=draw(st.none() | st.integers(1, 6)),
                     max_ticks=draw(st.none() | st.integers(0, 8 * n)))


@settings(max_examples=200, deadline=None)
@given(complete_configs())
# queue responses: several per sender, some addressed to the sender itself
@example(SimConfig(n=8, m=5, wake_times=[0, 0, 1, 1, 3], algorithm="dynamic-synch"))
# report exchanges among six processors, then five
@example(SimConfig(n=12, m=6, wake_times=[0, 2, 2, 5, 9, 12], algorithm="synchronize",
                   k_override=2))
# runners-up that tie on j, in the inbox of the best sender
@example(SimConfig(n=12, m=8, wake_times=[6, 0, 8, 12, 6, 5, 6, 9], algorithm="synchronize"))
# edge contacts between clocks that never agree (pairwise does not adopt)
@example(SimConfig(n=10, m=4, wake_times=[0, 3, 7, 10], algorithm="pairwise"))
# a dense run, cut short
@example(SimConfig(n=9, m=7, wake_times=[0, 1, 4, 4, 6, 9, 2], algorithm="naive",
                   max_ticks=20))
def test_shared_delivery_changes_no_trace(cfg):
    assert CheckedWorld(cfg).run().digest() == FilterWorld(cfg).run().digest()


def _outs(on_sorted):
    return [[Message("sync", pid, 10 * pid, pid)] for pid in on_sorted]


def test_only_the_complete_topology_shares_a_delivery():
    on = [1, 2, 4, 5]
    complete = World(SimConfig(n=8, m=6, algorithm="naive"))
    boxes = complete._exchange(3, on, _outs(on))
    assert all(type(box) is Inbox for box in boxes.values())
    assert [msg.sender for msg in boxes[2]] == [1, 4, 5]
    assert boxes[2].lead == (boxes[1][2], boxes[1][1])
    # one sender map per sub-phase: each sender, the receiver included, at
    # the first message of its sorted block; 2 sends nothing
    outs = [[Message("sync", 1, 10, 1, (2,)), Message("sync", 1, 10, 1, (1,))], [],
            [Message("sync", 4, 40, 4)], [Message("init", 5, 50, 5), Message("sync", 5, 50, 5)]]
    boxes = complete._exchange(3, on, outs)
    firsts = boxes[1].firsts
    assert all(box.firsts is firsts for box in boxes.values())
    assert list(firsts) == [1, 4, 5]
    assert firsts[1] is outs[0][1] and firsts[4] is outs[2][0] and firsts[5] is outs[3][0]
    # two and three radios on share too
    for r in (2, 3):
        boxes = complete._exchange(3, on[:r], _outs(on[:r]))
        assert all(type(box) is Inbox for box in boxes.values())
        assert [msg.sender for msg in boxes[1]] == on[1:r]
    cfg = SimConfig(n=8, m=6, algorithm="naive", topology=build_topology("two-clique", 6))
    boxes = World(cfg)._exchange(3, on, _outs(on))
    assert all(type(box) is list for box in boxes.values())
    assert [msg.sender for msg in boxes[2]] == [1]  # 2 hears only its own clique
