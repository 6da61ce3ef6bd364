"""Integer SFQ tags checked against an independent Fraction oracle.

Exact-mode queues store every tag as an ``int`` numerator over one
per-queue denominator ``D`` that grows to ``lcm(D, w)`` when a charge
meets a weight ``w`` that does not divide it.  The oracle below is
written directly from the paper's three rules with
:class:`fractions.Fraction` arithmetic and shares no code with
:class:`~repro.core.sfq.SfqQueue`, so a misunderstanding of the rules in
the queue cannot pass both sides.  Every scenario runs against the pure
functions and the compiled engine's entry points in the same process.
"""

from fractions import Fraction

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.core import engine as engine_mod
from repro.core import sfq
from repro.core.sfq import SfqQueue, build_ancestor_chain
from repro.core.tags import TagMath

ENGINES = ["pure", "compiled"]
_OPS = {}


def ops_for(name):
    """The hot-path entry points of one engine, by name."""
    if name not in _OPS:
        if name == "pure":
            _OPS[name] = {
                "pick": sfq.queue_pick_pure,
                "charge": sfq.queue_charge_pure,
                "run": sfq.queue_set_runnable_pure,
                "block": sfq.queue_set_blocked_pure,
                "pick_leaf": sfq.pick_leaf_pure,
                "charge_chain": sfq.charge_chain_pure,
                "wake_chain": sfq.wake_chain_pure,
                "sleep_chain": sfq.sleep_chain_pure,
            }
        else:
            module = engine_mod.OPS or engine_mod.load_compiled_module()
            _OPS[name] = {
                "pick": module.queue_pick,
                "charge": module.queue_charge,
                "run": module.queue_set_runnable,
                "block": module.queue_set_blocked,
                "pick_leaf": module.pick_leaf,
                "charge_chain": module.charge_chain,
                "wake_chain": module.wake_chain,
                "sleep_chain": module.sleep_chain,
            }
    return _OPS[name]


class RefQueue:
    """The paper's SFQ rules over Fraction tags (the oracle)."""

    def __init__(self):
        self.v = Fraction(0)
        self.max_finish = Fraction(0)
        self.start = {}
        self.finish = {}
        self.runnable = {}
        self.arrival = {}
        self._arrivals = 0

    def add(self, entity):
        self.start[entity] = self.finish[entity] = Fraction(0)
        self.runnable[entity] = False
        self.arrival[entity] = self._arrivals
        self._arrivals += 1

    def remove(self, entity):
        for table in (self.start, self.finish, self.runnable, self.arrival):
            del table[entity]

    def set_runnable(self, entity):
        """Rule 1: a newly eligible entity gets S = max(v, F)."""
        if not self.runnable[entity]:
            self.runnable[entity] = True
            self.start[entity] = max(self.v, self.finish[entity])

    def set_blocked(self, entity):
        """Idle server: v jumps to the largest finish tag assigned."""
        if self.runnable[entity]:
            self.runnable[entity] = False
            if not self.has_runnable():
                self.v = max(self.v, self.max_finish)

    def has_runnable(self):
        return any(self.runnable.values())

    def pick(self):
        """Rule 3: serve the smallest start tag, ties by arrival."""
        eligible = [e for e, flag in self.runnable.items() if flag]
        if not eligible:
            return None
        entity = min(eligible,
                     key=lambda e: (self.start[e], self.arrival[e]))
        self.v = max(self.v, self.start[entity])
        return entity

    def charge(self, entity, length, weight):
        """Rule 2: F = S + l / w; a still-hungry entity restamps S = F."""
        finish = self.start[entity] + Fraction(length, weight)
        self.finish[entity] = finish
        self.max_finish = max(self.max_finish, finish)
        if self.runnable[entity]:
            self.start[entity] = finish


class Entity:
    def __init__(self, index, weight):
        self.index = index
        self.weight = weight

    def __repr__(self):
        return "E%d(w=%d)" % (self.index, self.weight)


def assert_matches(queue, ref):
    """Every public tag of ``queue`` equals the oracle's, as a Fraction."""
    assert queue.virtual_time == ref.v
    assert type(queue.virtual_time) is Fraction
    for entity in ref.start:
        start = queue.start_tag(entity)
        finish = queue.finish_tag(entity)
        assert type(start) is Fraction and type(finish) is Fraction
        assert (start, finish) == (ref.start[entity], ref.finish[entity]), \
            entity
        assert queue.is_runnable(entity) == ref.runnable[entity]


weights = st.integers(1, 12)
lengths = st.integers(0, 5_000)
flat_steps = st.lists(
    st.one_of(
        st.tuples(st.sampled_from(["add", "remove", "run", "block"]),
                  st.integers(0, 3)),
        st.tuples(st.just("serve"), lengths),
        st.tuples(st.just("charge"), st.integers(0, 3), lengths),
        st.tuples(st.just("weight"), st.integers(0, 3), weights),
    ),
    min_size=1, max_size=120)


def run_flat_script(ops, initial_weights, script):
    """Drive a queue and the oracle through ``script``; compare each step."""
    queue = SfqQueue()
    ref = RefQueue()
    entities = [Entity(i, w) for i, w in enumerate(initial_weights)]
    for step in script:
        kind = step[0]
        if kind == "serve":
            picked = ops["pick"](queue)
            assert picked is ref.pick()
            if picked is not None:
                ops["charge"](queue, picked, step[1])
                ref.charge(picked, step[1], picked.weight)
            assert_matches(queue, ref)
            continue
        entity = entities[step[1]]
        registered = entity in ref.start
        if kind == "add" and not registered:
            queue.add(entity)
            ref.add(entity)
        elif kind == "remove" and registered and not ref.runnable[entity]:
            queue.remove(entity)
            ref.remove(entity)
        elif kind == "run" and registered:
            ops["run"](queue, entity)
            ref.set_runnable(entity)
        elif kind == "block" and registered:
            ops["block"](queue, entity)
            ref.set_blocked(entity)
        elif kind == "charge" and registered:
            ops["charge"](queue, entity, step[2])
            ref.charge(entity, step[2], entity.weight)
        elif kind == "weight":
            entity.weight = step[2]
        assert_matches(queue, ref)
    return queue


@pytest.mark.parametrize("engine", ENGINES)
@settings(max_examples=80, deadline=None)
@given(initial_weights=st.lists(weights, min_size=4, max_size=4),
       script=flat_steps)
def test_flat_queue_matches_oracle(engine, initial_weights, script):
    run_flat_script(ops_for(engine), initial_weights, script)


solo_steps = st.lists(
    st.one_of(
        st.tuples(st.sampled_from(["run", "block"]), st.just(0)),
        st.tuples(st.just("serve"), lengths),
        st.tuples(st.just("charge"), st.just(0), lengths),
        st.tuples(st.just("weight"), st.just(0), weights),
    ),
    min_size=1, max_size=60)


@pytest.mark.parametrize("engine", ENGINES)
@settings(max_examples=40, deadline=None)
@given(weight=weights, script=solo_steps)
def test_solo_queue_matches_oracle(engine, weight, script):
    """One registered entity (solo mode: no heap) under every operation."""
    run_flat_script(ops_for(engine), [weight], [("add", 0)] + script)


@pytest.mark.parametrize("engine", ENGINES)
def test_rescale_with_live_and_stale_heap_entries(engine):
    """Growing D mid-run keeps picks and tags on the oracle's course."""
    ops = ops_for(engine)
    script = [("add", i) for i in range(3)] + [("run", i) for i in range(3)]
    script += [("serve", 1_000)] * 6  # repushes leave stale heap entries
    script += [("weight", 1, 7), ("serve", 999), ("weight", 2, 11)]
    script += [("serve", 1_001)] * 6 + [("block", 0), ("weight", 0, 12)]
    script += [("charge", 0, 17), ("run", 0)] + [("serve", 13)] * 6
    queue = run_flat_script(ops, [1, 2, 3], script)
    assert queue._state[sfq._DEN] == 2 * 3 * 7 * 11 * 2  # lcm(1..3, 7, 11, 12)


@pytest.mark.parametrize("engine", ENGINES)
def test_denominator_never_shrinks(engine):
    ops = ops_for(engine)
    queue = SfqQueue()
    entity = Entity(0, 6)
    queue.add(entity)
    ops["run"](queue, entity)
    ops["charge"](queue, entity, 5)
    assert queue._state[sfq._DEN] == 6
    entity.weight = 1
    ops["charge"](queue, entity, 5)
    assert queue._state[sfq._DEN] == 6
    assert queue.finish_tag(entity) == Fraction(5, 6) + 5


@pytest.mark.parametrize("engine", ENGINES)
@pytest.mark.parametrize("weight, error", [
    (0, ValueError), (-3, ValueError), (-0.5, ValueError),
    (2.5, TypeError), (2.0, TypeError), (Fraction(3, 2), TypeError),
])
def test_invalid_weight_raises_and_leaves_tags(engine, weight, error):
    """Bad weights raise before any tag moves.

    Non-positive weights raise ValueError and floats TypeError, as
    ``Fraction(l, w)`` did; tags are integer numerators, so a rational
    weight is now a TypeError too.
    """
    ops = ops_for(engine)
    queue = SfqQueue()
    entity, other = Entity(0, 3), Entity(1, 1)
    for each in (entity, other):
        queue.add(each)
        ops["run"](queue, each)
    ops["charge"](queue, entity, 10)
    before = (queue.start_tag(entity), queue.finish_tag(entity),
              queue.virtual_time, queue._state[sfq._DEN])
    entity.weight = weight
    with pytest.raises(error):
        ops["charge"](queue, entity, 10)
    assert (queue.start_tag(entity), queue.finish_tag(entity),
            queue.virtual_time, queue._state[sfq._DEN]) == before


@pytest.mark.parametrize("engine", ENGINES)
def test_float_queue_unchanged(engine):
    """Float mode keeps raw float tags and its own validation."""
    ops = ops_for(engine)
    queue = SfqQueue(TagMath(exact=False))
    entity = Entity(0, 3)
    queue.add(entity)
    ops["run"](queue, entity)
    ops["charge"](queue, entity, 10)
    assert queue.finish_tag(entity) == 10 / 3
    assert type(queue.finish_tag(entity)) is float
    entity.weight = 0
    with pytest.raises(ValueError):
        ops["charge"](queue, entity, 10)


# --- a depth-3 tree through the chain walks --------------------------------


class Inner:
    def __init__(self, name, weight, parent):
        self.name = name
        self.weight = weight
        self.parent = parent
        self.queue = SfqQueue()
        self.runnable = False
        if parent is not None:
            parent.queue.add(self)

    def __repr__(self):
        return self.name


class Leaf:
    def __init__(self, name, weight, parent):
        self.name = name
        self.weight = weight
        self.parent = parent
        self.awake = False
        parent.queue.add(self)

    def __repr__(self):
        return self.name


def build_tree():
    """root -> {m0 -> {s0 -> {L0, L1}, L2}, m1 -> {L3}} (m1 is solo)."""
    root = Inner("root", 1, None)
    m0 = Inner("m0", 2, root)
    m1 = Inner("m1", 3, root)
    s0 = Inner("s0", 5, m0)
    leaves = [Leaf("L0", 1, s0), Leaf("L1", 4, s0), Leaf("L2", 7, m0),
              Leaf("L3", 9, m1)]
    return root, [root, m0, m1, s0], leaves


tree_steps = st.lists(
    st.one_of(
        st.tuples(st.sampled_from(["wake", "sleep"]), st.integers(0, 3)),
        st.tuples(st.just("dispatch"), lengths),
        st.tuples(st.just("weight"), st.integers(0, 6), weights),
    ),
    min_size=1, max_size=80)


@pytest.mark.parametrize("engine", ENGINES)
@settings(max_examples=60, deadline=None)
@given(script=tree_steps)
def test_tree_chain_walks_match_oracle(engine, script):
    ops = ops_for(engine)
    root, inners, leaves = build_tree()
    movable = inners[1:] + leaves  # every node with a parent
    refs = {node: RefQueue() for node in inners}
    for node in movable:
        refs[node.parent].add(node)
    ref_awake = {node: False for node in inners}
    chains = {leaf: build_ancestor_chain(leaf) for leaf in leaves}
    for step in script:
        kind = step[0]
        if kind == "wake":
            leaf = leaves[step[1]]
            if leaf.awake:
                continue
            leaf.awake = True
            ops["wake_chain"](chains[leaf])
            node = leaf
            while node.parent is not None:
                refs[node.parent].set_runnable(node)
                if ref_awake[node.parent]:
                    break
                ref_awake[node.parent] = True
                node = node.parent
        elif kind == "sleep":
            leaf = leaves[step[1]]
            if not leaf.awake:
                continue
            leaf.awake = False
            ops["sleep_chain"](chains[leaf])
            node = leaf
            while node.parent is not None:
                refs[node.parent].set_blocked(node)
                if refs[node.parent].has_runnable():
                    break
                ref_awake[node.parent] = False
                node = node.parent
        elif kind == "dispatch":
            picked, __ = ops["pick_leaf"](root, Leaf)
            node = root
            while isinstance(node, Inner):
                node = refs[node].pick()
                if node is None:
                    break
            assert picked is node
            if picked is not None:
                ops["charge_chain"](chains[picked], step[1])
                while node.parent is not None:
                    refs[node.parent].charge(node, step[1], node.weight)
                    node = node.parent
        else:
            movable[step[1]].weight = step[2]
        for inner in inners:
            assert inner.runnable == ref_awake[inner]
            assert_matches(inner.queue, refs[inner])
