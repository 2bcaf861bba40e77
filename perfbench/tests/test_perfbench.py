"""Tests of the benchmark itself: seeded inputs, span arithmetic, checks.

Run with ``python3 -m pytest perfbench/tests -q``.
"""

from __future__ import annotations

import dataclasses

import numpy as np
import pytest

from checks import ExactOracle, wal_mismatches
from common import make_users, schedule_sha
from spans import Span, SpanLog, self_times
from wl_mixed import make_schedule


def test_schedule_is_deterministic_per_seed():
    first = make_schedule(7, 5.0, reservoir_size=700)
    again = make_schedule(7, 5.0, reservoir_size=700)
    other = make_schedule(8, 5.0, reservoir_size=700)
    assert first == again
    as_json = [dataclasses.astuple(op) for op in first]
    assert schedule_sha(as_json) == schedule_sha(
        [dataclasses.astuple(op) for op in again])
    assert schedule_sha(as_json) != schedule_sha(
        [dataclasses.astuple(op) for op in other])
    assert {op.kind for op in first} == {"read", "ingest"}
    ingests = [op.arg for op in first if op.kind == "ingest"]
    assert len(ingests) == len(set(ingests)), "ingested papers must be distinct"
    assert all(0.0 <= op.due < 5.0 for op in first)
    assert [op.due for op in first] == sorted(op.due for op in first)


def test_users_are_deterministic_per_seed():
    ids = [f"p{i}" for i in range(50)]
    assert make_users(3, ids, 20) == make_users(3, ids, 20)
    assert make_users(3, ids, 20) != make_users(4, ids, 20)
    for user in make_users(3, ids, 20):
        assert 3 <= len(user) <= 8 and len(set(user)) == len(user)


def test_schedule_refuses_more_ingests_than_reservoir():
    with pytest.raises(ValueError, match="reservoir"):
        make_schedule(1, 60.0, reservoir_size=50)


def test_self_time_subtracts_the_union_of_children():
    spans = [
        Span(1, "root", 0.0, 10.0, None, 1),
        Span(2, "a", 1.0, 4.0, 1, 1),
        Span(3, "b", 3.0, 6.0, 1, 1),     # overlaps a: 1..6 covered once
        Span(4, "a.child", 2.0, 3.0, 2, 1),
        Span(5, "late", 9.0, 12.0, 1, 1),  # clipped to the root's end
    ]
    own = self_times(spans)
    assert own[1] == pytest.approx(10.0 - 5.0 - 1.0)
    assert own[2] == pytest.approx(3.0 - 1.0)
    assert own[3] == pytest.approx(3.0)
    assert own[4] == pytest.approx(1.0)
    assert own[5] == pytest.approx(3.0)


class _Target:
    def method(self, x):
        return x + 1

    @classmethod
    def build(cls, x):
        return cls().method(x)

    @staticmethod
    def helper(x):
        return 2 * x


def test_wrappers_nest_record_and_restore():
    originals = {name: _Target.__dict__[name]
                 for name in ("method", "build", "helper")}
    log = SpanLog()
    log.wrap(_Target, "method", "t.method")
    log.wrap(_Target, "build", "t.build",
             describe=lambda args, kwargs, result: {"result": result})
    log.wrap(_Target, "helper", "t.helper")
    assert _Target.build(1) == 2
    assert _Target.helper(3) == 6
    log.restore()
    assert {name: _Target.__dict__[name] for name in originals} == originals
    build, = log.named("t.build")
    method, = log.named("t.method")
    helper, = log.named("t.helper")
    assert method.parent == build.id and method.request == build.request
    assert helper.parent is None and helper.request == helper.id
    assert build.attrs == {"result": 2}
    _Target().method(1)
    assert len(log.spans) == 3, "restored methods record nothing"


def _oracle(k=3):
    rng = np.random.default_rng(0)
    matrix = rng.normal(size=(40, 6))
    interests = {"u": rng.normal(size=(2, 6))}
    return ExactOracle(lambda ids: interests[ids[0]], matrix,
                       [f"p{i}" for i in range(40)], mix=0.5, k=k)


def test_exact_oracle_accepts_its_answer_and_rejects_a_perturbed_one():
    oracle = _oracle()
    answer = oracle.expected(["u"])
    assert oracle.agrees(["u"], answer)
    assert oracle.recall(["u"], answer) == 1.0
    swapped = [answer[1], answer[0], *answer[2:]]
    assert not oracle.agrees(["u"], swapped)
    outsider = next(p for p in oracle.pool_ids if p not in answer)
    replaced = [*answer[:-1], outsider]
    assert not oracle.agrees(["u"], replaced)
    assert oracle.recall(["u"], replaced) == pytest.approx(2 / 3)


def test_wal_check_counts_missing_reordered_and_extra_ingests(tmp_path):
    from repro.data.schema import Paper
    from repro.serve import WriteAheadLog
    papers = [Paper(id=f"x{i}", title="t", abstract="a.", year=2020,
                    field="computer_science") for i in range(3)]
    path = tmp_path / "wal.jsonl"
    with WriteAheadLog(path, fsync=False) as wal:
        for version, paper in enumerate(papers[:2]):
            wal.append(paper, version)
    assert wal_mismatches(path, papers[:2]) == 0
    assert wal_mismatches(path, papers[:1]) == 1
    assert wal_mismatches(path, papers) == 1
    assert wal_mismatches(path, [papers[1], papers[0]]) == 2
