"""Tests for the fuzzy relational algebra, loaders, the partitioner's page
sampler, and the equality-indicator merge-join option."""

import random

import pytest

from repro.data import Catalog, FuzzyRelation, FuzzyTuple, Schema, Attribute, AttributeType
from repro.data import algebra
from repro.data.io import LoadError, dump_json, load_csv, load_json, parse_value
from repro.fuzzy import (
    CrispLabel,
    CrispNumber,
    DiscreteDistribution,
    Op,
    TrapezoidalNumber,
    paper_vocabulary,
)
from repro.join import JoinPredicate, MergeJoin, join_degree
from repro.parallel.partitioner import sample_tuples
from repro.storage import HeapFile, OperationStats, SimulatedDisk
from repro.workload.generator import WorkloadSpec, build_workload

N = CrispNumber
T = TrapezoidalNumber
SCHEMA = Schema(["A", "B"])


def rel(rows):
    return FuzzyRelation.from_rows(SCHEMA, rows)


# ----------------------------------------------------------------------
# Algebra
# ----------------------------------------------------------------------

class TestAlgebra:
    def test_select_compare(self):
        r = rel([(1, 10), (2, 20, 0.5)])
        out = algebra.select_compare(r, "B", Op.GT, N(15))
        assert len(out) == 1
        assert out.degree_of([N(2), N(20)]) == 0.5

    def test_project(self):
        r = rel([(1, 10, 0.4), (2, 10, 0.9)])
        out = algebra.project(r, ["B"])
        assert out.degree_of([N(10)]) == 0.9

    def test_cross_degrees_min(self):
        r = rel([(1, 10, 0.8)])
        s = rel([(2, 20, 0.3)])
        out = algebra.cross(r, s)
        assert len(out) == 1
        assert out.tuples()[0].degree == 0.3

    def test_join(self):
        r = rel([(1, 10)])
        s = rel([(2, 10), (3, 99)])
        out = algebra.join(r, "B", Op.EQ, s, "B")
        assert len(out) == 1

    def test_union_max(self):
        r = rel([(1, 10, 0.4)])
        s = rel([(1, 10, 0.7)])
        out = algebra.union(r, s)
        assert out.degree_of([N(1), N(10)]) == 0.7

    def test_intersect_min(self):
        r = rel([(1, 10, 0.4)])
        s = rel([(1, 10, 0.7), (2, 20, 1.0)])
        out = algebra.intersect(r, s)
        assert len(out) == 1
        assert out.tuples()[0].degree == 0.4

    def test_difference(self):
        r = rel([(1, 10, 0.9), (2, 20, 0.9)])
        s = rel([(1, 10, 0.7)])
        out = algebra.difference(r, s)
        assert out.degree_of([N(1), N(10)]) == pytest.approx(min(0.9, 0.3))
        assert out.degree_of([N(2), N(20)]) == 0.9

    def test_rename(self):
        out = algebra.rename(rel([(1, 2)]), {"A": "X"})
        assert out.schema.names() == ["X", "B"]

    def test_alpha_cut(self):
        r = rel([(1, 10, 0.4), (2, 20, 0.8)])
        out = algebra.alpha_cut(r, 0.5)
        assert len(out) == 1
        assert out.tuples()[0].degree == 1.0

    def test_alpha_cut_bounds(self):
        with pytest.raises(ValueError):
            algebra.alpha_cut(rel([]), 0.0)

    def test_incompatible_union(self):
        with pytest.raises(ValueError):
            algebra.union(rel([]), FuzzyRelation(Schema(["A"])))

    def test_composability(self):
        """Selection o projection o join composes into one fuzzy relation —
        the property the possibility-only measure buys (Section 2)."""
        r = rel([(1, 10, 0.9), (2, 20, 0.8)])
        s = rel([(5, 10, 0.7), (6, 20, 0.6)])
        composed = algebra.project(
            algebra.select_compare(
                algebra.join(r, "B", Op.EQ, s, "B"), "A", Op.LE, N(1)
            ),
            ["A"],
        )
        assert isinstance(composed, FuzzyRelation)
        assert composed.degree_of([N(1)]) == pytest.approx(0.7)


# ----------------------------------------------------------------------
# Loaders
# ----------------------------------------------------------------------

class TestParseValue:
    def test_number(self):
        assert parse_value("42.5") == N(42.5)

    def test_trapezoid(self):
        assert parse_value("[1, 2, 3, 4]") == T(1, 2, 3, 4)

    def test_triangle(self):
        assert parse_value("[1, 2, 4]") == T(1, 2, 2, 4)

    def test_interval(self):
        assert parse_value("[1, 4]") == T.rectangular(1, 4)

    def test_discrete_numeric(self):
        d = parse_value('{"5.0": 1.0, "7.5": 0.4}')
        assert d.is_numeric
        assert d.membership(7.5) == 0.4

    def test_discrete_symbolic(self):
        d = parse_value('{"y1": 1.0, "y2": 0.8}')
        assert not d.is_numeric

    def test_linguistic_with_domain(self):
        v = parse_value("medium young", paper_vocabulary(), "AGE")
        assert isinstance(v, TrapezoidalNumber)

    def test_unknown_term_is_label(self):
        assert parse_value("Ann", paper_vocabulary(), "NAME") == CrispLabel("Ann")

    def test_bad_trapezoid_arity(self):
        with pytest.raises(LoadError):
            parse_value("[1, 2, 3, 4, 5]")

    def test_malformed_json(self):
        with pytest.raises(LoadError):
            parse_value("[1, 2")

    def test_empty(self):
        with pytest.raises(LoadError):
            parse_value("  ")


class TestCSV:
    SCHEMA = Schema(
        [
            Attribute("NAME", AttributeType.LABEL, domain="NAME"),
            Attribute("AGE", AttributeType.NUMERIC, domain="AGE"),
        ]
    )

    def test_load(self):
        csv_text = "NAME,AGE,D\nAnn,medium young,1.0\nBob,41,0.5\n"
        out = load_csv(csv_text, self.SCHEMA, paper_vocabulary())
        assert len(out) == 2
        ann = [t for t in out if t[0] == CrispLabel("Ann")][0]
        assert isinstance(ann[1], TrapezoidalNumber)

    def test_degree_defaults_to_one(self):
        out = load_csv("NAME,AGE\nAnn,30\n", self.SCHEMA)
        assert out.tuples()[0].degree == 1.0

    def test_unknown_column_rejected(self):
        with pytest.raises(LoadError):
            load_csv("NAME,AGE,WRONG\nAnn,30,x\n", self.SCHEMA)

    def test_missing_header(self):
        with pytest.raises(LoadError):
            load_csv("", self.SCHEMA)


class TestJSON:
    def test_roundtrip(self):
        schema = Schema(["A", "B"])
        original = FuzzyRelation(schema)
        original.add(FuzzyTuple([N(1), T(0, 1, 2, 3)], 0.7))
        original.add(
            FuzzyTuple([N(2), DiscreteDistribution({5.0: 1.0, 6.0: 0.5})], 1.0)
        )
        back = load_json(dump_json(original), schema)
        assert back.same_as(original)

    def test_label_roundtrip(self):
        schema = Schema([("NAME", AttributeType.LABEL)])
        original = FuzzyRelation(schema)
        original.add(FuzzyTuple([CrispLabel("Ann")], 0.9))
        back = load_json(dump_json(original), schema)
        assert back.same_as(original)

    def test_not_a_list(self):
        with pytest.raises(LoadError):
            load_json('{"a": 1}', Schema(["A"]))

    def test_missing_attribute(self):
        with pytest.raises(LoadError):
            load_json('[{"A": 1}]', Schema(["A", "B"]))


# ----------------------------------------------------------------------
# Page sampling (the partitioner's boundary sample)
# ----------------------------------------------------------------------

class TestSamplingStats:
    def _workload(self, c):
        spec = WorkloadSpec(n_outer=400, n_inner=400, join_fanout=c, tuple_size=128, seed=13)
        return build_workload(spec, page_size=1024)

    def test_sample_size(self):
        workload = self._workload(4)
        rng = random.Random(1)
        sample = sample_tuples(workload.outer, 50, rng)
        assert len(sample) == 50

    def test_sample_charges_reads(self):
        workload = self._workload(4)
        stats = OperationStats()
        sample_tuples(workload.outer, 10, random.Random(2), stats)
        assert stats.total.page_reads >= 1

    def test_empty_relation(self):
        disk = SimulatedDisk(page_size=1024)
        empty = HeapFile("E", Schema(["ID", "X"]), disk, fixed_tuple_size=64)
        stats = OperationStats()
        assert sample_tuples(empty, 10, random.Random(2), stats) == []
        assert stats.total.page_reads == 0


# ----------------------------------------------------------------------
# Equality-indicator merge-join
# ----------------------------------------------------------------------

class TestIndicatorMergeJoin:
    def _wide_pair(self):
        """Uniform wide intervals: plenty of dangling tuples in Rng(r)."""
        rng = random.Random(3)
        disk = SimulatedDisk(page_size=1024)
        schema = Schema(["ID", "X"])

        def tuples(base):
            out = []
            for i in range(80):
                c = rng.uniform(0, 300)
                w = rng.uniform(10, 60)
                out.append(FuzzyTuple([N(base + i), T(c - w, c, c, c + w)], 1.0))
            return out

        r = HeapFile("R", schema, disk, fixed_tuple_size=64).load(tuples(0))
        s = HeapFile("S", schema, disk, fixed_tuple_size=64).load(tuples(1000))
        pred = join_degree([JoinPredicate(schema, "X", Op.EQ, schema, "X")])
        return disk, r, s, pred

    def test_same_results(self):
        disk, r, s, pred = self._wide_pair()
        plain = sorted(
            (a[0].value, b[0].value, round(d, 9))
            for a, b, d in MergeJoin(disk, 64, OperationStats()).pairs(r, "X", s, "X", pred)
        )
        fast = sorted(
            (a[0].value, b[0].value, round(d, 9))
            for a, b, d in MergeJoin(disk, 64, OperationStats(), indicator=True).pairs(
                r, "X", s, "X", pred
            )
        )
        assert plain == fast

    def test_fewer_fuzzy_evaluations(self):
        disk, r, s, pred = self._wide_pair()
        stats_plain = OperationStats()
        list(MergeJoin(disk, 64, stats_plain).pairs(r, "X", s, "X", pred))
        stats_fast = OperationStats()
        list(
            MergeJoin(disk, 64, stats_fast, indicator=True).pairs(r, "X", s, "X", pred)
        )
        assert (
            stats_fast.total.fuzzy_evaluations < stats_plain.total.fuzzy_evaluations
        )

    def test_fold_semantics_preserved(self):
        """The anti-join min fold is invariant under indicator skipping."""
        from repro.join.predicates import antijoin_degree

        disk, r, s, _ = self._wide_pair()
        schema = r.schema
        pair = antijoin_degree([JoinPredicate(schema, "X", Op.EQ, schema, "X")])

        def run(indicator):
            join = MergeJoin(disk, 64, OperationStats(), indicator=indicator)
            return {
                t[0].value: round(worst, 9)
                for t, worst in join.fold(
                    r, "X", s, "X", pair,
                    init=lambda x: x.degree,
                    step=lambda w, _s, d: min(w, d),
                )
            }

        assert run(False) == run(True)
