"""Edge-path coverage: error branches and utilities across modules."""

import io

import pytest

from repro.bench.harness import main, run_all, to_markdown
from repro.data import FuzzyTuple, Schema
from repro.fuzzy import CrispNumber, Op
from repro.fuzzy.membership import PiecewiseLinear
from repro.parallel.partitioner import sample_tuples
from repro.sql import LexError, ParseError, parse, tokenize
from repro.storage import (
    HeapFile,
    OperationStats,
    SerializationError,
    SimulatedDisk,
    TupleSerializer,
)

N = CrispNumber


class TestSerializerErrors:
    def test_unknown_tag(self):
        ser = TupleSerializer(Schema(["A"]))
        blob = ser.encode(FuzzyTuple([N(1)], 1.0))
        corrupted = blob[:8] + b"Z" + blob[9:]
        with pytest.raises(SerializationError):
            ser.decode(corrupted)

    def test_long_label_rejected(self):
        from repro.data import AttributeType
        from repro.fuzzy import CrispLabel

        ser = TupleSerializer(Schema([("L", AttributeType.LABEL)]))
        with pytest.raises(SerializationError):
            ser.encode(FuzzyTuple([CrispLabel("x" * 70000)], 1.0))


class TestOpEdges:
    def test_similar_has_no_negation(self):
        with pytest.raises(ValueError):
            Op.SIMILAR.negated()

    def test_similar_flips_to_itself(self):
        assert Op.SIMILAR.flipped() is Op.SIMILAR


class TestLexerPositions:
    def test_error_positions_reported(self):
        with pytest.raises(LexError) as err:
            tokenize("SELECT @")
        assert "position 7" in str(err.value)

    def test_token_positions(self):
        tokens = tokenize("SELECT X")
        assert tokens[0].position == 0
        assert tokens[1].position == 7


class TestParserEdges:
    def test_quantified_needs_column(self):
        with pytest.raises(ParseError):
            parse("SELECT R.X FROM R WHERE 3 < ALL (SELECT S.Z FROM S)")

    def test_not_without_parens(self):
        with pytest.raises(ParseError):
            parse("SELECT R.X FROM R WHERE NOT R.X = 3")

    def test_empty_input(self):
        with pytest.raises(ParseError):
            parse("")


class TestSamplingEdges:
    def test_sample_more_than_available(self):
        disk = SimulatedDisk(page_size=512)
        heap = HeapFile("H", Schema(["A"]), disk, fixed_tuple_size=32)
        heap.load([FuzzyTuple([N(i)], 1.0) for i in range(5)])
        import random

        out = sample_tuples(heap, 50, random.Random(1))
        assert len(out) == 5

    def test_sample_zero(self):
        disk = SimulatedDisk(page_size=512)
        heap = HeapFile("H", Schema(["A"]), disk, fixed_tuple_size=32)
        import random

        assert sample_tuples(heap, 0, random.Random(1)) == []


class TestPiecewiseLinearEdges:
    def test_argmax(self):
        f = PiecewiseLinear([(0, 0.2), (1, 0.9), (2, 0.1)])
        assert f.argmax() == 1

    def test_height_of_flat(self):
        f = PiecewiseLinear([(0, 0.5), (1, 0.5)])
        assert f.height == 0.5


class TestHarnessMarkdown:
    def test_to_markdown_renders_tables(self):
        stream = io.StringIO()
        results = run_all(scale=256, only=["table4"], stream=stream)
        md = to_markdown(results, scale=256)
        assert "## Table 4" in md
        assert "| tuple_bytes |" in md
        assert "Paper reference:" in md

    def test_markdown_flag(self, tmp_path, capsys, monkeypatch):
        monkeypatch.setenv("REPRO_SCALE", "256")
        out_file = tmp_path / "report.md"
        assert main(["--markdown", str(out_file), "table4"]) == 0
        assert out_file.exists()
        assert "# Experiment results" in out_file.read_text()

    def test_markdown_flag_without_path(self):
        assert main(["--markdown"]) == 2


class TestStatsRepr:
    def test_operation_stats_repr(self):
        stats = OperationStats()
        stats.count_read(3)
        stats.count_fuzzy(5)
        text = repr(stats)
        assert "reads=3" in text and "fuzzy=5" in text
