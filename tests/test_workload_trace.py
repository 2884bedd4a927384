"""Tests for replaying query streams from text (the CLI's stream format
doubles as a tiny workload-trace interchange format)."""

import random

import pytest

from repro.datalog.parser import parse_query, strip_comment
from repro.errors import ParseError
from repro.workloads import intended_query_mix, query_stream


class TestStreamFormat:
    def test_query_per_line_roundtrip(self, tmp_path):
        stream = tmp_path / "trace.txt"
        stream.write_text(
            "% header comment\n"
            "instructor(manolis)\n"
            "\n"
            "instructor(russ)?  % inline comment\n"
        )
        queries = []
        for line in stream.read_text().splitlines():
            line = strip_comment(line).strip()
            if line:
                queries.append(parse_query(line))
        assert [str(q) for q in queries] == [
            "instructor(manolis)", "instructor(russ)",
        ]

    def test_generated_stream_serializes(self, tmp_path):
        rng = random.Random(0)
        queries = query_stream(rng, "instructor", intended_query_mix(), 50)
        stream = tmp_path / "gen.txt"
        stream.write_text("\n".join(str(q) for q in queries))
        reloaded = [
            parse_query(line) for line in stream.read_text().splitlines()
        ]
        assert reloaded == queries

    def test_bad_line_raises(self):
        with pytest.raises(ParseError):
            parse_query("instructor(manolis")
