"""Tests for the command-line interface."""

import io

import pytest

from repro.cli import main


RULES = """
@Rp instructor(X) :- prof(X).
@Rg instructor(X) :- grad(X).
"""

FACTS = "prof(russ). grad(manolis)."


@pytest.fixture
def kb_files(tmp_path):
    rules = tmp_path / "kb.dl"
    rules.write_text(RULES)
    facts = tmp_path / "db.dl"
    facts.write_text(FACTS)
    return str(rules), str(facts)


def run_cli(argv):
    out = io.StringIO()
    code = main(argv, out=out)
    return code, out.getvalue()


class TestQueryCommand:
    def test_yes_answer(self, kb_files):
        rules, facts = kb_files
        code, output = run_cli([
            "query", "--rules", rules, "--facts", facts,
            "instructor(manolis)?",
        ])
        assert code == 0
        assert output.startswith("yes")
        assert "cost: 4" in output

    def test_no_answer_exit_code(self, kb_files):
        rules, facts = kb_files
        code, output = run_cli([
            "query", "--rules", rules, "--facts", facts,
            "instructor(fred)?",
        ])
        assert code == 1
        assert output.startswith("no")

    def test_open_query_prints_binding(self, kb_files):
        rules, facts = kb_files
        code, output = run_cli([
            "query", "--rules", rules, "--facts", facts, "instructor(X)",
        ])
        assert code == 0
        assert "X = russ" in output

    def test_trace_flag(self, kb_files):
        rules, facts = kb_files
        _, output = run_cli([
            "query", "--rules", rules, "--facts", facts, "--trace",
            "instructor(manolis)?",
        ])
        assert "retrieval prof(manolis): miss" in output
        assert "retrieval grad(manolis): hit" in output

    def test_missing_file_reports_error(self, kb_files, tmp_path):
        _, facts = kb_files
        code, output = run_cli([
            "query", "--rules", str(tmp_path / "nope.dl"),
            "--facts", facts, "p(a)",
        ])
        assert code == 2
        assert "error:" in output


class TestQueryDepthBound:
    def test_truncated_search_says_so(self, tmp_path):
        rules = tmp_path / "kb.dl"
        rules.write_text("tc(X, Y) :- e(X, Y).\n"
                         "tc(X, Y) :- e(X, Z), tc(Z, Y).\n")
        facts = tmp_path / "db.dl"
        facts.write_text(" ".join(f"e(n{i}, n{i + 1})." for i in range(70)))
        argv = ["query", "--rules", str(rules), "--facts", str(facts)]
        code, output = run_cli(argv + ["tc(n0, n70)?"])
        assert code == 1
        assert output.startswith("no") and "truncated:" in output
        code, output = run_cli(argv + ["tc(n0, n7)?"])
        assert code == 0 and "truncated" not in output


class TestLearnCommand:
    def test_learning_run(self, kb_files, tmp_path):
        rules, facts = kb_files
        stream = tmp_path / "stream.txt"
        lines = ["% mostly grads"]
        lines += ["instructor(manolis)"] * 250
        lines += ["instructor(russ)"] * 40
        stream.write_text("\n".join(lines))
        code, output = run_cli([
            "learn", "--rules", rules, "--facts", facts,
            "--queries", str(stream), "--quiet",
        ])
        assert code == 0
        assert "processed 290 queries" in output
        assert "instructor^(b)" in output
        assert "Rg D_grad Rp D_prof" in output  # climbed to grads-first

    def test_empty_stream(self, kb_files, tmp_path):
        rules, facts = kb_files
        stream = tmp_path / "empty.txt"
        stream.write_text("% nothing here\n")
        code, output = run_cli([
            "learn", "--rules", rules, "--facts", facts,
            "--queries", str(stream),
        ])
        assert code == 1
        assert "no queries" in output

    def test_drift_flag_reports_drift_status(self, kb_files, tmp_path):
        rules, facts = kb_files
        stream = tmp_path / "stream.txt"
        stream.write_text("\n".join(["instructor(manolis)"] * 60))
        code, output = run_cli([
            "learn", "--rules", rules, "--facts", facts,
            "--queries", str(stream), "--quiet", "--drift",
        ])
        assert code == 0
        assert "drift:" in output
        assert "'epoch': 0" in output

    def test_drift_detector_choice_validated(self, kb_files, tmp_path):
        rules, facts = kb_files
        stream = tmp_path / "stream.txt"
        stream.write_text("instructor(manolis)\n")
        with pytest.raises(SystemExit):
            run_cli([
                "learn", "--rules", rules, "--facts", facts,
                "--queries", str(stream), "--drift",
                "--drift-detector", "mystery",
            ])


class TestSubFlagsNeedTheirSwitch:
    """A sub-flag given without the switch that turns its family on is
    an error, raised before any file is read or query runs (the rule
    and fact paths below do not exist)."""

    SUB_FLAGS = [
        ("--drift-detector", "page-hinkley", "--drift"),
        ("--drift-delta", "0.2", "--drift"),
        ("--experience-neighbours", "5", "--experience or --experience-path"),
        ("--checkpoint-every", "1", "--checkpoint-dir"),
    ]

    @pytest.mark.parametrize("command", ["learn", "trace", "serve"])
    @pytest.mark.parametrize("flag, value, switch", SUB_FLAGS)
    def test_refused_without_its_switch(self, command, flag, value, switch,
                                        tmp_path):
        missing = str(tmp_path / "missing.dl")
        argv = [command, "--rules", missing, "--facts", missing,
                "--queries", missing, flag, value]
        if command == "trace":
            argv += ["--out", str(tmp_path / "trace.jsonl")]
        code, output = run_cli(argv)
        assert code == 2
        assert output == f"error: {flag} needs {switch}\n"

    def test_verify_refuses_neighbours_without_experience(self):
        code, output = run_cli([
            "verify", "--seeds", "1", "--profile", "experience",
            "--experience-neighbours", "5",
        ])
        assert code == 2
        assert "profile" not in output
        assert "--experience-neighbours needs --experience" in output

    def test_each_flag_works_with_its_switch(self, kb_files, tmp_path):
        rules, facts = kb_files
        stream = tmp_path / "stream.txt"
        stream.write_text("instructor(manolis)\n" * 3)
        checkpoints = tmp_path / "checkpoints"
        code, output = run_cli([
            "learn", "--rules", rules, "--facts", facts,
            "--queries", str(stream), "--quiet",
            "--drift", "--drift-delta", "0.2",
            "--drift-detector", "page-hinkley",
            "--experience", "--experience-neighbours", "5",
            "--checkpoint-dir", str(checkpoints), "--checkpoint-every", "1",
        ])
        assert code == 0
        assert "drift:" in output and "experience:" in output
        assert list(checkpoints.glob("*.json"))


class TestTraceCommand:
    @pytest.fixture
    def stream_file(self, tmp_path):
        stream = tmp_path / "stream.txt"
        lines = ["% mostly grads"]
        lines += ["instructor(manolis)"] * 250
        lines += ["instructor(russ)"] * 40
        stream.write_text("\n".join(lines))
        return str(stream)

    def test_trace_exports_jsonl(self, kb_files, stream_file, tmp_path):
        import json

        rules, facts = kb_files
        out = tmp_path / "trace.jsonl"
        code, output = run_cli([
            "trace", "--rules", rules, "--facts", facts,
            "--queries", stream_file, "--quiet", "--out", str(out),
        ])
        assert code == 0
        assert "wrote" in output
        assert "queries_total: 290" in output
        assert "climbs_total: 1" in output
        events = [json.loads(line) for line in
                  out.read_text().splitlines()]
        types = {e["type"] for e in events}
        assert {"query_begin", "query_end", "attempt",
                "learner_sample", "margin", "climb"} <= types

    def test_no_margins_drops_margin_events(self, kb_files, stream_file,
                                            tmp_path):
        import json

        rules, facts = kb_files
        out = tmp_path / "trace.jsonl"
        code, _ = run_cli([
            "trace", "--rules", rules, "--facts", facts,
            "--queries", stream_file, "--quiet", "--out", str(out),
            "--no-margins",
        ])
        assert code == 0
        types = {json.loads(line)["type"]
                 for line in out.read_text().splitlines()}
        assert "margin" not in types
        assert "climb" in types

    def test_stats_summarizes_trace(self, kb_files, stream_file, tmp_path):
        rules, facts = kb_files
        out = tmp_path / "trace.jsonl"
        run_cli([
            "trace", "--rules", rules, "--facts", facts,
            "--queries", stream_file, "--quiet", "--out", str(out),
        ])
        code, output = run_cli(["stats", str(out)])
        assert code == 0
        assert "queries: 290" in output
        assert "climbs: 1" in output
        assert "billed cost:" in output

    def test_stats_reports_drift_counters(self, kb_files, stream_file,
                                          tmp_path):
        rules, facts = kb_files
        out = tmp_path / "trace.jsonl"
        run_cli([
            "trace", "--rules", rules, "--facts", facts,
            "--queries", stream_file, "--quiet", "--out", str(out),
            "--drift",
        ])
        code, output = run_cli(["stats", str(out)])
        assert code == 0
        # The stream flips from grads to profs after query 250, which
        # the detector flags as a regime change.
        assert "drift alarms: 1" in output
        assert "epoch resets: 1" in output
        assert "rollbacks: 0" in output

    def test_stats_rejects_bad_file(self, tmp_path):
        bad = tmp_path / "bad.jsonl"
        bad.write_text("not json\n")
        code, output = run_cli(["stats", str(bad)])
        assert code == 2
        assert "error:" in output


class TestServeCommand:
    def test_percent_inside_a_string_survives_the_comment_strip(self, tmp_path):
        rules = tmp_path / "kb.dl"
        rules.write_text("q(X) :- r(X).")
        facts = tmp_path / "db.dl"
        facts.write_text('r("50%").')
        stream = tmp_path / "queries.txt"
        stream.write_text('q("50%")  % trailing comment\n')
        code, output = run_cli([
            "serve", "--rules", str(rules), "--facts", str(facts),
            "--queries", str(stream),
        ])
        assert code == 0, output
        assert "pass 1: 1 queries" in output


class TestOptimalCommand:
    def test_prints_optimal_strategy(self, kb_files):
        rules, _ = kb_files
        code, output = run_cli([
            "optimal", "--rules", rules, "--form", "instructor/b",
            "--probs", "D_prof=0.15,D_grad=0.6",
        ])
        assert code == 0
        assert "optimal strategy: Rg D_grad Rp D_prof" in output
        assert "expected cost: 2.8" in output

    def test_missing_probability(self, kb_files):
        rules, _ = kb_files
        code, output = run_cli([
            "optimal", "--rules", rules, "--form", "instructor/b",
            "--probs", "D_prof=0.15",
        ])
        assert code == 2
        assert "missing probabilities" in output
        assert "D_grad" in output

    def test_bad_form_spec(self, kb_files):
        rules, _ = kb_files
        code, output = run_cli([
            "optimal", "--rules", rules, "--form", "instructor",
            "--probs", "D_prof=0.5",
        ])
        assert code == 2
        assert "error:" in output

    def test_bad_probs_spec(self, kb_files):
        rules, _ = kb_files
        code, output = run_cli([
            "optimal", "--rules", rules, "--form", "instructor/b",
            "--probs", "D_prof",
        ])
        assert code == 2
        assert "error:" in output
