import json
import os
import re
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest

from dde import EventCounts, SpeechSegment, build_trace, labeler, read_trace, window, write_trace
from dde.cli import main
from dde.simulate import cascaded_run, run_selfchat, stochastic_run
from dde.vad import write_wav

from conftest import random_trace, wav_bytes


def run_cli(*argv):
    return main(list(argv))


def seg(a, b, **kw):
    return SpeechSegment(a, b, **kw)


class TestSimulateCmd:
    def test_cascaded_roundtrip_through_analyze(self, tmp_path, capsys):
        out = tmp_path / "t.json"
        assert run_cli(
            "simulate", "--policy", "cascaded", "--duration-s", "300",
            "--seed", "1", "--out", str(out),
        ) == 0
        assert out.exists()
        capsys.readouterr()
        assert run_cli("analyze", "--trace", str(out)) == 0
        table = capsys.readouterr().out
        row = [line for line in table.splitlines() if line.startswith("t ")][0]
        assert row.split() == ["t", "0", "0", "0", "800"]

    def test_byte_identical_reruns(self, tmp_path):
        a, b = tmp_path / "a.json", tmp_path / "b.json"
        for out in (a, b):
            assert run_cli(
                "simulate", "--policy", "stochastic", "--duration-s", "30",
                "--seed", "7", "--out", str(out),
            ) == 0
        assert a.read_bytes() == b.read_bytes()

    def test_zero_duration_fails(self, tmp_path, capsys):
        code = run_cli(
            "simulate", "--policy", "cascaded", "--duration-s", "0",
            "--out", str(tmp_path / "t.json"),
        )
        assert code != 0
        assert "error:" in capsys.readouterr().err

    def test_run_config_file(self, tmp_path):
        cfg = {
            "seed": 3,
            "duration_ms": 32000,
            "opening_speaker": "A",
            "agents": [
                {"policy": {"kind": "cascaded"}},
                {"policy": {"kind": "cascaded"}},
            ],
        }
        cfg_path = tmp_path / "run.json"
        cfg_path.write_text(json.dumps(cfg))
        out = tmp_path / "t.json"
        assert run_cli("simulate", "--run-config", str(cfg_path), "--out", str(out)) == 0
        assert read_trace(out).duration_ms == 32000

    @pytest.mark.parametrize(
        "duration_ms, units", [(3010, None), (3020, [5] * 151)], ids=["off_grid", "on_grid"]
    )
    def test_corpus_speech_cut_at_the_run_end(self, tmp_path, duration_ms, units):
        """A cut off the 20ms grid drops the cut segment's units; on it, they are trimmed."""
        cfg = {
            "seed": 1,
            "duration_ms": duration_ms,
            "agents": [
                {
                    "policy": {"kind": "scripted", "steps": [[0, "SPK"]]},
                    "response": {"kind": "corpus", "sequences": [[5] * 200]},
                },
                {"policy": {"kind": "scripted", "steps": []}},
            ],
        }
        cfg_path = tmp_path / "run.json"
        cfg_path.write_text(json.dumps(cfg))
        out = tmp_path / "t.json"
        assert run_cli("simulate", "--run-config", str(cfg_path), "--out", str(out)) == 0
        expected = {"start_ms": 0, "end_ms": duration_ms}
        if units is not None:
            expected["units"] = units
        assert json.loads(out.read_text())["channels"] == [[expected], []]

    def test_tick_ms_guard(self, capsys):
        with pytest.raises(SystemExit):
            run_cli("--tick-ms", "100", "simulate", "--out", "x.json")

    @pytest.mark.parametrize(
        "policy, builder",
        [("cascaded", cascaded_run), ("stochastic", stochastic_run), (None, cascaded_run)],
    )
    def test_policy_runs_the_library_builder(self, tmp_path, monkeypatch, policy, builder):
        expected = tmp_path / "expected.json"
        write_trace(run_selfchat(builder(5, 30000)), expected)
        by_flags = tmp_path / "flags.json"
        flags = [] if policy is None else ["--policy", policy]
        assert run_cli(
            "simulate", *flags, "--seed", "5", "--duration-s", "30", "--out", str(by_flags),
        ) == 0
        cfg = tmp_path / "pipeline.json"
        sim = {"seed": 5, "duration_ms": 30000}
        cfg.write_text(json.dumps({"sim": sim if policy is None else {**sim, "policy": policy}}))
        monkeypatch.setenv("DDE_CONFIG", str(cfg))
        by_config = tmp_path / "config.json"
        assert run_cli("simulate", "--out", str(by_config)) == 0
        assert by_flags.read_bytes() == expected.read_bytes()
        assert by_config.read_bytes() == expected.read_bytes()

    def test_help_lists_five_options(self, capsys):
        with pytest.raises(SystemExit):
            run_cli("simulate", "--help")
        options = set(re.findall(r"--[a-z-]+", capsys.readouterr().out))
        assert options == {"--help", "--policy", "--seed", "--duration-s", "--run-config", "--out"}


class TestLabelCmd:
    def _write_trace(self, tmp_path, trace, name="trace.json"):
        p = tmp_path / name
        p.write_text(trace.to_json())
        return p

    def test_histogram_of_worked_example(self, tmp_path, capsys):
        p = self._write_trace(tmp_path, build_trace([("A", seg(1000, 3000))], 5000))
        out = tmp_path / "s.jsonl"
        assert run_cli("label", "--trace", str(p), "--speaker", "A", "--out", str(out)) == 0
        printed = capsys.readouterr().out
        assert "SIL=19" in printed and "CON=11" in printed and "SPK=1" in printed
        assert "STP=0" in printed
        lines = out.read_text().splitlines()
        assert len(lines) == 31
        rec = json.loads(lines[6])
        assert rec["action"] == "SPK"
        assert rec["context_ref"]["end_ms"] == 1120

    def test_five_minutes_makes_1875_lines_per_speaker(self, tmp_path):
        p = self._write_trace(tmp_path, build_trace([], 300000))
        out = tmp_path / "s.jsonl"
        assert run_cli("label", "--trace", str(p), "--out", str(out)) == 0
        assert len(out.read_text().splitlines()) == 2 * 1875

    def test_speaker_both_is_the_default(self, tmp_path):
        p = self._write_trace(tmp_path, build_trace([("A", seg(1000, 3000))], 5000))
        both, default = tmp_path / "both.jsonl", tmp_path / "default.jsonl"
        assert run_cli("label", "--trace", str(p), "--speaker", "both", "--out", str(both)) == 0
        assert run_cli("label", "--trace", str(p), "--out", str(default)) == 0
        assert both.read_bytes() == default.read_bytes()

    def test_silent_trace_all_sil(self, tmp_path, capsys):
        p = self._write_trace(tmp_path, build_trace([], 1600))
        out = tmp_path / "s.jsonl"
        assert run_cli("label", "--trace", str(p), "--speaker", "B", "--out", str(out)) == 0
        assert "SIL=10" in capsys.readouterr().out

    def test_inline_context(self, tmp_path):
        p = self._write_trace(tmp_path, build_trace([("B", seg(0, 320))], 480))
        out = tmp_path / "s.jsonl"
        assert run_cli(
            "label", "--trace", str(p), "--speaker", "B",
            "--inline-context", "--out", str(out),
        ) == 0
        rec = json.loads(out.read_text().splitlines()[0])
        assert rec["context"]["duration_ms"] == 160

    def test_ref_mode_builds_no_context(self, tmp_path, monkeypatch):
        calls = []
        real_window = labeler.window
        monkeypatch.setattr(labeler, "window", lambda *a: calls.append(a) or real_window(*a))
        p = self._write_trace(tmp_path, build_trace([("A", seg(1000, 3000))], 5000))
        out = tmp_path / "s.jsonl"
        assert run_cli("label", "--trace", str(p), "--out", str(out)) == 0
        assert len(out.read_text().splitlines()) == 2 * 31
        assert calls == []

    def test_inline_contexts_equal_independent_windows(self, tmp_path, rng):
        trace = random_trace(rng, max_duration_ms=8000, with_units=True)
        p = self._write_trace(tmp_path, trace)
        out = tmp_path / "s.jsonl"
        assert run_cli(
            "label", "--trace", str(p), "--window-ms", "1000",
            "--inline-context", "--out", str(out),
        ) == 0
        records = [json.loads(line) for line in out.read_text().splitlines()]
        assert len(records) == 2 * (trace.duration_ms // 160)
        for rec in records:
            end = 160 * (rec["tick_index"] + 1)
            assert rec["context"] == window(trace, end, 1000).to_dict()

    def test_inline_contexts_at_an_off_grid_window(self, tmp_path):
        # a 333ms window starts off the 20ms grid once it leaves 0: A's unit
        # segment at [1000, 1100) lies wholly inside the windows ending at
        # 1120 and 1280, shifted to start 7 and 53 ms in, and loses its units
        trace = build_trace([
            ("A", seg(0, 100, units=(1, 2, 3, 4, 5), words=2)),
            ("A", seg(1000, 1100, units=(6, 7, 8, 9, 10), words=3,
                      events=EventCounts(fillers=1))),
            ("B", seg(7, 500)),
            ("B", seg(900, 1280, units=tuple(range(19)))),
        ], 2000)
        p = self._write_trace(tmp_path, trace)
        out = tmp_path / "s.jsonl"
        assert run_cli(
            "label", "--trace", str(p), "--window-ms", "333",
            "--inline-context", "--out", str(out),
        ) == 0
        records = [json.loads(line) for line in out.read_text().splitlines()]
        assert len(records) == 2 * (2000 // 160)
        for rec in records:
            end = 160 * (rec["tick_index"] + 1)
            assert rec["context"] == window(trace, end, 333).to_dict()
        assert records[7]["context"]["channels"][0] == [{
            "start_ms": 53, "end_ms": 153, "words": 3,
            "events": {"fillers": 1, "repetitions": 0, "laughs": 0, "breaths": 0},
        }]

    def test_malformed_trace_fails(self, tmp_path, capsys):
        p = tmp_path / "bad.json"
        p.write_text("{not json")
        assert run_cli("label", "--trace", str(p), "--out", str(tmp_path / "s.jsonl")) != 0


# a str is the file's text as it stands, anything else is written as JSON
BAD_TRACES = {
    "no_duration": {"channels": [[], []]},
    "list_top_level": [[], []],
    "segment_without_end": {"duration_ms": 1000, "channels": [[{"start_ms": 0}], []]},
    "non_integer_start": {"duration_ms": 1000, "channels": [[], [{"start_ms": "x", "end_ms": 20}]]},
    "null_channel": {"duration_ms": 1000, "channels": [None, []]},
    "events_not_object": {
        "duration_ms": 1000, "channels": [[{"start_ms": 0, "end_ms": 20, "events": 3}], []],
    },
    "units_string": {
        "duration_ms": 1000, "channels": [[{"start_ms": 0, "end_ms": 60, "units": "123"}], []],
    },
    "boolean_start": {"duration_ms": 1000, "channels": [[{"start_ms": True, "end_ms": 20}], []]},
    "fractional_end": {"duration_ms": 1000, "channels": [[], [{"start_ms": 0, "end_ms": 19.9}]]},
    "integer_over_digit_limit": '{"duration_ms": ' + "9" * 5000 + ', "channels": [[], []]}',
    "nested_past_recursion_limit": "[" * 100000,
}


@pytest.mark.parametrize("command", ["analyze", "label"])
@pytest.mark.parametrize("case", sorted(BAD_TRACES))
def test_bad_trace_is_an_error_not_a_traceback(tmp_path, capsys, command, case):
    p = tmp_path / "bad.json"
    content = BAD_TRACES[case]
    p.write_text(content if isinstance(content, str) else json.dumps(content))
    argv = [command, "--trace", str(p)]
    if command == "label":
        argv += ["--out", str(tmp_path / "s.jsonl")]
    assert run_cli(*argv) == 1
    err = capsys.readouterr().err
    assert err.startswith("error:")
    assert "Traceback" not in err


# name -> (trace document, the whole error text of `dde analyze` after "error: ")
TRACE_ERRORS = {
    "segment_past_duration": (
        {"duration_ms": 2000, "channels": [[{"start_ms": 1000, "end_ms": 3000}], []]},
        "channel 0: segment ends at 3000 past duration 2000",
    ),
    "negative_duration": ({"duration_ms": -5, "channels": [[], []]}, "duration must be non-negative"),
    "touching_segments": (
        {
            "duration_ms": 1000,
            "channels": [[{"start_ms": 0, "end_ms": 100}, {"start_ms": 100, "end_ms": 200}], []],
        },
        "channel 0: segment at 100 overlaps or touches previous segment ending at 100",
    ),
    # a value the reader cannot read at all is named in the readers' own words
    "start_not_a_number": (
        {"duration_ms": 1000, "channels": [[{"start_ms": "x", "end_ms": 20}], []]},
        'channels[0][0].start_ms: expected an integer, got "x"',
    ),
    "end_a_list": (
        {"duration_ms": 1000, "channels": [[], [{"start_ms": 0, "end_ms": [20]}]]},
        "channels[1][0].end_ms: expected an integer, got [20]",
    ),
    # a value the reader reads but the segment rejects is named by its path too
    "negative_start": (
        {"duration_ms": 1000, "channels": [[{"start_ms": -1, "end_ms": 20}], []]},
        "channels[0][0]: segment start -1 < 0",
    ),
    "negative_words": (
        {"duration_ms": 1000, "channels": [[{"start_ms": 0, "end_ms": 20, "words": -1}], []]},
        "channels[0][0]: word count must be non-negative",
    ),
    # read as a filler rate of -15 per minute
    "negative_fillers": (
        {"duration_ms": 60000, "channels": [[{"start_ms": 0, "end_ms": 20000, "events": {"fillers": -5}}], []]},
        "channels[0][0].events: fillers must be non-negative, got -5",
    ),
    # a channel that is not a list was read as its characters or keys: "" and {}
    # as no segments, "ab" as segments "a" and "b"
    "channel_empty_string": ({"duration_ms": 1000, "channels": ["", []]}, "channels[0]: expected a list"),
    "channel_an_object": ({"duration_ms": 1000, "channels": [[], {}]}, "channels[1]: expected a list"),
    "channel_a_string": ({"duration_ms": 1000, "channels": ["ab", []]}, "channels[0]: expected a list"),
    "channel_a_number": ({"duration_ms": 1000, "channels": [5, []]}, "channels[0]: expected a list"),
}


@pytest.mark.parametrize("case", sorted(TRACE_ERRORS))
def test_trace_error_text(tmp_path, capsys, case):
    doc, message = TRACE_ERRORS[case]
    p = tmp_path / "bad.json"
    p.write_text(json.dumps(doc))
    assert run_cli("analyze", "--trace", str(p)) == 1
    assert capsys.readouterr().err == f"error: {message}\n"


def _agents(*policies, response=None):
    return [{"policy": p, "response": response} for p in policies]


CASCADED = {"kind": "cascaded"}

BAD_RUN_CONFIGS = {
    "no_seed": {"agents": _agents(CASCADED, CASCADED)},
    "list_top_level": [1],
    "agents_not_list": {"seed": 1, "agents": 5},
    "agent_without_policy": {"seed": 1, "agents": [{}, {"policy": CASCADED}]},
    "eot_not_integer": {
        "seed": 1, "agents": _agents({"kind": "cascaded", "eot_silence_ms": "x"}, CASCADED),
    },
    "scripted_without_steps": {"seed": 1, "agents": _agents({"kind": "scripted"}, CASCADED)},
    "step_not_a_list": {
        "seed": 1, "agents": _agents({"kind": "scripted", "steps": [5]}, CASCADED),
    },
    "step_too_short": {
        "seed": 1, "agents": _agents({"kind": "scripted", "steps": [[0]]}, CASCADED),
    },
    "step_action_not_a_name": {
        "seed": 1, "agents": _agents({"kind": "scripted", "steps": [[0, 5]]}, CASCADED),
    },
    "step_duration_not_integer": {
        "seed": 1, "agents": _agents({"kind": "scripted", "steps": [[0, "SPK", "x"]]}, CASCADED),
    },
    "corpus_sequence_not_list": {
        "seed": 1,
        "agents": _agents(CASCADED, CASCADED, response={"kind": "corpus", "sequences": [5]}),
    },
    "boolean_seed": {"seed": True, "agents": _agents(CASCADED, CASCADED)},
    "negative_seed": {"seed": -1},
    "fractional_duration": {"seed": 1, "duration_ms": 3200.7},
    "nan_mean": {
        "seed": 1, "opening_speaker": "A",
        "agents": _agents(CASCADED, CASCADED, response={"kind": "lognormal", "mean_ms": "nan"}),
    },
    "boolean_probability": {
        "seed": 1,
        "agents": _agents({"kind": "stochastic", "p_backchannel_per_tick": True}, CASCADED),
    },
    "boolean_opening_speaker": {"seed": 1, "opening_speaker": True},
    "zero_window": {"seed": 1, "window_ms": 0},
    "negative_window": {"seed": 1, "window_ms": -5},
    "scripted_zero_duration": {
        "seed": 1, "agents": _agents({"kind": "scripted", "steps": [[0, "SPK", 0]]}, CASCADED),
    },
    "scripted_negative_duration": {
        "seed": 1, "agents": _agents({"kind": "scripted", "steps": [[2, "SPK", -160]]}, CASCADED),
    },
    "scripted_negative_tick": {
        "seed": 1, "agents": _agents({"kind": "scripted", "steps": [[-1, "SPK"]]}, CASCADED),
    },
    # a cascaded policy's response bounds are its agent's uniform response
    "cascaded_zero_response_min": {
        "seed": 1, "agents": _agents(CASCADED, CASCADED, response={"kind": "uniform", "min_ms": 0}),
    },
    "cascaded_response_min_over_max": {
        "seed": 1,
        "agents": _agents(
            CASCADED, CASCADED, response={"kind": "uniform", "min_ms": 3000, "max_ms": 2000},
        ),
    },
    "unknown_run_key": {"seed": 1, "duraton_ms": 5000},
    "unknown_policy_key": {
        "seed": 1, "agents": _agents({"kind": "cascaded", "eot_silense_ms": 600}, CASCADED),
    },
    "unknown_agent_key": {
        "seed": 1,
        "agents": [{"policy": CASCADED, "respons": {"kind": "uniform"}}, {"policy": CASCADED}],
    },
    "unknown_response_key": {
        "seed": 1, "agents": _agents(CASCADED, CASCADED, response={"kind": "uniform", "min_m": 320}),
    },
}


@pytest.mark.parametrize("case", sorted(BAD_RUN_CONFIGS))
def test_bad_run_config_is_an_error_not_a_traceback(tmp_path, capsys, case):
    p = tmp_path / "run.json"
    p.write_text(json.dumps(BAD_RUN_CONFIGS[case]))
    assert run_cli("simulate", "--run-config", str(p), "--out", str(tmp_path / "t.json")) == 1
    err = capsys.readouterr().err
    assert err.startswith("error:")
    assert "Traceback" not in err


@pytest.mark.parametrize(
    "case, path",
    [
        ("unknown_run_key", "duraton_ms"),
        ("unknown_policy_key", "agents[0].policy.eot_silense_ms"),
        ("unknown_agent_key", "agents[0].respons"),
        ("unknown_response_key", "agents[0].response.min_m"),
    ],
)
def test_unknown_run_config_key_is_named(tmp_path, capsys, case, path):
    p = tmp_path / "run.json"
    p.write_text(json.dumps(BAD_RUN_CONFIGS[case]))
    assert run_cli("simulate", "--run-config", str(p), "--out", str(tmp_path / "t.json")) == 1
    assert capsys.readouterr().err == f"error: {path}: unknown field\n"


UNITS_TRACE = {
    "duration_ms": 640,
    "channels": [[{"start_ms": 0, "end_ms": 160, "units": [7, 8, 7, 8, 9, 9, 9, 9]}], []],
}
GOOD_RATES = {"overlaps_per_min": 5.7, "backchannels_per_min": 2.1, "pauses_per_min": 12.2}
LABEL = ["label", "--trace", "@trace.json", "--vocab", "@vocab.json", "--out", "@s.jsonl"]
APPLY = ["tokenize", "apply", "--vocab", "@vocab.json", "--traces", "@trace.json", "--out", "@e.jsonl"]
EVAL = ["eval-actions", "--gold", "@gold.jsonl", "--predicted", "@pred.jsonl"]
COMPARE = ["analyze", "--trace", "@trace.json", "--compare", "@ref.json"]
ANALYZE = ["analyze", "--trace", "@trace.json"]
SIMULATE = ["simulate", "--out", "@t.json"]
INGEST_STEREO = ["ingest", "--audio", "@bad.wav", "--out", "@t.json"]
INGEST_MONO = ["ingest", "--audio-a", "@conv.wav", "--audio-b", "@bad.wav", "--out", "@t.json"]
NOT_A_WAV = {"bad.wav": {"duration_ms": 640}}
WAV_HEADER_ONLY = {"bad.wav": wav_bytes()[:40]}
# the fmt chunk claims 65296 bytes, more than the whole file holds
WAV_CHUNK_PAST_END = {"bad.wav": wav_bytes()[:17] + b"\xff" + wav_bytes()[18:]}


def _latin1(name, doc):
    """{name: doc with a "note": "café" field, saved as Latin-1, not UTF-8}."""
    def dump(rec):
        return json.dumps({**rec, "note": "café"}, ensure_ascii=False)

    text = "\n".join(map(dump, doc)) if name.endswith(".jsonl") else dump(doc)
    return {name: text.encode("latin-1")}


VOCAB = {"base_alphabet_size": 10, "merges": [[7, 8, 10]]}

# name -> (files written next to trace.json, gold.jsonl and conv.wav; argv, where
# "@name" is that file's path). A "pipeline.json" file becomes $DDE_CONFIG;
# bytes are written as they are, anything else as JSON.
BAD_INPUTS = {
    "vocab_merge_pair_label": ({"vocab.json": {"base_alphabet_size": 10, "merges": [[1, 2]]}}, LABEL),
    "vocab_merge_pair_apply": ({"vocab.json": {"base_alphabet_size": 10, "merges": [[1, 2]]}}, APPLY),
    "vocab_list_label": ({"vocab.json": [1]}, LABEL),
    "vocab_list_apply": ({"vocab.json": [1]}, APPLY),
    "samples_action_integer": ({"pred.jsonl": [{"agent": "A", "tick_index": 0, "action": 3}]}, EVAL),
    "samples_tick_string": ({"pred.jsonl": [{"agent": "A", "tick_index": "x", "action": "SIL"}]}, EVAL),
    "samples_line_list": ({"pred.jsonl": [[1]]}, EVAL),
    "compare_missing_rate": (
        {"ref.json": {k: v for k, v in GOOD_RATES.items() if k != "backchannels_per_min"}}, COMPARE,
    ),
    "compare_rate_string": ({"ref.json": {**GOOD_RATES, "pauses_per_min": "x"}}, COMPARE),
    "config_list": ({"pipeline.json": [1]}, ANALYZE),
    "config_report_format_xml": ({"pipeline.json": {"report_format": "xml"}}, ANALYZE),
    "config_report_format_number": ({"pipeline.json": {"report_format": 5}}, ANALYZE),
    "config_report_format_list": ({"pipeline.json": {"report_format": ["json"]}}, ANALYZE),
    "simulate_duration_nan": ({}, [*SIMULATE, "--duration-s", "nan"]),
    "simulate_duration_inf": ({}, [*SIMULATE, "--duration-s", "inf"]),
    "wav_not_a_wav_stereo": (NOT_A_WAV, INGEST_STEREO),
    "wav_not_a_wav_mono": (NOT_A_WAV, INGEST_MONO),
    "wav_header_only_stereo": (WAV_HEADER_ONLY, INGEST_STEREO),
    "wav_header_only_mono": (WAV_HEADER_ONLY, INGEST_MONO),
    "wav_chunk_past_end_stereo": (WAV_CHUNK_PAST_END, INGEST_STEREO),
    "wav_chunk_past_end_mono": (WAV_CHUNK_PAST_END, INGEST_MONO),
    "config_sim_duration": ({"pipeline.json": {"sim": {"duration_ms": "x"}}}, SIMULATE),
    "config_bpe_merges": (
        {"pipeline.json": {"bpe": {"num_merges": "x"}}},
        ["tokenize", "train", "--traces", "@trace.json", "--out", "@v.json"],
    ),
    "config_vad_unknown_field": (
        {"pipeline.json": {"vad": {"bogus": 1}}}, ["ingest", "--audio", "@conv.wav", "--out", "@t.json"],
    ),
    "non_utf8_trace_analyze": (_latin1("trace.json", UNITS_TRACE), ANALYZE),
    "non_utf8_trace_label": (
        _latin1("trace.json", UNITS_TRACE), ["label", "--trace", "@trace.json", "--out", "@s.jsonl"],
    ),
    "non_utf8_trace_train": (
        _latin1("trace.json", UNITS_TRACE),
        ["tokenize", "train", "--traces", "@trace.json", "--out", "@v.json"],
    ),
    "non_utf8_traces_jsonl": (
        _latin1("convs.jsonl", [UNITS_TRACE, UNITS_TRACE]), ["analyze", "--trace", "@convs.jsonl"],
    ),
    "non_utf8_vocab_label": (_latin1("vocab.json", VOCAB), LABEL),
    "non_utf8_vocab_apply": (_latin1("vocab.json", VOCAB), APPLY),
    "non_utf8_run_config": (
        _latin1("run.json", {"seed": 1, "duration_ms": 1600}),
        ["simulate", "--run-config", "@run.json", "--out", "@t.json"],
    ),
    "non_utf8_compare": (_latin1("ref.json", GOOD_RATES), COMPARE),
    "non_utf8_samples": (
        _latin1("pred.jsonl", [{"agent": "A", "tick_index": 0, "action": "SIL"}]), EVAL,
    ),
    "non_utf8_config": (_latin1("pipeline.json", {"report_format": "json"}), ANALYZE),
}


@pytest.mark.parametrize("case", sorted(BAD_INPUTS))
def test_bad_input_is_an_error_not_a_traceback(tmp_path, capsys, monkeypatch, case):
    files, argv = BAD_INPUTS[case]
    files = {
        "trace.json": UNITS_TRACE,
        "gold.jsonl": [{"agent": "A", "tick_index": 0, "action": "SIL"}],
        **files,
    }
    for name, content in files.items():
        if isinstance(content, bytes):
            (tmp_path / name).write_bytes(content)
        elif name.endswith(".jsonl"):
            (tmp_path / name).write_text("\n".join(json.dumps(rec) for rec in content))
        else:
            (tmp_path / name).write_text(json.dumps(content))
    write_wav(tmp_path / "conv.wav", (np.zeros(3200, np.int16), np.zeros(3200, np.int16)))
    if "pipeline.json" in files:
        monkeypatch.setenv("DDE_CONFIG", str(tmp_path / "pipeline.json"))
    argv = [str(tmp_path / a[1:]) if a.startswith("@") else a for a in argv]
    assert run_cli(*argv) == 1
    err = capsys.readouterr().err
    assert err.startswith("error:")
    assert "Traceback" not in err


def test_non_utf8_error_names_the_file(tmp_path, capsys):
    p = tmp_path / "trace.json"
    p.write_bytes(b'{"duration_ms": 640, "channels": [[], []], "note": "caf\xe9"}')
    assert run_cli("analyze", "--trace", str(p)) == 1
    assert capsys.readouterr().err == (
        f"error: {p}: not UTF-8 text: invalid continuation byte (0xe9)\n"
    )


INGEST_PAIR = ["ingest", "--audio-a", "@a.wav", "--audio-b", "@b.wav", "--out", "@t.json"]
RUN_CONFIG = ["simulate", "--run-config", "@run.json", "--out", "@t.json"]

# name -> (files: bytes as they are, anything else as JSON; argv; the whole error
# text after "error: "). "@name" in argv and text is that file's path, and
# "@empty" an empty directory.
INPUT_ERRORS = {
    "analyze_empty_directory": ({}, ["analyze", "--trace", "@empty"], "no *.json traces in @empty"),
    "negative_eot_silence": (
        {"run.json": {"seed": 1, "agents": _agents({**CASCADED, "eot_silence_ms": -1}, CASCADED)}},
        RUN_CONFIG, "agents[0].policy: eot_silence_ms must be non-negative",
    ),
    "steps_an_object": (
        {"run.json": {"seed": 1, "agents": _agents({"kind": "scripted", "steps": {}}, CASCADED)}},
        RUN_CONFIG, "agents[0].policy: steps: expected a list",
    ),
    "wav_8_bit": (
        {"bad.wav": wav_bytes(2, sample_width=1)}, INGEST_STEREO, "@bad.wav: expected 16-bit PCM",
    ),
    "wav_mono_as_stereo": ({"bad.wav": wav_bytes(1)}, INGEST_STEREO, "@bad.wav: expected 2 channels"),
    "wav_stereo_as_mono": (
        {"a.wav": wav_bytes(2), "b.wav": wav_bytes(1)}, INGEST_PAIR,
        "mono files must have a single channel",
    ),
    "wav_mono_rates_differ": (
        {"a.wav": wav_bytes(1), "b.wav": wav_bytes(1, rate=8000)}, INGEST_PAIR,
        "sample rates differ: 16000 vs 8000",
    ),
    "wav_8_khz": (
        {"bad.wav": wav_bytes(2, rate=8000)}, INGEST_STEREO, "expected 16000Hz audio, got 8000Hz",
    ),
    # durations past MAX_DURATION_MS used to run until killed
    "label_trace_of_1e12_ms": (
        {"big.json": {"duration_ms": 1e12, "channels": [[], []]}},
        ["label", "--trace", "@big.json", "--out", "@s.jsonl"],
        "duration_ms: at most 86400000, got 1000000000000",
    ),
    "simulate_1e9_s": (
        {}, [*SIMULATE, "--policy", "cascaded", "--duration-s", "1e9"],
        "duration_ms: at most 86400000, got 1000000000000",
    ),
    # a samples file written twice used to be scored as if written once
    "eval_gold_written_twice": (
        {"gold.jsonl": b"".join(
            b'{"action": "SIL", "agent": "%s", "tick_index": %d}\n' % (agent, tick)
            for agent in (b"A", b"B") for tick in (0, 1)
        ) * 2, "pred.jsonl": b""},
        EVAL, "@gold.jsonl:5: duplicate sample for agent A at tick 0 (first at line 1)",
    ),
    # these flags were checked by argparse `choices` (usage text, exit 2) or named no flag
    "simulate_policy_bogus": (
        {}, [*SIMULATE, "--policy", "bogus"], '--policy: expected one of cascaded, stochastic, got "bogus"',
    ),
    "analyze_format_yaml": (
        {"trace.json": UNITS_TRACE}, [*ANALYZE, "--format", "yaml"],
        '--format: expected one of json, table, got "yaml"',
    ),
    "eval_actions_format_yaml": (
        {"gold.jsonl": b'{"action": "SIL", "agent": "A", "tick_index": 0}\n',
         "pred.jsonl": b'{"action": "SIL", "agent": "A", "tick_index": 0}\n'},
        [*EVAL, "--format", "yaml"], '--format: expected one of json, table, got "yaml"',
    ),
    "label_speaker_c": (
        {"trace.json": UNITS_TRACE},
        ["label", "--trace", "@trace.json", "--speaker", "C", "--out", "@s.jsonl"],
        "--speaker: expected A, B or both, got 'C'",
    ),
    # the text named 0/1, which only JSON takes, and left out both
    "label_speaker_0": (
        {"trace.json": UNITS_TRACE},
        ["label", "--trace", "@trace.json", "--speaker", "0", "--out", "@s.jsonl"],
        "--speaker: expected A, B or both, got '0'",
    ),
    "label_speaker_Both": (
        {"trace.json": UNITS_TRACE},
        ["label", "--trace", "@trace.json", "--speaker", "Both", "--out", "@s.jsonl"],
        "--speaker: expected A, B or both, got 'Both'",
    ),
    # a cascaded policy's response bounds moved to its agent's response entry
    "cascaded_old_response_bounds": (
        {"run.json": {"seed": 1, "agents": _agents(
            {**CASCADED, "response_min_ms": 1000, "response_max_ms": 2000}, CASCADED,
        )}},
        RUN_CONFIG, "agents[0].policy.response_max_ms: unknown field",
    ),
    # a list that was not a list was read as its characters or keys, or failed in Python's words
    "agents_a_number": ({"run.json": {"seed": 1, "agents": 5}}, RUN_CONFIG, "agents: expected a list"),
    "agents_a_string": ({"run.json": {"seed": 1, "agents": "ab"}}, RUN_CONFIG, "agents: expected a list"),
    # the check behind this text was reached by {} read as no agents
    "agents_one": ({"run.json": {"seed": 1, "agents": _agents(CASCADED)}}, RUN_CONFIG, "a run needs exactly two agents"),
    "step_an_object": (
        {"run.json": {"seed": 1, "agents": _agents({"kind": "scripted", "steps": [{"0": 1, "SPK": 2}]}, CASCADED)}},
        RUN_CONFIG, "agents[0].policy: steps[0]: expected a list",
    ),
    "sequences_an_object": (
        {"run.json": {"seed": 1, "agents": _agents(CASCADED, CASCADED, response={"kind": "corpus", "sequences": {}})}},
        RUN_CONFIG, "agents[0].response: sequences: expected a list",
    ),
    # merges that were not a list were read as no merges
    "vocab_merges_a_string": (
        {"trace.json": UNITS_TRACE, "vocab.json": {"base_alphabet_size": 10, "merges": ""}}, APPLY,
        "merges: expected a list",
    ),
    "vocab_merges_an_object": (
        {"trace.json": UNITS_TRACE, "vocab.json": {"base_alphabet_size": 10, "merges": {}}}, APPLY,
        "merges: expected a list",
    ),
    # non-finite reference rates were reported as NaN and Infinity, which are not JSON
    "compare_rate_nan": (
        {"trace.json": UNITS_TRACE, "ref.json": b'{"overlaps_per_min": NaN, "backchannels_per_min": 2.1, '
                                                b'"pauses_per_min": 12.2}'},
        COMPARE, "overlaps_per_min: expected a finite number, got NaN",
    ),
    "compare_rate_1e999": (
        {"trace.json": UNITS_TRACE, "ref.json": b'{"overlaps_per_min": 1e999, "backchannels_per_min": 2.1, '
                                                b'"pauses_per_min": 12.2}'},
        COMPARE, "overlaps_per_min: expected a finite number, got Infinity",
    ),
    # samples for no speaker, or before the first tick, were scored
    "eval_agent_z": (
        {"gold.jsonl": b'{"action": "SIL", "agent": "Z", "tick_index": 0}\n',
         "pred.jsonl": b'{"action": "SIL", "agent": "Z", "tick_index": 0}\n'},
        EVAL, '@gold.jsonl:1.agent: expected one of A, B, got "Z"',
    ),
    "eval_negative_tick": (
        {"gold.jsonl": b'{"action": "SIL", "agent": "A", "tick_index": -4}\n',
         "pred.jsonl": b'{"action": "SIL", "agent": "A", "tick_index": -4}\n'},
        EVAL, "@gold.jsonl:1.tick_index: expected an integer >= 0, got -4",
    ),
    # --audio-a was ignored and the stereo file ingested
    "ingest_stereo_and_mono": (
        {"conv.wav": wav_bytes(2), "a.wav": wav_bytes(1)},
        ["ingest", "--audio", "@conv.wav", "--audio-a", "@a.wav", "--out", "@t.json"],
        "give --audio or both --audio-a and --audio-b",
    ),
}


@pytest.mark.parametrize("case", sorted(INPUT_ERRORS))
def test_input_error_text(tmp_path, capsys, monkeypatch, case):
    files, argv, message = INPUT_ERRORS[case]
    monkeypatch.delenv("DDE_CONFIG", raising=False)
    (tmp_path / "empty").mkdir()
    for name, content in files.items():
        if isinstance(content, bytes):
            (tmp_path / name).write_bytes(content)
        else:
            (tmp_path / name).write_text(json.dumps(content))

    def paths(text):
        return re.sub(r"@([\w.]+)", lambda m: str(tmp_path / m[1]), text)

    assert run_cli(*map(paths, argv)) == 1
    assert capsys.readouterr().err == f"error: {paths(message)}\n"


class TestAnalyzeCmd:
    def test_json_format_schema(self, tmp_path, capsys):
        p = tmp_path / "t.json"
        p.write_text(build_trace([("A", seg(0, 1000)), ("B", seg(1500, 2500))], 60000).to_json())
        assert run_cli("analyze", "--trace", str(p), "--format", "json") == 0
        payload = json.loads(capsys.readouterr().out)
        rep = payload["t"]
        assert set(rep) >= {
            "duration_ms", "overlaps_per_min", "backchannels_per_min",
            "pauses_per_min", "avg_gap_ms", "counts", "naturalness",
        }
        assert rep["avg_gap_ms"] == 500.0
        assert rep["counts"]["gaps"] == 1

    def test_batch_directory_with_mean_row(self, tmp_path, capsys):
        d = tmp_path / "traces"
        d.mkdir()
        for i, gap in enumerate((1000, 2000)):
            t = build_trace([("A", seg(0, 1000)), ("B", seg(1000 + gap, 3500 + gap))], 60000)
            (d / f"c{i}.json").write_text(t.to_json())
        assert run_cli("analyze", "--trace", str(d)) == 0
        table = capsys.readouterr().out
        lines = table.splitlines()
        assert lines[-1].startswith("mean")
        assert lines[-1].split()[-1] == "1500"

    def test_compare_reference_row(self, tmp_path, capsys):
        p = tmp_path / "t.json"
        p.write_text(build_trace([], 60000).to_json())
        ref = tmp_path / "reference.json"
        ref.write_text(json.dumps({
            "overlaps_per_min": 5.7, "backchannels_per_min": 2.1,
            "pauses_per_min": 12.2, "avg_gap_ms": 393,
        }))
        assert run_cli("analyze", "--trace", str(p), "--compare", str(ref)) == 0
        table = capsys.readouterr().out
        assert any(line.startswith("reference") for line in table.splitlines())

    def test_zero_duration_trace_fails(self, tmp_path):
        p = tmp_path / "t.json"
        p.write_text('{"duration_ms": 0, "channels": [[], []]}')
        assert run_cli("analyze", "--trace", str(p)) != 0

    def test_output_file_written(self, tmp_path):
        p = tmp_path / "t.json"
        p.write_text(build_trace([], 60000).to_json())
        out = tmp_path / "report.txt"
        assert run_cli("analyze", "--trace", str(p), "--out", str(out)) == 0
        assert "overlaps/min" in out.read_text()


class TestIngestCmd:
    def test_stereo_ingest(self, tmp_path, capsys):
        fs = 16000
        n = 2 * fs
        a = np.zeros(n, dtype=np.int16)
        a[fs // 2 : fs] = (
            0.8 * 32767 * np.sin(2 * np.pi * 440 * np.arange(fs // 2) / fs)
        ).astype(np.int16)
        b = np.zeros(n, dtype=np.int16)
        wav = tmp_path / "conv.wav"
        write_wav(wav, (a, b))
        out = tmp_path / "t.json"
        assert run_cli("ingest", "--audio", str(wav), "--out", str(out)) == 0
        trace = read_trace(out)
        assert len(trace.channels[0]) == 1
        s = trace.channels[0][0]
        assert abs(s.start_ms - 500) <= 20 and abs(s.end_ms - 1000) <= 20
        assert trace.channels[1] == ()

    def test_requires_audio_argument(self, tmp_path):
        assert run_cli("ingest", "--out", str(tmp_path / "t.json")) != 0


class TestTokenizeCmd:
    def _trace_with_units(self, tmp_path):
        units1 = (7, 8, 7, 8, 9, 9, 9, 9)
        units2 = (7, 8, 9, 9, 7, 8, 7, 8)
        t = build_trace(
            [("A", seg(0, 160, units=units1)), ("B", seg(320, 480, units=units2))],
            640,
        )
        p = tmp_path / "t.json"
        p.write_text(t.to_json())
        return p

    def test_train_then_apply(self, tmp_path, capsys):
        p = self._trace_with_units(tmp_path)
        vocab_path = tmp_path / "vocab.json"
        assert run_cli(
            "tokenize", "train", "--traces", str(p),
            "--num-merges", "4", "--base-alphabet-size", "10",
            "--out", str(vocab_path),
        ) == 0
        vocab = json.loads(vocab_path.read_text())
        assert vocab["base_alphabet_size"] == 10
        assert vocab["merges"][0][:2] == [7, 8]
        enc_path = tmp_path / "encoded.jsonl"
        assert run_cli(
            "tokenize", "apply", "--vocab", str(vocab_path),
            "--traces", str(p), "--out", str(enc_path),
        ) == 0
        lines = [json.loads(line) for line in enc_path.read_text().splitlines()]
        assert len(lines) == 2
        assert lines[0]["speaker"] == "A"
        assert all(isinstance(tok, int) for rec in lines for tok in rec["tokens"])

    @pytest.mark.parametrize("second", ["malformed", "unit_outside_alphabet"])
    @pytest.mark.parametrize("earlier", [None, "earlier content\n"], ids=["absent", "present"])
    def test_apply_error_leaves_out_untouched(self, tmp_path, capsys, second, earlier):
        first = self._trace_with_units(tmp_path)
        bad = tmp_path / "u.json"
        if second == "malformed":
            bad.write_text('{"duration_ms": 640, "channels": [')
        else:
            bad.write_text(build_trace([("A", seg(0, 160, units=(7,) * 7 + (10,)))], 640).to_json())
        vocab = tmp_path / "vocab.json"
        vocab.write_text(json.dumps(VOCAB))
        out = tmp_path / "e.jsonl"
        if earlier is not None:
            out.write_text(earlier)
        assert run_cli(
            "tokenize", "apply", "--vocab", str(vocab),
            "--traces", str(first), str(bad), "--out", str(out),
        ) == 1
        assert capsys.readouterr().err.startswith("error:")
        if earlier is None:
            assert not out.exists()
        else:
            assert out.read_text() == earlier

    def test_train_without_units_fails(self, tmp_path):
        p = tmp_path / "t.json"
        p.write_text(build_trace([("A", seg(0, 100))], 200).to_json())
        assert run_cli(
            "tokenize", "train", "--traces", str(p), "--num-merges", "1",
            "--base-alphabet-size", "10", "--out", str(tmp_path / "v.json"),
        ) != 0


class TestEvalActionsCmd:
    def test_perfect_and_poor_predictions(self, tmp_path, capsys):
        gold = tmp_path / "gold.jsonl"
        pred = tmp_path / "pred.jsonl"
        rows = [
            {"agent": "A", "tick_index": i, "action": a}
            for i, a in enumerate(["SIL", "SIL", "SPK", "CON", "STP"])
        ]
        gold.write_text("\n".join(json.dumps(r) for r in rows))
        pred_rows = [dict(r) for r in rows]
        pred_rows[1]["action"] = "SPK"
        pred.write_text("\n".join(json.dumps(r) for r in pred_rows))
        assert run_cli(
            "eval-actions", "--gold", str(gold), "--predicted", str(pred),
            "--format", "json",
        ) == 0
        rep = json.loads(capsys.readouterr().out)
        assert rep["accuracy"] == pytest.approx(0.8)
        assert rep["classes"]["SPK"]["precision"] == pytest.approx(0.5)
        assert rep["classes"]["SIL"]["recall"] == pytest.approx(0.5)

    def test_missing_predictions_fail(self, tmp_path):
        gold = tmp_path / "gold.jsonl"
        pred = tmp_path / "pred.jsonl"
        gold.write_text(json.dumps({"agent": "A", "tick_index": 0, "action": "SIL"}))
        pred.write_text("")
        assert run_cli("eval-actions", "--gold", str(gold), "--predicted", str(pred)) != 0


def _vad_channels():
    """Two seconds of stereo PCM16 over a 400 Hz floor of amplitude 10 (each
    20ms frame holds eight whole periods, so every floor frame has the same
    energy). Speaker A has a tone 15.6 dB over the floor at [200, 700) ms, a
    loud one after a 60 ms gap at [760, 1260) and a 60 ms loud blip at 1500;
    the energy threshold decides the first, min_gap_ms the gap and
    min_speech_ms the blip."""
    tone = np.sin(2 * np.pi * 400 * np.arange(32000) / 16000)
    amplitude = np.full(32000, 10.0)
    for start_ms, end_ms, level in ((200, 700, 60.0), (760, 1260, 1000.0), (1500, 1560, 1000.0)):
        amplitude[16 * start_ms : 16 * end_ms] = level
    return np.round(amplitude * tone).astype(np.int16), np.round(10.0 * tone).astype(np.int16)


# (7, 8) occurs five times and, once merged, two more pairs occur twice
BPE_TRACE = {
    "duration_ms": 640,
    "channels": [
        [{"start_ms": 0, "end_ms": 160, "units": [7, 8, 7, 8, 9, 9, 9, 9]}],
        [{"start_ms": 320, "end_ms": 480, "units": [7, 8, 9, 9, 7, 8, 7, 8]}],
    ],
}
TRAIN = ["tokenize", "train", "--traces", "@units.json", "--out", "@v.json"]
INGEST = ["ingest", "--audio", "@vad.wav", "--out", "@t.json"]

# $DDE_CONFIG key -> (argv, its value in the config, the same value as flags,
# another value as flags); each value changes the command's output
SETTINGS = {
    "sim.seed": (SIMULATE, 7, ["--seed", "7"], ["--seed", "9"]),
    "sim.duration_ms": (SIMULATE, 3200, ["--duration-s", "3.2"], ["--duration-s", "4.8"]),
    "sim.policy": (SIMULATE, "stochastic", ["--policy", "stochastic"], ["--policy", "cascaded"]),
    "window_ms": (
        ["label", "--trace", "@trace.json", "--out", "@s.jsonl"], 800,
        ["--window-ms", "800"], ["--window-ms", "1600"],
    ),
    "bpe.num_merges": (TRAIN, 1, ["--num-merges", "1"], ["--num-merges", "2"]),
    "bpe.base_alphabet_size": (
        TRAIN, 12, ["--base-alphabet-size", "12"], ["--base-alphabet-size", "20"],
    ),
    "report_format": ([*ANALYZE, "--out", "@r.txt"], "json", ["--format", "json"], ["--format", "table"]),
    "vad.energy_threshold_db": (
        INGEST, 20.0, ["--energy-threshold-db", "20"], ["--energy-threshold-db", "5"],
    ),
    "vad.min_speech_ms": (INGEST, 40, ["--min-speech-ms", "40"], ["--min-speech-ms", "200"]),
    "vad.min_gap_ms": (INGEST, 40, ["--min-gap-ms", "40"], ["--min-gap-ms", "200"]),
}

# name -> ($DDE_CONFIG document or None, argv, the whole error text after "error: ")
SETTING_ERRORS = {
    "duration_nan": (
        None, [*SIMULATE, "--duration-s", "nan"], "--duration-s: expected a finite number, got NaN",
    ),
    "sim_policy": (
        {"sim": {"policy": "x"}}, SIMULATE, 'sim.policy: expected one of cascaded, stochastic, got "x"',
    ),
    # a section that is not an object is an error even where flags or a run config win
    "sim_not_object": (
        {"sim": []}, ["simulate", "--run-config", "@run.json", "--out", "@t.json"],
        "sim: expected a JSON object, got list",
    ),
    "bpe_not_object": (
        {"bpe": 5}, [*TRAIN, "--num-merges", "1", "--base-alphabet-size", "10"],
        "bpe: expected a JSON object, got int",
    ),
    "vad_not_object": (
        {"vad": "x"},
        [*INGEST, "--energy-threshold-db", "10", "--min-speech-ms", "100", "--min-gap-ms", "100"],
        "vad: expected a JSON object, got str",
    ),
    "vad_unknown_field": ({"vad": {"bogus": 1}}, INGEST, "vad.bogus: unknown field"),
    # the VAD frame is fixed at FRAME_MS, not a setting
    "vad_frame_ms": ({"vad": {"frame_ms": 20}}, INGEST, "vad.frame_ms: unknown field"),
    # a negative margin makes floor frames speech
    "vad_negative_threshold": (
        None, [*INGEST, "--energy-threshold-db", "-3"],
        "vad: energy_threshold_db must be non-negative, got -3.0",
    ),
    "vad_negative_threshold_config": (
        {"vad": {"energy_threshold_db": -3}}, INGEST,
        "vad: energy_threshold_db must be non-negative, got -3.0",
    ),
    # a flag's bad value names the flag, a config value its key
    "vad_threshold_flag_nan": (
        None, [*INGEST, "--energy-threshold-db", "nan"],
        "--energy-threshold-db: expected a finite number, got NaN",
    ),
    "vad_threshold_flag_inf": (
        {"vad": {"energy_threshold_db": 5}}, [*INGEST, "--energy-threshold-db", "inf"],
        "--energy-threshold-db: expected a finite number, got Infinity",
    ),
    "vad_threshold_config_nan": (
        {"vad": {"energy_threshold_db": "nan"}}, INGEST,
        'vad.energy_threshold_db: expected a finite number, got "nan"',
    ),
    "vad_min_gap_config_fraction": (
        {"vad": {"min_gap_ms": 1.5}}, INGEST, "vad.min_gap_ms: expected an integer, got 1.5",
    ),
    "vad_min_speech_flag_range": (
        None, [*INGEST, "--min-speech-ms", "0"], "vad: min_speech_ms must be at least one frame",
    ),
    # unknown keys are errors in every $DDE_CONFIG section, whatever the command
    "unknown_top_level_key": ({"windowms": 800}, SIMULATE, "windowms: unknown field"),
    "bpe_unknown_field": ({"bpe": {"num_merge": 2}}, TRAIN, "bpe.num_merge: unknown field"),
    "sim_unknown_field": ({"sim": {"sed": 3}}, SIMULATE, "sim.sed: unknown field"),
    "vad_unknown_field_any_command": ({"vad": {"bogus": 1}}, TRAIN, "vad.bogus: unknown field"),
    "unknown_key_before_bad_value": (
        {"bpe": {"num_merges": "x", "num_merge": 2}}, TRAIN, "bpe.num_merge: unknown field",
    ),
    # a value the reader cannot read at all is named in the readers' own words
    "sim_seed_config_string": ({"sim": {"seed": "x"}}, SIMULATE, 'sim.seed: expected an integer, got "x"'),
    "vad_threshold_config_list": (
        {"vad": {"energy_threshold_db": [1]}}, INGEST,
        "vad.energy_threshold_db: expected a finite number, got [1]",
    ),
    # flags are read as text by the same readers, not by argparse (usage text, exit 2)
    "seed_flag_text": (None, [*SIMULATE, "--seed", "x"], '--seed: expected an integer, got "x"'),
    "seed_flag_text_with_run_config": (
        None, ["simulate", "--run-config", "@run.json", "--seed", "x", "--out", "@t.json"],
        '--seed: expected an integer, got "x"',
    ),
    "duration_flag_text": (
        None, [*SIMULATE, "--duration-s", "x"], '--duration-s: expected a finite number, got "x"',
    ),
    "min_gap_flag_fraction": (
        None, [*INGEST, "--min-gap-ms", "1.5"], '--min-gap-ms: expected an integer, got "1.5"',
    ),
    "num_merges_flag_text": (
        None, [*TRAIN, "--num-merges", "x"], '--num-merges: expected an integer, got "x"',
    ),
    "energy_threshold_flag_text": (
        None, [*INGEST, "--energy-threshold-db", "x"],
        '--energy-threshold-db: expected a finite number, got "x"',
    ),
    # a value out of range is named by its flag or key, before any input is read
    "num_merges_flag_negative": (
        None, [*TRAIN, "--num-merges", "-1"], "--num-merges: expected an integer >= 0, got -1",
    ),
    "num_merges_config_negative": (
        {"bpe": {"num_merges": -1}}, TRAIN, "bpe.num_merges: expected an integer >= 0, got -1",
    ),
    "base_alphabet_flag_zero": (
        None, [*TRAIN, "--base-alphabet-size", "0"],
        "--base-alphabet-size: expected an integer >= 1, got 0",
    ),
    "base_alphabet_flag_negative": (
        None, [*TRAIN, "--base-alphabet-size", "-3"],
        "--base-alphabet-size: expected an integer >= 1, got -3",
    ),
    "base_alphabet_config_zero": (
        {"bpe": {"base_alphabet_size": 0}}, TRAIN,
        "bpe.base_alphabet_size: expected an integer >= 1, got 0",
    ),
    "window_flag_zero": (
        None, ["label", "--trace", "@trace.json", "--window-ms", "0", "--out", "@s.jsonl"],
        "--window-ms: expected an integer >= 1, got 0",
    ),
    "window_config_zero": (
        {"window_ms": 0}, ["label", "--trace", "@trace.json", "--out", "@s.jsonl"],
        "window_ms: expected an integer >= 1, got 0",
    ),
}


class TestPipelineConfigEnv:
    def test_env_config_supplies_defaults(self, tmp_path, monkeypatch, capsys):
        cfg = tmp_path / "pipeline.json"
        cfg.write_text(json.dumps({"report_format": "json"}))
        monkeypatch.setenv("DDE_CONFIG", str(cfg))
        p = tmp_path / "t.json"
        p.write_text(build_trace([], 60000).to_json())
        assert run_cli("analyze", "--trace", str(p)) == 0
        json.loads(capsys.readouterr().out)  # json because config said so

    def test_flags_override_env_config(self, tmp_path, monkeypatch, capsys):
        cfg = tmp_path / "pipeline.json"
        cfg.write_text(json.dumps({"report_format": "json"}))
        monkeypatch.setenv("DDE_CONFIG", str(cfg))
        p = tmp_path / "t.json"
        p.write_text(build_trace([], 60000).to_json())
        assert run_cli("analyze", "--trace", str(p), "--format", "table") == 0
        assert "overlaps/min" in capsys.readouterr().out

    @staticmethod
    def _inputs(tmp_path):
        """Write the files SETTINGS and SETTING_ERRORS use; return a function
        that replaces each "@name" in an argv with that file's path."""
        (tmp_path / "trace.json").write_text(json.dumps(UNITS_TRACE))
        (tmp_path / "units.json").write_text(json.dumps(BPE_TRACE))
        (tmp_path / "run.json").write_text(json.dumps({"seed": 1, "duration_ms": 1600}))
        write_wav(tmp_path / "vad.wav", _vad_channels())
        return lambda argv: [str(tmp_path / a[1:]) if a.startswith("@") else a for a in argv]

    @pytest.mark.parametrize("key", sorted(SETTINGS))
    def test_env_config_sets_and_flag_overrides(self, tmp_path, monkeypatch, capsys, key):
        argv, value, same, other = SETTINGS[key]
        paths = self._inputs(tmp_path)
        argv = paths(argv)
        out = Path(argv[argv.index("--out") + 1])
        parent, _, name = key.rpartition(".")
        cfg = tmp_path / "pipeline.json"
        cfg.write_text(json.dumps({parent: {name: value}} if parent else {name: value}))

        def run(flags, config):
            if config:
                monkeypatch.setenv("DDE_CONFIG", str(cfg))
            else:
                monkeypatch.delenv("DDE_CONFIG", raising=False)
            assert run_cli(*argv, *flags) == 0
            return capsys.readouterr().out, out.read_bytes()

        by_config = run([], config=True)
        assert by_config == run(same, config=False)
        assert by_config != run([], config=False)
        assert run(other, config=True) == run(other, config=False) != by_config

    @pytest.mark.parametrize("case", sorted(SETTING_ERRORS))
    def test_setting_error_text(self, tmp_path, monkeypatch, capsys, case):
        config, argv, message = SETTING_ERRORS[case]
        paths = self._inputs(tmp_path)
        if config is None:
            monkeypatch.delenv("DDE_CONFIG", raising=False)
        else:
            (tmp_path / "pipeline.json").write_text(json.dumps(config))
            monkeypatch.setenv("DDE_CONFIG", str(tmp_path / "pipeline.json"))
        assert run_cli(*paths(argv)) == 1
        assert capsys.readouterr().err == f"error: {message}\n"


class TestJsonlBatch:
    def test_multi_conversation_file(self, tmp_path, capsys):
        t1 = build_trace([("A", seg(0, 1000)), ("B", seg(1500, 2500))], 60000)
        t2 = build_trace([], 60000)
        p = tmp_path / "convs.jsonl"
        p.write_text(t1.to_json() + "\n" + t2.to_json() + "\n")
        assert run_cli("analyze", "--trace", str(p)) == 0
        table = capsys.readouterr().out
        assert "convs:0" in table and "convs:1" in table
        assert any(line.startswith("mean") for line in table.splitlines())


def test_parser_reused_after_a_failed_parse_gives_fresh_process_outputs(
    tmp_path, monkeypatch, capsys,
):
    # one process: a parse that fails with exit 2, then label and tokenize
    # train on the same parser; each again in a process of its own
    monkeypatch.delenv("DDE_CONFIG", raising=False)
    trace = build_trace([
        ("A", seg(0, 160, units=(7, 8, 7, 8, 9, 9, 9, 9))),
        ("B", seg(320, 480, units=(7, 8, 9, 9, 7, 8, 7, 8))),
    ], 640)
    commands = [
        ["label", "--trace", "t.json", "--speaker", "A", "--out", "s.jsonl"],
        ["tokenize", "train", "--traces", "t.json", "--num-merges", "2",
         "--base-alphabet-size", "10", "--out", "v.json"],
    ]
    outputs = ["s.jsonl", "v.json"]
    shared, fresh = tmp_path / "shared", tmp_path / "fresh"
    for d in (shared, fresh):
        d.mkdir()
        (d / "t.json").write_text(trace.to_json())

    monkeypatch.chdir(shared)
    with pytest.raises(SystemExit) as exc:
        run_cli("label", "--trace", "t.json", "--inline-context", "--bogus", "--out", "x")
    assert exc.value.code == 2
    capsys.readouterr()
    shared_stdout = []
    for argv in commands:
        assert run_cli(*argv) == 0
        shared_stdout.append(capsys.readouterr().out)

    src = str(Path(labeler.__file__).resolve().parent.parent)
    env = {**os.environ, "PYTHONPATH": src}
    script = "import sys; from dde.cli import main; sys.exit(main(sys.argv[1:]))"
    for argv, stdout in zip(commands, shared_stdout):
        done = subprocess.run([sys.executable, "-c", script, *argv], cwd=fresh, env=env,
                              capture_output=True, text=True, check=True)
        assert done.stdout == stdout
    for name in outputs:
        assert (shared / name).read_bytes() == (fresh / name).read_bytes()
