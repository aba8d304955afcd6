#!/usr/bin/env python3
"""Mutants of the rules the tests pin, each with the tests that kill it.

    python3 scripts/mutants.py

Each entry of MUTANTS breaks one rule of src/dde by exact text: the tick
labels and their order, the turn, pause, gap and backchannel arithmetic,
the window and frame-grid cuts, the BPE merge loop, its tie rule and its
site walk, the engine's context and the order of its tick, the traces the
engine and the VAD make of their merged channels, the F0 pick, the samples
line tables, the one pass over both speakers' samples and its spool, the
JSON readers and the trace file layout. An entry is (name,
file under src/dde, old text, new text, test node ids); old and new may be
tuples of texts, replaced pairwise.

The script copies src/ and tests/ into a temp dir and runs every named
test there once, unmutated: they must pass. Then it applies one mutant at
a time and runs only its tests, with -x; the mutant is killed when one of
them fails. An old text found other than exactly once is an error, so a
change that moves the code updates the table. It prints one line per
mutant, then `killed N of M`, and exits 1 unless every mutant is killed.

A change that deletes or edits a test runs this script and quotes its last
line in CHANGES.md.
"""

import os
import shutil
import subprocess
import sys
import tempfile
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent

LABELER = "tests/test_labeler.py"
ANALYTICS = "tests/test_analytics.py"
SEGMENTS = "tests/test_segments.py"
SIMULATE = "tests/test_simulate.py"
UNITS = "tests/test_units.py"
KERNELS = "tests/test_kernels.py"
CLI = "tests/test_cli.py"
EDGE = f"{UNITS}::TestBpeOracleEquivalence::test_edge_corpora"

MUTANTS = [
    # ---- tick labels (labeler._label, segments.ChannelBounds) and their order
    ("SPK rule dropped", "labeler.py",
     "if own.onset_index_in(t0, t1) is not None:", "if False:",
     [f"{LABELER}::TestLabelTick::test_onset_is_spk"]),
    ("STP tested before SPK", "labeler.py",
     "    if own.onset_index_in(t0, t1) is not None:\n        return Action.SPK\n"
     "    offset = own.offset_in(t0, t1)\n    if offset is not None and other.active_at(offset):\n"
     "        return Action.STP\n",
     "    offset = own.offset_in(t0, t1)\n    if offset is not None and other.active_at(offset):\n"
     "        return Action.STP\n"
     "    if own.onset_index_in(t0, t1) is not None:\n        return Action.SPK\n",
     [f"{LABELER}::TestFrameOracleEquivalence::test_matches_frame_oracle_randomized"]),
    # CON cannot be tested before STP to any effect: an offset and speech
    # strictly around the tick end in one tick need an onset between them
    ("CON tested before SPK", "labeler.py",
     "    if own.onset_index_in(t0, t1) is not None:\n        return Action.SPK\n",
     "    if own.active_inside(t1):\n        return Action.CON\n"
     "    if own.onset_index_in(t0, t1) is not None:\n        return Action.SPK\n",
     [f"{LABELER}::TestLabelTick::test_onset_is_spk"]),
    ("STP without the other speaker", "labeler.py",
     "if offset is not None and other.active_at(offset):", "if offset is not None:",
     [f"{LABELER}::TestLabelTick::test_offset_without_overlap_is_sil"]),
    ("STP: other active just before the offset", "labeler.py",
     "other.active_at(offset)", "other.active_at(offset - 1)",
     [f"{LABELER}::TestFrameOracleEquivalence::test_matches_frame_oracle_randomized"]),
    ("CON at a tick end where speech starts", "labeler.py",
     "if own.active_inside(t1):", "if own.active_at(t1):",
     [f"{LABELER}::TestFrameOracleEquivalence::test_matches_frame_oracle_randomized"]),
    ("offset at the tick start counts", "segments.py",
     "i = bisect_right(self.ends, t0)\n        if i < len(self.ends) and self.ends[i] <= t1:",
     "i = bisect_left(self.ends, t0)\n        if i < len(self.ends) and self.ends[i] <= t1:",
     [f"{LABELER}::TestLabelTick::test_offset_on_tick_boundary_belongs_to_closing_tick"]),
    # ---- turns, pauses, backchannels and gaps (analytics, segments.join_spans)
    ("TURN_JOIN_MS silence joins a turn", "segments.py",
     "if joined and start - joined[-1][1] < gap_ms:", "if joined and start - joined[-1][1] <= gap_ms:",
     [f"{ANALYTICS}::TestTurnStructure::test_gap_at_threshold_splits_turns[400]",
      f"{ANALYTICS}::TestSweepOracleEquivalence::test_matches_ms_sweep"]),
    ("PAUSE_MIN_MS silence is a pause", "analytics.py",
     "if PAUSE_MIN_MS < gap < TURN_JOIN_MS:", "if PAUSE_MIN_MS <= gap < TURN_JOIN_MS:",
     [f"{ANALYTICS}::TestSweepOracleEquivalence::test_silence_stats_match_ms_sweep"]),
    ("backchannel cutoff includes 1000 ms", "analytics.py",
     "if e - s < BACKCHANNEL_MAX_MS and", "if e - s <= BACKCHANNEL_MAX_MS and",
     [f"{ANALYTICS}::TestTurnStructure::test_one_second_ipu_is_not_backchannel"]),
    ("gap tie goes to the earlier turn", "analytics.py",
     "if latest_end is None or end >= latest_end:", "if latest_end is None or end > latest_end:",
     ["tests/test_swap.py::test_gaps_follow_the_tie_rule_and_swap_where_no_turns_coincide",
      "tests/test_acceptance.py::test_criterion_7_analytics_oracle"]),
    ("zero-length gap counted", "analytics.py",
     "sp != latest_speaker and start > latest_end:", "sp != latest_speaker and start >= latest_end:",
     [f"{ANALYTICS}::TestCrossChannelEvents::test_zero_length_gap_not_counted"]),
    # ---- window cut and half-frame rules (segments)
    ("window keeps a segment ending at its start", "segments.py",
     "return bisect_right(self.ends, t0), bisect_left(self.starts, t1)",
     "return bisect_left(self.ends, t0), bisect_left(self.starts, t1)",
     [f"{SEGMENTS}::TestWindow"]),
    ("cut units kept off the re-based grid", "segments.py",
     "if a % FRAME_MS == z % FRAME_MS == (ns - left) % FRAME_MS == 0:", "if a % FRAME_MS == z % FRAME_MS == 0:",
     [f"{SEGMENTS}::TestWindow"]),
    ("whole segments always keep their units", "segments.py",
     "return left, end_ms - left, left % FRAME_MS == 0, channels", "return left, end_ms - left, True, channels",
     [f"{SEGMENTS}::TestWindow"]),
    ("frame grid without the half-frame guard", "segments.py",
     "            if e - s >= half:\n                frames", "            if True:\n                frames",
     [f"{SEGMENTS}::TestFrameGrid"]),
    ("frame grid rounds a half frame down", "segments.py",
     "(s + half - 1) // FRAME_MS", "(s + half) // FRAME_MS",
     [f"{SEGMENTS}::TestFrameGrid"]),
    # ---- BPE (units)
    ("BPE ties go to the largest pair", "units.py",
     ("            key = left * size + right\n", "        left, right = divmod(best, size)",
      "counts[prev * size + left]", "key = prev * size + new", "counts[right * size + nxt]", "key = new * size + nxt"),
     ("            key = right * size + left\n", "        right, left = divmod(best, size)",
      "counts[left * size + prev]", "key = new * size + prev", "counts[nxt * size + right]", "key = nxt * size + new"),
     [EDGE]),
    ("BPE stale top dropped", "units.py",
     "heapreplace(heap, (-n, best))", "heappop(heap)",
     [EDGE]),
    ("BPE created pair pushed below 2", "units.py",
     "            if counts[key] >= 2:", "            if counts[key] >= 1:",
     [EDGE]),
    ("BPE merged pair count not lowered", "units.py",
     "            counts[best] -= len(sites)\n", "",
     [EDGE]),
    # the site walk (units._rewrite) and the copy of left past its end; a
    # mutant that stops advancing j would never end, so none is listed
    ("BPE walk end not lowered at a site", "units.py",
     "            end -= 1\n", "",
     [f"{UNITS}::TestRewrite::test_runs_of_a_self_pair", f"{EDGE}[corpus2-4]",
      f"{UNITS}::TestBpeOracleEquivalence::test_hand_vocabs",
      f"{UNITS}::TestBpeOracleEquivalence::test_long_sequences_under_a_workload_scale_vocab"]),
    ("BPE walk pairs a last left with the copy past the end", "units.py",
     "if j + 1 < end and", "if j + 1 <= end and",
     [f"{UNITS}::TestRewrite::test_runs_of_a_self_pair",
      f"{UNITS}::TestBpeOracleEquivalence::test_hand_vocabs"]),
    ("BPE walk starts one left short", "units.py",
     "j = seq.index(left)\n", "j = seq.index(left, 1)\n",
     [f"{UNITS}::TestRewrite::test_a_site_whose_right_id_ends_the_sequence"]),
    ("BPE walk stops one id short", "units.py",
     "end = len(seq) - 1", "end = len(seq) - 2",
     [f"{UNITS}::TestRewrite::test_a_site_whose_right_id_ends_the_sequence"]),
    ("bpe_train rewrites the caller's lists", "units.py",
     "        seq = list(seq)\n        _check_raw(seq, base_alphabet_size)",
     "        _check_raw(seq, base_alphabet_size)",
     [f"{UNITS}::TestBpeTrain::test_callers_lists_are_left_alone"]),
    ("bpe_encode rewrites the caller's list", "units.py",
     "    seq = list(seq)\n    _check_raw(seq, vocab.base_alphabet_size)",
     "    _check_raw(seq, vocab.base_alphabet_size)",
     [f"{UNITS}::TestBpeTrain::test_callers_lists_are_left_alone"]),
    # ---- the engine: context parity and the order of commit, decide and apply (simulate).
    # Applying A's STP before B decides changes nothing: both observations are
    # built before either agent decides
    ("context drops B's live utterance", "simulate.py",
     "                if live:\n                    push_segment(recent,",
     "                if live and st is self.states[0]:\n                    push_segment(recent,",
     [f"{SIMULATE}::TestContextParity"]),
    ("live units trimmed from the wrong end", "simulate.py",
     "units[:n])", "units[-n:])",
     [f"{SIMULATE}::TestObservationOracle"]),
    ("commit at the tick end", "simulate.py",
     "            commit(0, now)\n            commit(1, now)\n",
     "            commit(0, tick_end)\n            commit(1, tick_end)\n",
     [f"{SIMULATE}::TestTickLoopOracle"]),
    ("SPK without flushing a finishing tail", "simulate.py",
     "commit(agent, tick_end)  # flush any finishing tail", "pass",
     [f"{SIMULATE}::TestTickLoopOracle"]),
    ("STP stops at the tick start", "simulate.py",
     "state.planned_end_ms = tick_end\n", "state.planned_end_ms = now\n",
     [f"{SIMULATE}::TestTickLoopOracle"]),
    ("observations made before the tick's commits", "simulate.py",
     ("            commit(0, now)\n            commit(1, now)\n", "            changes = []\n"),
     ("", "            commit(0, now)\n            commit(1, now)\n            changes = []\n"),
     [f"{SIMULATE}::TestTickLoopOracle"]),
    ("SPK applied from the tick end", "simulate.py",
     "state.utterance_start_ms = now\n", "state.utterance_start_ms = tick_end\n",
     [f"{SIMULATE}::TestTickLoopOracle"]),
    ("a tick applied only when neither agent raised", "simulate.py",
     "                for agent, action, payload in changes:",
     "                for agent, action, payload in (changes if len(log_b) > tick else ()):",
     [f"{SIMULATE}::TestEngineBasics::test_step_after_an_aborted_step_raises"]),
    ("finish() without its final commits", "simulate.py",
     "            self._commit_if_done(agent, self.run.duration_ms)\n", "            pass\n",
     [f"{SIMULATE}::TestFinishOracle"]),
    # ---- traces made from merged channels (vad)
    ("VAD channels swapped", "vad.py",
     "_segment_channel(x, cfg) for x in (a, b)]", "_segment_channel(x, cfg) for x in (b, a)]",
     ["tests/test_vad.py::TestVadOracle::test_channels_are_their_spans_as_build_trace_merges_them"]),
    # ---- F0 pick and frames (_kernels)
    ("F0: a tie with the left neighbour is no peak", "_kernels.py",
     "interior = (b >= a) & (b >= c)", "interior = (b > a) & (b >= c)",
     [f"{KERNELS}::TestBatchedF0::test_a_tie_with_the_left_neighbour_is_a_peak"]),
    ("F0: peak threshold 0.8", "_kernels.py",
     "(b >= 0.85 * best[:, None])", "(b >= 0.8 * best[:, None])",
     [f"{KERNELS}::TestBatchedF0::test_matches_frame_loop"]),
    ("F0: no argmax fallback", "_kernels.py",
     "k = np.where(found, interior.argmax(axis=1) + 1, r.argmax(axis=1))", "k = interior.argmax(axis=1) + 1",
     [f"{KERNELS}::TestBatchedF0::test_argmax_fallback_at_both_lag_edges"]),
    ("F0: refined without a peak", "_kernels.py",
     "where=found & (parabola != 0.0)", "where=parabola != 0.0",
     [f"{KERNELS}::TestBatchedF0::test_matches_frame_loop"]),
    ("F0: one full window short", "_kernels.py",
     "(x.size - window_len) // frame_len + 1))", "(x.size - window_len) // frame_len))",
     [f"{KERNELS}::TestBatchedF0::test_matches_frame_loop"]),
    ("F0: a window of lag_max + 8 samples skipped", "_kernels.py",
     "if m < lag_max + 8:", "if m <= lag_max + 8:",
     [f"{KERNELS}::TestBatchedF0::test_matches_frame_loop"]),
    ("PCM scaled in the input's own dtype", "analytics.py",
     "np.asarray(x, dtype=np.float64) / _PCM_SCALE", "np.asarray(x) / _PCM_SCALE",
     [f"{ANALYTICS}::TestAudioStatsRunSliced::test_samples_of_any_type"]),
    # ---- samples lines (labeler.write_samples_jsonl's per-call tables)
    ("tail table keyed by action", "labeler.py",
     ("tail = tails.get(target)", "tail = tails[target] ="),
     ("tail = tails.get(s.action)", "tail = tails[s.action] ="),
     [f"{LABELER}::TestWriterTables"]),
    ("head table keyed by action alone", "labeler.py",
     ("heads = {(agent, a):", "heads[s.agent, s.action]"),
     ("heads = {a:", "heads[s.action]"),
     [f"{LABELER}::TestWriterTables"]),
    # ---- one pass over both speakers' ticks (labeler.write_samples_jsonl's spool)
    ("halves paired across window widths", "labeler.py",
     " and a.window_ms == b.window_ms", "",
     [f"{LABELER}::TestBothSpeakersOnePass::test_halves_without_shared_contexts_written_per_sample"]),
    ("halves paired across ticks", "labeler.py",
     " and a.tick_index == b.tick_index", "",
     [f"{LABELER}::TestBothSpeakersOnePass::test_halves_without_shared_contexts_written_per_sample"]),
    ("halves of unequal length paired", "labeler.py",
     "if not odd and all(", "if all(",
     [f"{LABELER}::TestBothSpeakersOnePass::test_halves_without_shared_contexts_written_per_sample"]),
    ("B's line gets the next tick's context", "labeler.py",
     "        return pairs()\n", "        return zip(islice(samples, half), islice(samples, half + 1, None))\n",
     [f"{LABELER}::TestInlineWriterOracle"]),
    ("spool written over A's lines", "labeler.py",
     "            fp.flush()\n", "            fp.flush()\n            fp.buffer.seek(0)\n",
     [f"{LABELER}::TestInlineWriterOracle"]),
    ("spool copied before it is flushed", "labeler.py",
     "            spool.flush()\n", "",
     [f"{LABELER}::TestInlineWriterOracle"]),
    # ---- JSON readers and records (_schema, segments, analytics, cli)
    ("integer() returns early below -INT_LIMIT", "_schema.py",
     "return type(value) is int and -INT_LIMIT <= value <= INT_LIMIT",
     "return type(value) is int and value <= INT_LIMIT",
     ["tests/test_schema.py::test_integer_rejects_beyond_2_53_minus_1[-9007199254740992]",
      "tests/test_schema.py::test_number_reads_integers_through_integer[-9007199254740992]"]),
    ("integer() returns a bool early", "_schema.py",
     "return type(value) is int and", "return isinstance(value, int) and",
     [f"{SEGMENTS}::TestSerialization::test_bad_fields_name_their_json_path"
      "[data10-channels[1][0].start_ms: expected an integer, got true]"]),
    ("read_value lets OverflowError through", "_schema.py",
     "_REJECTED = (TypeError, ValueError, OverflowError)", "_REJECTED = (TypeError, ValueError)",
     ["tests/test_schema.py::test_read_value_names_a_rejected_value"]),
    ("read_value lets TypeError through", "_schema.py",
     "_REJECTED = (TypeError, ValueError, OverflowError)", "_REJECTED = (ValueError, OverflowError)",
     [CLI]),
    ("unit_ids drops its lower bound", "_schema.py",
     "if least >= -INT_LIMIT:", "if True:", [f"{CLI}::test_trace_error_text[units_minus_2e60]"]),
    ("ids from -1 up read as unsigned", "_schema.py",
     "if least >= 0:", "if least >= -1:",
     [f"{SEGMENTS}::TestSegmentValidation::test_negative_unit_ids_rejected"]),
    ("a missing field without a default taken as absent", "_schema.py",
     "if value is None and default is not _REQUIRED:", "if value is None:",
     [f"{SEGMENTS}::TestSerialization::test_bad_fields_name_their_json_path[data3-channels[1][0].end_ms]"]),
    ("negative unit ids tested by max", "_schema.py",
     "if ids and min(ids) < 0:", "if ids and max(ids) < 0:",
     [f"{SEGMENTS}::TestSegmentValidation::test_negative_unit_ids_rejected",
      f"{SIMULATE}::TestRunConfig::test_bad_policy_settings_rejected_at_load"]),
    ("JSON lines without their line prefix", "_schema.py",
     "yield n, read(loads(line, what))\n                except ValidationError as exc:\n"
     '                    raise ValidationError(f"{path}:{n}: {exc}") from None',
     "yield n, read(loads(line, what))\n                except ValidationError as exc:\n"
     "                    raise",
     [f"{CLI}::test_input_error_text[eval_gold_second_line_cut]"]),
    ("read_traces_jsonl without its line prefix", "segments.py",
     'return [trace for _, trace in read_json_lines(path, "trace JSON", ConversationTrace.from_dict)]',
     'return [ConversationTrace.from_dict(doc) for _, doc in read_json_lines(path, "trace JSON")]',
     [f"{CLI}::test_input_error_text[analyze_jsonl_second_line_segment_reversed]"]),
    ("trace files indented by one space", "segments.py",
     'inner = nl and nl + "  "', 'inner = nl and nl + " "',
     [f"{SEGMENTS}::TestWriteTraceOracle"]),
    ("segment JSON drops events", "segments.py",
     'd["events"] = self.events.to_dict()', "pass",
     ["tests/test_schema.py::test_every_record_round_trips"]),
    ("recall over predictions", "analytics.py",
     "recall = tp / support if support else 0.0", "recall = tp / called if called else 0.0",
     [f"{ANALYTICS}::TestClassificationReport"]),
]


def apply(text, old, new, where):
    """text with each old replaced by its new; an old found other than once is an error."""
    olds, news = (old, new) if isinstance(old, tuple) else ((old,), (new,))
    for o, n in zip(olds, news, strict=True):
        if text.count(o) != 1:
            sys.exit(f"error: {where}: {o!r} found {text.count(o)} times, not once")
        text = text.replace(o, n)
    return text


def pytest(tree, tests):
    """pytest's exit code and output for `tests` in `tree`, stopping at the
    first failure. No bytecode is written: a mutant and the source it
    replaced can share a size and an mtime second, which a cached .pyc
    would not tell apart."""
    argv = [sys.executable, "-m", "pytest", "-x", "-q", "-p", "no:cacheprovider", *tests]
    env = {k: v for k, v in os.environ.items() if k != "DDE_CONFIG"}
    env.update(PYTHONPATH=str(Path(tree, "src")), PYTHONDONTWRITEBYTECODE="1")
    done = subprocess.run(argv, cwd=tree, env=env, capture_output=True, text=True)
    return done.returncode, done.stdout


def main():
    with tempfile.TemporaryDirectory(prefix="mutants-") as tree:
        for part in ("src", "tests"):
            shutil.copytree(ROOT / part, Path(tree, part), ignore=shutil.ignore_patterns("__pycache__"))
        sources = {}
        for name, file, old, new, _ in MUTANTS:
            path = Path(tree, "src", "dde", file)
            sources.setdefault(path, path.read_text())
            apply(sources[path], old, new, f"{name} ({file})")
        tests = sorted({t for m in MUTANTS for t in m[4]})
        code, out = pytest(tree, tests)
        if code:
            sys.exit(f"error: the named tests fail unmutated:\n{out}")
        killed = 0
        for name, file, old, new, kills in MUTANTS:
            path = Path(tree, "src", "dde", file)
            path.write_text(apply(sources[path], old, new, name))
            code, out = pytest(tree, kills)
            path.write_text(sources[path])
            killed += code == 1
            verdict = {0: "SURVIVED", 1: "killed"}.get(code, f"ERROR (pytest exit {code})")
            print(f"{verdict:<8} {name} ({file})", flush=True)
            if code not in (0, 1):
                print(out, file=sys.stderr)
    print(f"killed {killed} of {len(MUTANTS)}")
    return 0 if killed == len(MUTANTS) else 1


if __name__ == "__main__":
    sys.exit(main())
