"""Outside-in tracer: times calls into each `dde` module from the benchmark.

Nothing in `src/dde/` is edited. Each public function is replaced, for the
duration of a traced pass, at the place its caller looks it up: several
modules import names directly (`labeler.window`, `simulate.build_trace`,
`analytics.frame_grid`, ...), so those names are patched in the importing
module, and the functions `cli` and the package reach through a module
(`segments.read_trace`, `_kernels.levenshtein`, `analytics.turn_structure`,
...) are patched as module attributes.

Spans are kept in memory as (name, start, end, parent, pass id) and written
out when the run ends. Counts are recorded at the same boundaries, per span.
A span's self time is its duration minus the time its child spans cover.
"""

from __future__ import annotations

import json
import math
import os
import statistics
import time
from collections import defaultdict
from contextlib import contextmanager

TICK_MS = 160  # the package's fixed decision interval

CLI_COMMANDS = ("simulate", "analyze", "label", "eval_actions", "tokenize_train",
                "tokenize_apply", "ingest")


def _n_segments(trace):
    return len(trace.channels[0]) + len(trace.channels[1])


def _window_counts(args, kwargs, result):
    return {"segments_in": _n_segments(args[0]), "segments_out": _n_segments(result)}


def _context_counts(args, kwargs, result):
    return {**_window_counts(args, kwargs, result), "contexts_built": 1}


def _write_samples_counts(args, kwargs, result):
    samples, path = args[0], args[1]
    inline = kwargs.get("context_mode", "ref") == "inline"
    return {
        "bytes": os.path.getsize(path),
        "contexts_serialised": len(samples) if inline else 0,
    }


# (module, attribute looked up by the caller, span name, counts at the boundary)
PATCHES = (
    # names imported into the calling module
    ("labeler", "window", "segments.window", _context_counts),
    ("simulate", "window", "segments.window", _window_counts),
    ("labeler", "bpe_encode", "units.bpe_encode", None),
    ("labeler", "dedup", "units.dedup", None),
    ("simulate", "build_trace", "segments.build_trace", None),
    ("vad", "build_trace", "segments.build_trace", None),
    ("analytics", "frame_grid", "segments.frame_grid",
     lambda a, k, r: {"active_frames": int(r.frames.sum())}),
    # module attributes: what cli, the package and the benchmark call through
    ("segments", "read_trace", "segments.read_trace",
     lambda a, k, r: {"segments": _n_segments(r)}),
    ("segments", "write_trace", "segments.write_trace", None),
    ("labeler", "build_samples", "labeler.build_samples",
     lambda a, k, r: {"ticks": a[0].duration_ms // TICK_MS, "samples": len(r)}),
    ("labeler", "write_samples_jsonl", "labeler.write_samples_jsonl",
     _write_samples_counts),
    ("labeler", "read_actions_jsonl", "labeler.read_actions_jsonl", None),
    ("units", "bpe_train", "units.bpe_train",
     lambda a, k, r: {"merges": len(r.merges)}),
    ("units", "bpe_encode", "units.bpe_encode", None),
    ("units", "dedup", "units.dedup", None),
    ("units", "unit_error_rate", "units.unit_error_rate", None),
    ("simulate", "run_selfchat", "simulate.run_selfchat",
     lambda a, k, r: {"ticks": a[0].duration_ms // TICK_MS}),
    ("analytics", "conversation_report", "analytics.conversation_report", None),
    ("analytics", "turn_structure", "analytics.turn_structure", None),
    ("analytics", "naturalness_report", "analytics.naturalness_report", None),
    ("analytics", "classification_report", "analytics.classification_report", None),
    ("vad", "load_conversation_audio", "vad.load_conversation_audio", None),
    ("vad", "vad_from_samples", "vad.vad_from_samples", None),
    # the _kernels layer's metrics are named kernels.*: names start with a letter
    ("_kernels", "levenshtein", "kernels.levenshtein",
     lambda a, k, r: {"cells": len(a[0]) * len(a[1])}),
    ("_kernels", "frame_rms", "kernels.frame_rms",
     lambda a, k, r: {"samples": len(a[0])}),
    ("_kernels", "f0_frames", "kernels.f0_frames",
     lambda a, k, r: {"frames": len(a[0]) // a[2]}),   # a = (x, fs, frame_len, ...)
)


class Tracer:
    """In-memory span recorder with install/uninstall of the patches."""

    def __init__(self, modules, clock=time.perf_counter):
        self.modules = modules          # short name -> imported dde module
        self.clock = clock
        self.spans = []                 # (name, start, end, parent, pass id)
        self.counts = {}                # span index -> {count name: value}
        self.pass_id = None
        self._stack = []
        self._saved = []

    def _open(self):
        self.spans.append(None)
        idx = len(self.spans) - 1
        parent = self._stack[-1] if self._stack else None
        self._stack.append(idx)
        return idx, parent, self.clock()

    def _close(self, idx, name, parent, start):
        end = self.clock()
        self._stack.pop()
        self.spans[idx] = (name, start, end, parent, self.pass_id)

    @contextmanager
    def span(self, name):
        """A span opened by the benchmark's own code (e.g. around cli.main)."""
        idx, parent, start = self._open()
        try:
            yield
        finally:
            self._close(idx, name, parent, start)

    def _wrap(self, name, fn, measure):
        tracer = self

        def traced(*args, **kwargs):
            idx, parent, start = tracer._open()
            try:
                result = fn(*args, **kwargs)
            finally:
                tracer._close(idx, name, parent, start)
            if measure is not None:
                tracer.counts[idx] = measure(args, kwargs, result)
            return result

        return traced

    def install(self):
        for module, attr, name, measure in PATCHES:
            owner = self.modules[module]
            original = getattr(owner, attr)
            self._saved.append((owner, attr, original))
            setattr(owner, attr, self._wrap(name, original, measure))

    def uninstall(self):
        while self._saved:
            owner, attr, original = self._saved.pop()
            setattr(owner, attr, original)

    def dump(self, path):
        with open(path, "w", encoding="utf-8") as fp:
            for idx, (name, start, end, parent, pass_id) in enumerate(self.spans):
                rec = {"i": idx, "name": name, "start": start, "end": end,
                       "parent": parent, "pass": pass_id}
                if idx in self.counts:
                    rec["counts"] = self.counts[idx]
                fp.write(json.dumps(rec, sort_keys=True))
                fp.write("\n")


def _ratio(num, den):
    """num / den, or 0.0 when nothing was attempted."""
    return num / den if den else 0.0


def pass_layers(tracer, pass_id):
    """Per-layer metrics of one traced pass."""
    calls = defaultdict(int)
    total_ms = defaultdict(float)
    self_ms = defaultdict(float)
    child_ms = defaultdict(float)      # span index -> time covered by its children
    counts = defaultdict(int)          # (span name, count name) -> sum
    by_ticks = defaultdict(list)       # build_samples ticks -> inclusive ms per call
    window_ratios = []
    selected = [(i, s) for i, s in enumerate(tracer.spans) if s[4] == pass_id]
    # children open after their parent, so in reverse order a span's children
    # have all been seen when it comes up
    for idx, (name, start, end, parent, _) in reversed(selected):
        ms = (end - start) * 1000.0
        calls[name] += 1
        total_ms[name] += ms
        self_ms[name] += ms - child_ms.pop(idx, 0.0)
        if parent is not None:
            child_ms[parent] += ms
        c = tracer.counts.get(idx, {})
        for key, value in c.items():
            counts[(name, key)] += value
        if "ticks" in c and name == "labeler.build_samples":
            by_ticks[c["ticks"]].append(ms)
        if c.get("segments_in"):
            window_ratios.append(c["segments_out"] / c["segments_in"])

    scaling_exp = 0.0
    if len(by_ticks) >= 2:
        lo, hi = min(by_ticks), max(by_ticks)
        scaling_exp = math.log(
            statistics.fmean(by_ticks[hi]) / statistics.fmean(by_ticks[lo])
        ) / math.log(hi / lo)

    ms = total_ms.__getitem__

    m = {
        "segments.read_trace.ms": ms("segments.read_trace"),
        "segments.read_trace.segments": counts[("segments.read_trace", "segments")],
        "segments.write_trace.ms": ms("segments.write_trace"),
        "segments.build_trace.calls": calls["segments.build_trace"],
        "segments.build_trace.ms": ms("segments.build_trace"),
        "segments.frame_grid.ms": ms("segments.frame_grid"),
        "segments.window.calls": calls["segments.window"],
        "segments.window.ms": ms("segments.window"),
        "segments.window.useful_ratio":
            statistics.fmean(window_ratios) if window_ratios else 0.0,
        "labeler.build_samples.self_ms": self_ms["labeler.build_samples"],
        "labeler.build_samples.samples": counts[("labeler.build_samples", "samples")],
        "labeler.build_samples.us_per_tick": 1000.0 * _ratio(
            ms("labeler.build_samples"), counts[("labeler.build_samples", "ticks")]),
        "labeler.build_samples.scaling_exp": scaling_exp,
        "labeler.context_useful_ratio": _ratio(
            counts[("labeler.write_samples_jsonl", "contexts_serialised")],
            counts[("segments.window", "contexts_built")]),
        "labeler.write_samples_jsonl.ms": ms("labeler.write_samples_jsonl"),
        "labeler.write_samples_jsonl.bytes": counts[("labeler.write_samples_jsonl", "bytes")],
        "labeler.read_actions_jsonl.ms": ms("labeler.read_actions_jsonl"),
        "units.bpe_train.ms": ms("units.bpe_train"),
        "units.bpe_train.merges": counts[("units.bpe_train", "merges")],
        "units.bpe_train.ms_per_merge": _ratio(
            ms("units.bpe_train"), counts[("units.bpe_train", "merges")]),
        "units.bpe_encode.calls": calls["units.bpe_encode"],
        "units.bpe_encode.ms": ms("units.bpe_encode"),
        "units.bpe_encode.us_per_call": 1000.0 * _ratio(
            ms("units.bpe_encode"), calls["units.bpe_encode"]),
        "units.unit_error_rate.calls": calls["units.unit_error_rate"],
        "units.unit_error_rate.ms": ms("units.unit_error_rate"),
        "simulate.run_selfchat.ms": ms("simulate.run_selfchat"),
        "simulate.run_selfchat.ticks": counts[("simulate.run_selfchat", "ticks")],
        "simulate.run_selfchat.us_per_tick": 1000.0 * _ratio(
            ms("simulate.run_selfchat"), counts[("simulate.run_selfchat", "ticks")]),
        "analytics.conversation_report.calls": calls["analytics.conversation_report"],
        "analytics.conversation_report.self_ms": self_ms["analytics.conversation_report"],
        "analytics.turn_structure.calls": calls["analytics.turn_structure"],
        "analytics.turn_structure.ms": ms("analytics.turn_structure"),
        "analytics.naturalness_report.ms": ms("analytics.naturalness_report"),
        "analytics.classification_report.ms": ms("analytics.classification_report"),
        "vad.load_conversation_audio.ms": ms("vad.load_conversation_audio"),
        "vad.vad_from_samples.self_ms": self_ms["vad.vad_from_samples"],
        "kernels.levenshtein.calls": calls["kernels.levenshtein"],
        "kernels.levenshtein.ms": ms("kernels.levenshtein"),
        "kernels.levenshtein.cells": counts[("kernels.levenshtein", "cells")],
        "kernels.levenshtein.cells_per_us": _ratio(
            counts[("kernels.levenshtein", "cells")], 1000.0 * ms("kernels.levenshtein")),
        "kernels.frame_rms.ms": ms("kernels.frame_rms"),
        "kernels.frame_rms.samples": counts[("kernels.frame_rms", "samples")],
        "kernels.f0_frames.ms": ms("kernels.f0_frames"),
        "kernels.f0_frames.frames": counts[("kernels.f0_frames", "frames")],
        "kernels.f0_frames.useful_ratio": _ratio(
            counts[("segments.frame_grid", "active_frames")],
            counts[("kernels.f0_frames", "frames")]),
    }
    for command in CLI_COMMANDS:
        m[f"cli.{command}.self_ms"] = self_ms[f"cli.{command}"]
    return m
