"""Discrete speech-unit post-processing: dedup, byte-pair encoding, error rate.

Raw unit sequences carry one id per 20ms frame. Before BPE they are
deduplicated (runs of identical adjacent ids collapse to one).
"""

from __future__ import annotations

import json
from collections import Counter
from dataclasses import dataclass, field
from functools import cached_property
from itertools import groupby, repeat

from . import _kernels
from .errors import ValidationError
from ._schema import expect_object, loads, read_field, unit_ids
from .segments import FRAME_MS


def dedup(seq) -> tuple[int, ...]:
    """Collapse adjacent equal ids; order preserved, idempotent."""
    return tuple(k for k, _ in groupby(seq))


def units_duration_ms(raw_seq) -> int:
    """Audio duration covered by a raw (pre-dedup) unit sequence."""
    return FRAME_MS * len(raw_seq)


@dataclass(frozen=True)
class BpeVocab:
    """Ordered merge table over a base alphabet of raw unit ids 0..K-1.

    Merge k maps an adjacent (left, right) pair to the new id K+k; operands may
    be base ids or ids created by earlier merges.
    """

    base_alphabet_size: int
    merges: tuple[tuple[int, int, int], ...] = field(default_factory=tuple)

    def __post_init__(self):
        if self.base_alphabet_size <= 0:
            raise ValidationError("base alphabet size must be positive")
        try:
            object.__setattr__(self, "merges", _merges(self.merges))
        except (TypeError, ValueError) as exc:
            raise ValidationError(f"merges: {exc}") from None
        known = self.base_alphabet_size
        for left, right, new in self.merges:
            if not (0 <= left < known and 0 <= right < known):
                raise ValidationError(
                    f"merge ({left},{right})->{new} references unknown ids"
                )
            if new != known:
                raise ValidationError(
                    f"merge ids must be consecutive from {self.base_alphabet_size}; "
                    f"got {new}, expected {known}"
                )
            known += 1

    @cached_property
    def _ranks(self) -> dict[tuple[int, int], int]:
        """(left, right) -> index of the first merge of that pair, built on
        the first encode."""
        ranks = {}
        for rank, (left, right, _) in enumerate(self.merges):
            ranks.setdefault((left, right), rank)
        return ranks

    @property
    def size(self) -> int:
        return self.base_alphabet_size + len(self.merges)

    def to_dict(self):
        return {
            "base_alphabet_size": self.base_alphabet_size,
            "merges": [list(m) for m in self.merges],
        }

    def to_json(self, indent=None) -> str:
        return json.dumps(self.to_dict(), indent=indent, sort_keys=True)

    @classmethod
    def from_dict(cls, data) -> "BpeVocab":
        expect_object(data, "vocab")
        return cls(
            base_alphabet_size=read_field(data, "base_alphabet_size"),
            merges=read_field(data, "merges", convert=_merges, default=()),
        )

    @classmethod
    def from_json(cls, text: str) -> "BpeVocab":
        return cls.from_dict(loads(text, "vocab JSON"))


def _merges(value) -> tuple[tuple[int, int, int], ...]:
    """Merge triples from a JSON list of [left, right, new] lists."""
    merges = tuple(map(unit_ids, value))
    for i, merge in enumerate(merges):
        if len(merge) != 3:
            raise ValueError(f"entry {i} is not a [left, right, new] triple")
    return merges


def _check_raw(seq, base_alphabet_size: int) -> None:
    prev = None
    for u in seq:
        if u < 0 or u >= base_alphabet_size:
            raise ValidationError(
                f"raw unit id {u} outside alphabet [0, {base_alphabet_size})"
            )
        if u == prev:
            raise ValidationError("sequence must be deduplicated before BPE")
        prev = u


def _merge_pass(seq: list[int], left: int, right: int, new: int) -> list[int]:
    # one exhaustive left-to-right replacement of (left, right) by new
    out = []
    i = 0
    n = len(seq)
    while i < n:
        if i + 1 < n and seq[i] == left and seq[i + 1] == right:
            out.append(new)
            i += 2
        else:
            out.append(seq[i])
            i += 1
    return out


def bpe_train(corpus, num_merges: int, base_alphabet_size: int) -> BpeVocab:
    """Greedy BPE over deduplicated unit sequences.

    Each round merges the most frequent adjacent pair everywhere (ties go to
    the lexicographically smallest pair) and assigns the next free id.
    Training stops early once no pair occurs twice.

    Pairs are counted once. Each merge then rewrites only the sequences that
    hold its pair, and recounts in each only the stretch from just before its
    first merge site to just after its last: the pairs outside it are
    unchanged. A merge creates only pairs that hold its new id, so any other
    pair's count can only fall afterwards: a pair counted fewer than twice
    after a merge can never be chosen, and is dropped.
    """
    if num_merges < 0:
        raise ValidationError("num_merges must be >= 0")
    seqs = []
    for seq in corpus:
        seq = list(seq)
        _check_raw(seq, base_alphabet_size)
        seqs.append(seq)
    counts = Counter(pair for seq in seqs for pair in zip(seq, seq[1:]))
    touched = list(counts)  # the pairs whose count the last merge changed
    merges = []
    for new in range(base_alphabet_size, base_alphabet_size + num_merges):
        for pair in touched:
            if counts.get(pair, 2) < 2:
                counts.pop(pair)
        if not counts:
            break
        freq = max(counts.values())
        best = min([pair for pair, n in counts.items() if n == freq])
        merges.append((*best, new))
        touched = []
        for i, seq in enumerate(seqs):
            if best[0] not in seq or best not in zip(seq, seq[1:]):  # cheap test first
                continue
            merged = _merge_pass(seq, *best, new)
            lo = max(merged.index(new) - 1, 0)
            tail = merged[::-1].index(new)  # the elements after the last site
            old = seq[lo : len(seq) - tail + 1]
            cur = merged[lo : len(merged) - tail + 1]
            for pair in zip(old, old[1:]):
                counts[pair] = counts.get(pair, 0) - 1
            for pair in zip(cur, cur[1:]):
                counts[pair] = counts.get(pair, 0) + 1
            touched += zip(old, old[1:])
            touched += zip(cur, cur[1:])
            seqs[i] = merged
    return BpeVocab(base_alphabet_size=base_alphabet_size, merges=tuple(merges))


def bpe_encode(vocab: BpeVocab, seq) -> tuple[int, ...]:
    """Apply the vocab's merges in training order, each exhaustively.

    Merging the lowest-ranked pair present, repeatedly, gives the same
    result: a merge only creates pairs holding its new id, and every merge
    that uses that id ranks later.
    """
    seq = list(seq)
    _check_raw(seq, vocab.base_alphabet_size)
    ranks = vocab._ranks
    absent = len(vocab.merges)
    while len(seq) > 1:
        # ranks.get(pair, absent) of each adjacent pair
        rank = min(map(ranks.get, zip(seq, seq[1:]), repeat(absent)))
        if rank == absent:
            break
        seq = _merge_pass(seq, *vocab.merges[rank])
    return tuple(seq)


def bpe_decode(vocab: BpeVocab, seq) -> tuple[int, ...]:
    """Expand merged ids back to base ids."""
    table = {new: (left, right) for left, right, new in vocab.merges}
    out = []
    for u in seq:
        u = int(u)
        if u < 0 or u >= vocab.size:
            raise ValidationError(f"unknown id {u} for a vocab of size {vocab.size}")
        stack = [u]
        while stack:
            v = stack.pop()
            if v < vocab.base_alphabet_size:
                out.append(v)
            else:
                left, right = table[v]
                stack.append(right)
                stack.append(left)
    return tuple(out)


def unit_error_rate(reference, hypothesis) -> float:
    """Edit distance (unit substitutions/insertions/deletions, unit cost)
    divided by reference length. May exceed 1."""
    ref = list(reference)
    hyp = list(hypothesis)
    if not ref:
        raise ValidationError("reference sequence must be non-empty")
    return _kernels.levenshtein(ref, hyp) / len(ref)
