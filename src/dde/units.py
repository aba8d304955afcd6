"""Discrete speech-unit post-processing: dedup, byte-pair encoding, error rate.

Raw unit sequences carry one id per 20ms frame. Before BPE they are
deduplicated (runs of identical adjacent ids collapse to one).
"""

from __future__ import annotations

from collections import defaultdict
from dataclasses import dataclass, field
from functools import cached_property
from heapq import heapify, heappop, heappush, heapreplace
from itertools import groupby

from . import _kernels
from .errors import ValidationError
from ._schema import Record, expect_object, items, read_field, read_value, unit_ids
from .segments import FRAME_MS


def dedup(seq) -> tuple[int, ...]:
    """Collapse adjacent equal ids; order preserved, idempotent."""
    return tuple(k for k, _ in groupby(seq))


def units_duration_ms(raw_seq) -> int:
    """Audio duration covered by a raw (pre-dedup) unit sequence."""
    return FRAME_MS * len(raw_seq)


@dataclass(frozen=True)
class BpeVocab(Record):
    """Ordered merge table over a base alphabet of raw unit ids 0..K-1.

    Merge k maps an adjacent (left, right) pair to the new id K+k; operands may
    be base ids or ids created by earlier merges.
    """

    base_alphabet_size: int
    merges: tuple[tuple[int, int, int], ...] = field(default_factory=tuple)

    def __post_init__(self):
        if self.base_alphabet_size <= 0:
            raise ValidationError("base alphabet size must be positive")
        object.__setattr__(self, "merges", read_value(self.merges, "merges", _merges))
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

    @classmethod
    def from_dict(cls, data, path="vocab") -> "BpeVocab":
        expect_object(data, path)
        merges = data.get("merges")
        return cls(
            base_alphabet_size=read_field(data, "base_alphabet_size"),
            merges=() if merges is None else merges,
        )


def _merges(value) -> tuple[tuple[int, int, int], ...]:
    """Merge triples from a JSON list of [left, right, new] lists."""
    merges = items(value, read=unit_ids)
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


def _rewrite(seq: list[int], left: int, right: int, new: int) -> list:
    """Replace each (left, right) of seq by new, in place and from left to
    right, and return each site's neighbours (prev, next) as they stood when
    it was replaced, None past either end.

    A copy of left stands past the end while the walk runs, so list.index
    always finds one and the walk stops when it reaches that copy: no call
    raises. Counting the left ids first does the same at 30 ids but scans a
    long sequence twice: 5.9 against 4.1 ms to encode 20,000 ids."""
    sites = []
    seq.append(left)
    end = len(seq) - 1  # the copy's index
    j = seq.index(left)
    while j < end:
        if j + 1 < end and seq[j + 1] == right:
            sites.append(((seq[j - 1] if j else None), (seq[j + 2] if j + 2 < end else None)))
            seq[j : j + 2] = (new,)
            end -= 1
        j = seq.index(left, j + 1)
    seq.pop()
    return sites


def bpe_train(corpus, num_merges: int, base_alphabet_size: int) -> BpeVocab:
    """Greedy BPE over deduplicated unit sequences.

    Each round merges the most frequent adjacent pair everywhere (ties go to
    the lexicographically smallest pair) and assigns the next free id.
    Training stops early once no pair occurs twice.

    Pairs are counted once, each under the integer key left * size + right:
    every id is below size, so keys sort as their pairs do. Each merge then
    rewrites its sites in place, in the sequences that may hold its left id,
    and at each site takes out the pairs (prev, left) and (right, next) and
    adds the pairs it creates, (prev, new) and (new, next); the merged pair
    loses one count per site. So the counts stay exact.

    The best pair comes off a heap of (-count, key), whose order is the tie
    rule. An entry may overstate its pair's count, never understate it: a
    pair gains count only in the merge that creates it, which pushes it once
    it occurs twice, and every other change lowers a count. An entry found
    stale on top is re-keyed to the pair's count while the pair occurs
    twice, and popped otherwise. The merged pair's entry stays on top with
    its count now 0, so the next round pops it.
    """
    if num_merges < 0:
        raise ValidationError("num_merges must be >= 0")
    size = base_alphabet_size + num_merges
    seqs = []
    holders = defaultdict(list)  # id -> the indices of the sequences that may hold it
    # a plain dict: CPython 3.11 specialises subscripts only on an exact dict,
    # and a Counter here ran bpe_train over three corpora 38 -> 49 ms
    counts = {}  # left * size + right -> occurrences of the pair (left, right)
    for i, seq in enumerate(corpus):
        seq = list(seq)
        _check_raw(seq, base_alphabet_size)
        seqs.append(seq)
        for u in set(seq):
            holders[u].append(i)
        for left, right in zip(seq, seq[1:]):
            key = left * size + right
            counts[key] = counts.get(key, 0) + 1
    heap = [(-n, key) for key, n in counts.items() if n >= 2]
    heapify(heap)
    merges = []
    for new in range(base_alphabet_size, size):
        while heap:
            top, best = heap[0]
            n = counts[best]
            if n == -top:
                break
            if n >= 2:
                heapreplace(heap, (-n, best))
            else:
                heappop(heap)
        if not heap:
            break
        left, right = divmod(best, size)
        merges.append((left, right, new))
        created = set()
        for i in holders[left]:
            sites = _rewrite(seqs[i], left, right, new)
            if not sites:
                continue
            counts[best] -= len(sites)
            holders[new].append(i)
            for prev, nxt in sites:
                if prev is not None:
                    counts[prev * size + left] -= 1
                    key = prev * size + new
                    counts[key] = counts.get(key, 0) + 1
                    created.add(key)
                if nxt is not None:
                    counts[right * size + nxt] -= 1
                    key = new * size + nxt
                    counts[key] = counts.get(key, 0) + 1
                    created.add(key)
        for key in created:
            if counts[key] >= 2:
                heappush(heap, (-counts[key], key))
    return BpeVocab(base_alphabet_size=base_alphabet_size, merges=tuple(merges))


def bpe_encode(vocab: BpeVocab, seq) -> tuple[int, ...]:
    """Apply the vocab's merges in training order, each exhaustively.

    Merging the lowest-ranked pair present, repeatedly, gives the same
    result: a merge only creates pairs holding its new id, and every merge
    that uses that id ranks later. So the ranks of the sequence's pairs go
    on a heap once, each merge pushes the ranks of the pairs it creates, and
    ranks come off in order; a rank whose pair is gone finds no site.

    A loop that merges at min() of a per-position rank list gives the same
    tokens and ran 20% faster at workload lengths, but it is quadratic: 36.7
    against 3.9 ms at 2000 ids and 3668 against 49 ms at 20,000 (2-core x86,
    CPython 3.11). So the heap stays.
    """
    seq = list(seq)
    _check_raw(seq, vocab.base_alphabet_size)
    ranks = vocab._ranks
    heap = [rank for rank in map(ranks.get, zip(seq, seq[1:])) if rank is not None]
    heapify(heap)
    last = None
    while heap:
        rank = heappop(heap)
        if rank == last:
            continue
        last = rank
        left, right, new = vocab.merges[rank]
        for prev, nxt in _rewrite(seq, left, right, new):
            for pair in (prev, new), (new, nxt):  # a None end is in no pair of ranks
                if pair in ranks:
                    heappush(heap, ranks[pair])
    return tuple(seq)


def bpe_decode(vocab: BpeVocab, seq) -> tuple[int, ...]:
    """Expand merged ids back to base ids; merge k made id K+k. The ids are
    read as JSON unit ids are: 4.0 reads as 4, while 4.9 and true are errors."""
    try:
        seq = unit_ids(seq)
    except ValueError as exc:
        raise ValidationError(str(exc)) from None
    out = []
    for u in seq:
        if u < 0 or u >= vocab.size:
            raise ValidationError(f"unknown id {u} for a vocab of size {vocab.size}")
        stack = [u]
        while stack:
            v = stack.pop()
            if v < vocab.base_alphabet_size:
                out.append(v)
            else:
                left, right, _ = vocab.merges[v - vocab.base_alphabet_size]
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
