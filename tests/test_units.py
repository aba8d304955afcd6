import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from dde import (
    BpeVocab,
    ValidationError,
    bpe_decode,
    bpe_encode,
    bpe_train,
    dedup,
    unit_error_rate,
    units_duration_ms,
)
from dde.units import _rewrite
from oracles import pass_per_merge_bpe_encode, pass_per_merge_bpe_train, recursive_levenshtein

raw_seqs = st.lists(st.integers(min_value=0, max_value=19), max_size=60)


class TestDedup:
    def test_collapses_runs(self):
        assert dedup([45, 45, 198, 117, 117, 117]) == (45, 198, 117)

    def test_empty(self):
        assert dedup([]) == ()

    def test_idempotent_example(self):
        assert dedup(dedup([1, 1, 2, 1, 1])) == (1, 2, 1)

    @given(raw_seqs)
    def test_idempotent_and_shrinking(self, xs):
        once = dedup(xs)
        assert dedup(once) == once
        assert len(once) <= len(xs)
        assert all(a != b for a, b in zip(once, once[1:]))


class TestUnitsDuration:
    @pytest.mark.parametrize("n,expected", [(50, 1000), (0, 0), (140, 2800)])
    def test_durations(self, n, expected):
        assert units_duration_ms(list(range(n))) == expected


class TestBpeTrain:
    def test_single_merge(self):
        vocab = bpe_train([[7, 8, 7, 8, 9]], 1, 10)
        assert vocab.merges == ((7, 8, 10),)
        assert bpe_encode(vocab, [7, 8, 7, 8, 9]) == (10, 10, 9)

    def test_tie_breaks_to_smallest_pair(self):
        vocab = bpe_train([[1, 2, 3, 1, 2, 3]], 1, 4)
        assert vocab.merges == ((1, 2, 4),)

    def test_zero_merges_is_identity(self):
        vocab = bpe_train([[1, 2, 3]], 0, 4)
        assert vocab.merges == ()
        assert bpe_encode(vocab, [3, 1, 2]) == (3, 1, 2)

    def test_stops_when_no_pair_repeats(self):
        vocab = bpe_train([[0, 1, 2, 3]], 10, 4)
        assert vocab.merges == ()

    def test_rejects_out_of_alphabet(self):
        with pytest.raises(ValidationError):
            bpe_train([[0, 10]], 1, 10)

    def test_rejects_negative_raw_id(self):
        with pytest.raises(ValidationError, match=r"^raw unit id -1 outside alphabet \[0, 10\)$"):
            bpe_train([[0, -1]], 1, 10)

    def test_rejects_undeduplicated_corpus(self):
        with pytest.raises(ValidationError):
            bpe_train([[1, 1, 2]], 1, 4)

    def test_deterministic(self, rng):
        corpus = [
            dedup(rng.integers(0, 12, size=rng.integers(2, 40)).tolist())
            for _ in range(30)
        ]
        first = bpe_train(corpus, 8, 12)
        for _ in range(3):
            assert bpe_train(corpus, 8, 12) == first

    def test_merged_ids_can_merge_again(self):
        vocab = bpe_train([[1, 2, 3, 1, 2, 3]], 2, 4)
        # (1,2)->4 then (4,3)->5
        assert vocab.merges == ((1, 2, 4), (4, 3, 5))
        assert bpe_encode(vocab, [1, 2, 3]) == (5,)

    def test_callers_lists_are_left_alone(self):
        # training and encoding rewrite their own copies in place
        corpus = [[1, 2, 1, 2, 3], [3, 1, 2], [0]]
        before = [list(seq) for seq in corpus]
        vocab = bpe_train(corpus, 3, 4)
        assert vocab.merges[0] == (1, 2, 4)
        assert corpus == before
        seq = [3, 1, 2, 1, 2]
        assert bpe_encode(vocab, seq) != tuple(seq)
        assert seq == [3, 1, 2, 1, 2]


class TestRewrite:
    """The site walk that training and encoding share, pinned directly."""

    @pytest.mark.parametrize("n,sites,after", [
        (1, [], [3]),
        (2, [(None, None)], [9]),
        (3, [(None, 3)], [9, 3]),
        (4, [(None, 3), (9, None)], [9, 9]),
        (5, [(None, 3), (9, 3)], [9, 9, 3]),
        (6, [(None, 3), (9, 3), (9, None)], [9, 9, 9]),
        (7, [(None, 3), (9, 3), (9, 3)], [9, 9, 9, 3]),
    ])
    def test_runs_of_a_self_pair(self, n, sites, after):
        # each site uses up two of the run's left ids
        seq = [3] * n
        assert _rewrite(seq, 3, 3, 9) == sites
        assert seq == after

    def test_a_site_whose_right_id_ends_the_sequence(self):
        seq = [1, 2, 0, 1, 2]
        assert _rewrite(seq, 1, 2, 5) == [(None, 0), (0, None)]
        assert seq == [5, 0, 5]

    def test_left_ids_that_no_right_id_follows(self):
        seq = [1, 0, 1, 2, 1, 3, 1]
        assert _rewrite(seq, 1, 2, 5) == [(0, 1)]
        assert seq == [1, 0, 5, 1, 3, 1]
        seq = [1, 0, 1]
        assert _rewrite(seq, 1, 2, 5) == []
        assert seq == [1, 0, 1]

    @pytest.mark.parametrize("seq", [[], [0], [0, 2, 3, 2]])
    def test_a_sequence_without_the_left_id(self, seq):
        before = list(seq)
        assert _rewrite(seq, 1, 2, 5) == []
        assert seq == before


class TestBpeCodec:
    def test_encode_decode_single_merge(self):
        vocab = BpeVocab(10, ((7, 8, 10),))
        assert bpe_encode(vocab, [7, 8, 9]) == (10, 9)
        assert bpe_decode(vocab, [10, 9]) == (7, 8, 9)

    def test_roundtrip_example(self):
        vocab = bpe_train([[7, 8, 7, 8, 9]], 1, 10)
        x = (7, 8, 7, 8, 9)
        assert bpe_decode(vocab, bpe_encode(vocab, x)) == x

    def test_empty_vocab_encode_is_identity(self):
        vocab = BpeVocab(5)
        assert bpe_encode(vocab, [3, 1, 4]) == (3, 1, 4)

    def test_decode_rejects_unknown_id(self):
        vocab = BpeVocab(10, ((7, 8, 10),))
        with pytest.raises(ValidationError):
            bpe_decode(vocab, [11])

    @pytest.mark.parametrize("tokens, message", [
        ([4.9, True], "expected an integer, got 4.9"),
        ([10, True], "expected an integer, got true"),
        (range(3), "expected a list"),
        ([10.0, -1], "unknown id -1 for a vocab of size 11"),
    ])
    def test_decode_reads_ids_as_json_ids_are(self, tokens, message):
        vocab = BpeVocab(10, ((7, 8, 10),))
        assert bpe_decode(vocab, [10.0, 9]) == (7, 8, 9)
        with pytest.raises(ValidationError) as exc:
            bpe_decode(vocab, tokens)
        assert str(exc.value) == message

    def test_encode_rejects_raw_id_at_or_past_alphabet(self):
        vocab = BpeVocab(10, ((7, 8, 10),))
        with pytest.raises(ValidationError):
            bpe_encode(vocab, [10])

    def test_encode_rejects_negative_raw_id(self):
        with pytest.raises(ValidationError, match=r"^raw unit id -3 outside alphabet \[0, 10\)$"):
            bpe_encode(BpeVocab(10, ((7, 8, 10),)), [7, -3])

    def test_vocab_json_roundtrip(self):
        vocab = bpe_train([[1, 2, 3, 1, 2, 3, 1, 2]], 3, 6)
        assert BpeVocab.from_json(vocab.to_json()) == vocab

    @pytest.mark.parametrize("data", [{"base_alphabet_size": 4}, {"base_alphabet_size": 4, "merges": None}])
    def test_vocab_json_without_merges_has_none(self, data):
        assert BpeVocab.from_dict(data) == BpeVocab(4)

    def test_vocab_rejects_bad_merge_ids(self):
        with pytest.raises(ValidationError):
            BpeVocab(4, ((1, 9, 4),))
        with pytest.raises(ValidationError):
            BpeVocab(4, ((1, 2, 7),))

    @pytest.mark.parametrize("merges, message", [
        (((0.9, 1.2, 3.7),), "merges: expected an integer, got 0.9"),
        (((0, True, 3),), "merges: expected an integer, got true"),
        (((0, 1),), "merges: entry 0 is not a [left, right, new] triple"),
        ((range(3),), "merges: expected a list"),
        (((5, 1, 3),), "merge (5,1)->3 references unknown ids"),
    ])
    def test_vocab_merges_are_read_as_json_merges_are(self, merges, message):
        assert BpeVocab(3, merges=[[0, 1.0, 3]]).merges == ((0, 1, 3),)
        with pytest.raises(ValidationError) as exc:
            BpeVocab(3, merges=merges)
        assert str(exc.value) == message

    @settings(max_examples=200, deadline=None)
    @given(
        data=st.data(),
        xs=st.lists(st.integers(min_value=0, max_value=11), max_size=50),
    )
    def test_roundtrip_law(self, data, xs):
        corpus_raw = data.draw(
            st.lists(
                st.lists(st.integers(min_value=0, max_value=11), max_size=30),
                max_size=8,
            )
        )
        n_merges = data.draw(st.integers(min_value=0, max_value=10))
        vocab = bpe_train([dedup(s) for s in corpus_raw], n_merges, 12)
        deduped = dedup(xs)
        encoded = bpe_encode(vocab, deduped)
        assert len(encoded) <= len(deduped)
        assert bpe_decode(vocab, encoded) == deduped


class TestUnitErrorRate:
    def test_identical_is_zero(self):
        assert unit_error_rate([1, 2, 3], [1, 2, 3]) == 0.0

    def test_single_deletion(self):
        assert unit_error_rate([1, 2, 3, 4], [1, 3, 4]) == 0.25

    def test_may_exceed_one(self):
        assert unit_error_rate([1, 2], [3, 4, 5]) == 1.5

    def test_empty_reference_rejected(self):
        with pytest.raises(ValidationError):
            unit_error_rate([], [1])

    def test_empty_hypothesis(self):
        assert unit_error_rate([1, 2, 3], []) == 1.0

    @given(raw_seqs)
    def test_self_distance_zero(self, xs):
        if xs:
            assert unit_error_rate(xs, xs) == 0.0

    def test_matches_recursive_oracle_randomized(self, rng):
        for _ in range(150):
            a = rng.integers(0, 5, size=rng.integers(1, 12)).tolist()
            b = rng.integers(0, 5, size=rng.integers(0, 12)).tolist()
            expected = recursive_levenshtein(a, b) / len(a)
            assert unit_error_rate(a, b) == expected


# alphabets of 1 to 6 ids: merged ids soon form runs such as N N N, whose
# (N, N) pairs overlap, and many pairs tie on their count
small_corpora = st.integers(min_value=1, max_value=6).flatmap(
    lambda k: st.tuples(
        st.just(k),
        st.lists(st.lists(st.integers(0, k - 1), max_size=30).map(dedup), max_size=8),
        st.lists(st.lists(st.integers(0, k - 1), max_size=40).map(dedup), max_size=4),
    )
)


class TestBpeOracleEquivalence:
    """Incremental training and lowest-rank-first encoding against the
    pass-per-merge code they replaced: equal vocabs and token tuples."""

    @settings(max_examples=250, deadline=None, derandomize=True)
    @given(small_corpora, st.integers(min_value=0, max_value=25))
    def test_small_alphabets(self, case, num_merges):
        k, corpus, unseen = case
        vocab = bpe_train(corpus, num_merges, k)
        assert vocab == pass_per_merge_bpe_train(corpus, num_merges, k)
        for seq in corpus + unseen:
            assert bpe_encode(vocab, seq) == pass_per_merge_bpe_encode(vocab, seq)

    @pytest.mark.parametrize("corpus,num_merges", [
        ([], 3),                                   # the empty corpus
        ([[], [0], [1]], 3),                       # sequences of length 0 and 1
        ([[0, 1, 0, 1, 0, 1, 0, 1, 0]], 4),        # (0, 1) -> 4 leaves 4 4 4 4 0
        ([[1, 2, 3, 1, 2, 3], [3, 1]], 5),         # ties on every count
        ([[0, 1, 2, 0, 1, 2, 0, 1], [2, 0, 2, 1]], 1000),  # stops long before 1000
        # (0, 3) -> 4 takes (3, 1) from 3 to 2, a tie with the smaller (1, 2):
        # the stale entry for (3, 1) at 3 sits on top of the count heap
        ([[0, 3, 1], [0, 3, 2], [0, 3], [0, 3], [3, 1], [3, 1], [1, 2], [1, 2]], 5),
        # (0, 1) -> 4 takes (1, 2) from 3 to 2: its entry on top at 3 is
        # re-keyed to 2 and merged, not dropped
        ([[0, 1], [0, 1], [0, 1], [0, 1, 2], [1, 2], [1, 2]], 3),
        # (0, 1) -> 4 creates (4, 4) and (4, 2) once each: neither is merged
        ([[0, 1, 0, 1, 2]], 3),
        # (1, 2) and (2, 0) tie at 2: the smaller pair by its left id goes
        # first, though its right id is the larger
        ([[1, 2], [1, 2], [2, 0], [2, 0]], 3),
    ])
    def test_edge_corpora(self, corpus, num_merges):
        vocab = bpe_train(corpus, num_merges, 4)
        assert vocab == pass_per_merge_bpe_train(corpus, num_merges, 4)
        assert len(vocab.merges) < num_merges
        for seq in corpus:
            assert bpe_encode(vocab, seq) == pass_per_merge_bpe_encode(vocab, seq)

    def test_larger_corpus_and_foreign_sequences(self, rng):
        def corpus(n):
            return [dedup(rng.integers(0, 40, size=rng.integers(0, 80)).tolist()) for _ in range(n)]

        train, other = corpus(120), corpus(60)
        vocab = bpe_train(train, 150, 40)
        assert vocab == pass_per_merge_bpe_train(train, 150, 40)
        assert len(vocab.merges) == 150
        for seq in train + other:
            assert bpe_encode(vocab, seq) == pass_per_merge_bpe_encode(vocab, seq)

    def test_workload_scale_corpus(self, rng):
        # alphabet 500, 200 merges, 270 sequences of mean length about 30 with
        # id frequencies falling as 1/rank: most rounds tie on the top count
        weights = 1.0 / np.arange(1, 501)
        corpus = [
            list(dedup(rng.choice(500, size=rng.integers(5, 58), p=weights / weights.sum()).tolist()))
            for _ in range(270)
        ]
        vocab = bpe_train(corpus, 200, 500)
        assert vocab == pass_per_merge_bpe_train(corpus, 200, 500)
        assert len(vocab.merges) == 200
        for seq in corpus:
            assert bpe_encode(vocab, seq) == pass_per_merge_bpe_encode(vocab, seq)

    def test_long_sequences_under_a_workload_scale_vocab(self, rng):
        # sequences of about 5000 ids, far past the workload's 30, encoded
        # with the vocab of test_workload_scale_corpus's kind of corpus
        weights = 1.0 / np.arange(1, 501)
        p = weights / weights.sum()
        corpus = [list(dedup(rng.choice(500, size=rng.integers(5, 58), p=p).tolist())) for _ in range(270)]
        vocab = bpe_train(corpus, 200, 500)
        assert len(vocab.merges) == 200
        for _ in range(3):
            seq = dedup(rng.choice(500, size=5500, p=p).tolist())
            assert len(seq) > 4500
            assert bpe_encode(vocab, seq) == pass_per_merge_bpe_encode(vocab, seq)

    def test_hand_vocabs(self):
        # a pair merged twice (the second never applies), a merge of two
        # merged ids, and merges of pairs the sequence does not hold
        vocabs = [
            BpeVocab(4, ((1, 2, 4), (1, 2, 5), (4, 4, 6), (0, 3, 7))),
            BpeVocab(4, ((2, 1, 4), (4, 2, 5), (1, 5, 6), (6, 4, 7), (3, 3, 8))),
        ]
        seqs = [(), (1,), (1, 2, 1, 2, 1, 2), (2, 1, 2, 1, 2, 1, 2, 0, 3), (0, 3, 0, 3)]
        for vocab in vocabs:
            for seq in seqs:
                assert bpe_encode(vocab, seq) == pass_per_merge_bpe_encode(vocab, seq)
        assert bpe_encode(vocabs[0], (1, 2, 1, 2, 1, 2)) == (6, 4)

    def test_negative_num_merges_rejected(self):
        with pytest.raises(ValidationError, match="num_merges must be >= 0"):
            bpe_train([[1, 2]], -1, 4)

    def test_vocab_rejects_empty_alphabet(self):
        with pytest.raises(ValidationError, match="base alphabet size must be positive"):
            BpeVocab(0)
