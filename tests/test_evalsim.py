"""Tests for embedding loading, neighbour ranking, and correlation."""

from __future__ import annotations

import math
import tracemalloc
from unittest.mock import patch

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from spellvar import evalsim
from spellvar.cli import main
from spellvar.corpus import VariantPair, read_word_list
from spellvar.evalsim import (
    MISS_REASONS,
    RANK_CELLS,
    EmbeddingFormatError,
    evaluate_pairs,
    load_embeddings,
    make_table,
    pearson,
    rank_of_formal,
)


#: Component spellings that NumPy and ``float()`` both read: each spelling of
#: ``test_values_match_float_per_token`` but ``1_000``.
PLAIN = ["0.1", "-2.5", "1.000", "3.140000e+00", "-7", "2.5E-3", "0", "+4."]
#: Spellings only ``float()`` reads, ones neither reads (``1#2`` would read as
#: 1 if ``#`` started a comment), and non-finite ones.
ODD = ["1_000", "\uff12", "nan(1)", "x", "1,5", "1#2", "inf", "-Infinity", "nan", "1e999"]
#: Every ASCII whitespace character ``str.split()`` splits at but a line break.
SEPARATORS = [" ", "\t", "\x0b", "\x0c", "\x1c", "\x1d", "\x1e", "\x1f", "  "]


@st.composite
def embedding_files(draw):
    """Text of an embedding table, clean or with one flaw."""
    width = draw(st.integers(1, 3))
    words = draw(st.lists(st.sampled_from(["a", "b", "c", "1", "7", "x\u00e9"]),
                          min_size=1, max_size=5))
    rows = [draw(st.lists(st.sampled_from(PLAIN), min_size=width, max_size=width))
            for _ in words]
    seps = [draw(st.lists(st.sampled_from(SEPARATORS), min_size=width + 1,
                          max_size=width + 1)) for _ in words]
    at = draw(st.integers(0, len(words) - 1))
    flaw = draw(st.sampled_from(["none", "none", "none", "odd", "nbsp", "short", "long",
                                 "word-only"]))
    if flaw == "odd":
        rows[at][-1] = draw(st.sampled_from(ODD))
    elif flaw == "nbsp":
        seps[at][0] = "\xa0"
    elif flaw == "short":
        rows[at].pop()
    elif flaw == "long":
        rows[at].append("1")
        seps[at].append(" ")
    elif flaw == "word-only":
        rows[at] = []
    lines = [word + "".join(sep + c for sep, c in zip(gaps, row)) + gaps[-1]
             for word, row, gaps in zip(words, rows, seps)]
    header = draw(st.sampled_from(["none", "right", "count", "dimension"]))
    if header != "none":
        count = len(words) + (header == "count")
        lines.insert(0, f"{count} {width + (header == 'dimension')}")
    for _ in range(draw(st.integers(0, 2))):
        lines.insert(draw(st.integers(0, len(lines))), draw(st.sampled_from(["", " ", "\t"])))
    return draw(st.sampled_from(["\n", "\r\n"])).join(lines) + "\n"


def write_embeddings(tmp_path, text, name="vectors.txt"):
    path = tmp_path / name
    path.write_text(text, encoding="utf-8")
    return path


def load_outcome(path):
    """The loaded table's words and bits, or the message it was refused with."""
    try:
        table = load_embeddings(path)
    except EmbeddingFormatError as exc:
        return str(exc)
    return table.words, table.vectors.shape, table.vectors.tobytes(), table.norms.tobytes()


class TestLoadEmbeddings:
    def test_with_header(self, tmp_path):
        path = write_embeddings(tmp_path, "3 4\na 1 0 0 0\nb 0 1 0 0\nc 0 0 1 0\n")
        table = load_embeddings(path)
        assert len(table) == 3
        assert table.dimension == 4
        assert table.words == ("a", "b", "c")

    def test_headerless_dimension_inferred(self, tmp_path):
        path = write_embeddings(tmp_path, "a 1 0\nb 0 1\n")
        table = load_embeddings(path)
        assert table.dimension == 2
        np.testing.assert_array_equal(table.vector("b"), [0.0, 1.0])

    def test_dimension_mismatch_reports_line(self, tmp_path):
        path = write_embeddings(tmp_path, "a 1 0 0 0\nb 0 1 0\n")
        with pytest.raises(EmbeddingFormatError, match="line 2"):
            load_embeddings(path)

    def test_non_numeric_component(self, tmp_path):
        path = write_embeddings(tmp_path, "a 1 oops\n")
        with pytest.raises(EmbeddingFormatError, match="non-numeric"):
            load_embeddings(path)

    def test_duplicate_words_keep_first(self, tmp_path):
        path = write_embeddings(tmp_path, "a 1 0\na 0 1\n")
        table = load_embeddings(path)
        assert len(table) == 1
        np.testing.assert_array_equal(table.vector("a"), [1.0, 0.0])

    def test_empty_file_rejected(self, tmp_path):
        path = write_embeddings(tmp_path, "")
        with pytest.raises(EmbeddingFormatError, match="no vectors"):
            load_embeddings(path)

    def test_zero_vector_names_word(self, tmp_path):
        path = write_embeddings(tmp_path, "a 1 0\nnull 0 0\n")
        with pytest.raises(EmbeddingFormatError, match="null"):
            load_embeddings(path)

    def test_word_only_row_rejected(self, tmp_path):
        path = write_embeddings(tmp_path, "lonely\n")
        with pytest.raises(EmbeddingFormatError, match="line 1"):
            load_embeddings(path)

    @pytest.mark.parametrize("component", ["nan", "inf", "-inf"])
    def test_non_finite_vector_names_word(self, tmp_path, component):
        path = write_embeddings(tmp_path, f"a 1 0\nbroken {component} 1\n")
        with pytest.raises(EmbeddingFormatError, match="non-finite.*broken"):
            load_embeddings(path)

    @pytest.mark.parametrize("text, line", [
        # A long row right after a short one: together they hold the
        # expected count, and each must still be rejected on its own line.
        ("a 1 0 0\nb 1 0\nc 1 0 0 0\n", 2),
        ("a 1 0 0\nb 1 0 0 0\nc 1 0\n", 2),
        ("2 3\na 1 0 0\nb 1 0\n", 3),
    ])
    def test_wrong_count_names_line(self, tmp_path, text, line):
        path = write_embeddings(tmp_path, text)
        with pytest.raises(EmbeddingFormatError, match=f"{path}: line {line}: expected"):
            load_embeddings(path)

    @pytest.mark.parametrize("token", ["0x1A", "1,5", "1.5.3", "nan(1)", "1e", "--1"])
    def test_unreadable_token_names_line(self, tmp_path, token):
        path = write_embeddings(tmp_path, f"a 1 0 0\nb 0 {token} 1\n")
        with pytest.raises(EmbeddingFormatError, match=f"{path}: line 2: non-numeric"):
            load_embeddings(path)

    def test_bad_component_on_duplicate_word(self, tmp_path):
        path = write_embeddings(tmp_path, "a 1 0\nb 0 1\na 1 x\n")
        with pytest.raises(EmbeddingFormatError, match="line 3: non-numeric"):
            load_embeddings(path)

    def test_python_float_spellings_load(self, tmp_path):
        # NumPy's parser rejects these; float() accepts them, as before.
        path = write_embeddings(tmp_path, "a 1_000 0.5\nb \uff12 1\nc 1\u00a02\n")
        table = load_embeddings(path)
        np.testing.assert_array_equal(table.vectors, [[1000.0, 0.5], [2.0, 1.0], [1.0, 2.0]])

    @settings(max_examples=40, deadline=None)
    @given(st.lists(st.lists(st.tuples(
        st.floats(min_value=1e-3, max_value=1e6) | st.floats(min_value=-1e6, max_value=-1e-3),
        st.sampled_from(["repr", "fixed", "exp", "int", "int_", "upper"]),
        st.sampled_from([" ", "\t", "  ", " \t "]),
    ), min_size=3, max_size=3), min_size=1, max_size=6))
    def test_values_match_float_per_token(self, tmp_path_factory, rows):
        spell = {
            "repr": repr, "fixed": lambda x: f"{x:.3f}", "exp": lambda x: f"{x:.6e}",
            "int": lambda x: f"{int(x) or 1}", "int_": lambda x: f"{int(x) or 1:_}",
            "upper": lambda x: f"{x:.4E}",
        }
        lines = ["w%d%s" % (i, "".join(sep + spell[kind](x) for x, kind, sep in row))
                 for i, row in enumerate(rows)]
        path = tmp_path_factory.mktemp("vectors") / "vectors.txt"
        path.write_text("\n".join(lines) + "\n", encoding="utf-8")
        expected = [[float(token) for token in line.split()[1:]] for line in lines]
        got = load_embeddings(path).vectors
        assert got.tobytes() == np.array(expected).tobytes()

    @pytest.mark.parametrize("text", ["a 1 0\nb 0 1\n", "2 2\na 1 0\nb 0 1\n"])
    def test_byte_order_mark_is_dropped(self, tmp_path, text):
        path = write_embeddings(tmp_path, "\ufeff" + text)
        table = load_embeddings(path)
        assert table.words == ("a", "b")
        np.testing.assert_array_equal(table.vectors, [[1.0, 0.0], [0.0, 1.0]])

    @pytest.mark.parametrize("text, message", [
        ("5 2\na 1 0\n\nb 0 1\na 1 1\n", "header says 5 vectors, found 3"),
        ("2 2\na 1 0\n\nb 0 1\na 1 1\n", "header says 2 vectors, found 3"),
        ("1 2\n", "header says 1 vectors, found 0"),
    ])
    def test_header_count_is_checked(self, tmp_path, text, message):
        path = write_embeddings(tmp_path, text)
        with pytest.raises(EmbeddingFormatError, match=f"^{path}: line 1: {message}$"):
            load_embeddings(path)

    def test_line_errors_come_before_the_header_count(self, tmp_path):
        path = write_embeddings(tmp_path, "5 2\na 1 0\nb 0 x\n")
        with pytest.raises(EmbeddingFormatError, match="line 3: non-numeric"):
            load_embeddings(path)

    def test_plain_table_is_parsed_in_bulk(self, tmp_path):
        path = write_embeddings(tmp_path, "3 2\na 1 0.5\nb -2e-3 1\n\na 7 7\n")
        with patch.object(evalsim, "_parse_each_line", side_effect=AssertionError):
            table = load_embeddings(path)
        assert table.words == ("a", "b")
        assert table.vectors.tobytes() == np.array([[1.0, 0.5], [-2e-3, 1.0]]).tobytes()

    def test_table_the_bulk_parse_rejects_loads_line_by_line(self, tmp_path):
        path = write_embeddings(tmp_path, "a 1 0.5\nb 0 1\nc 1_000 2\n")
        with patch.object(evalsim, "_parse_each_line", wraps=evalsim._parse_each_line) as each:
            table = load_embeddings(path)
        assert each.call_count == 1
        np.testing.assert_array_equal(table.vectors, [[1.0, 0.5], [0.0, 1.0], [1000.0, 2.0]])

    def test_a_refused_block_alone_is_parsed_line_by_line(self, tmp_path):
        lines = [f"w{i} {i + 1} 0.5" for i in range(7)]
        lines[3] = "w3 1_000 0.5"
        path = write_embeddings(tmp_path, "\n".join(lines) + "\n")
        with patch.object(evalsim, "LOAD_BLOCK", 2), \
                patch.object(evalsim, "_parse_each_line", wraps=evalsim._parse_each_line) as each:
            table = load_embeddings(path)
        assert each.call_count == 1
        assert [line_no for line_no, _ in each.call_args.args[1]] == [3, 4]
        expected = [[float(token) for token in line.split()[1:]] for line in lines]
        assert table.vectors.tobytes() == np.array(expected).tobytes()

    def test_a_file_with_a_refused_block_is_read_once(self, tmp_path):
        path = write_embeddings(tmp_path, "".join(f"w{i} {i + 1} 0\n" for i in range(6))
                                + "w6 1_000 0.5\n")
        with patch.object(evalsim, "LOAD_BLOCK", 2), \
                patch.object(evalsim, "read_lines", wraps=evalsim.read_lines) as read:
            load_embeddings(path)
        assert read.call_count == 1

    def test_a_refused_block_costs_no_second_copy_of_the_table(self, tmp_path):
        # Four decimals, as in fastText's published tables.
        rows = np.random.default_rng(0).normal(size=(5000, 50))
        lines = ["5000 50", *(f"w{i} " + " ".join(f"{x:.4f}" for x in row.tolist())
                              for i, row in enumerate(rows))]
        lines[-1] = lines[-1].rsplit(" ", 1)[0] + " 1_000"
        path = write_embeddings(tmp_path, "\n".join(lines) + "\n")
        with patch.object(evalsim, "LOAD_BLOCK", 256):
            tracemalloc.start()
            try:
                table = load_embeddings(path)
                peak = tracemalloc.get_traced_memory()[1]
            finally:
                tracemalloc.stop()
        assert table.vectors[-1, -1] == 1000.0
        assert peak <= table.vectors.nbytes + 2**20

    def test_one_dict_indexes_a_loaded_table(self, tmp_path):
        path = write_embeddings(tmp_path, "5 2\na 1 0\nb 0 1\na 5 5\nc 1_000 2\nb 7 7\n")
        with patch.object(evalsim, "LOAD_BLOCK", 2), \
                patch.object(evalsim, "make_table", side_effect=AssertionError):
            table = load_embeddings(path)
        assert table.words == ("a", "b", "c")
        assert table.vectors.tobytes() == np.array([[1.0, 0.0], [0.0, 1.0],
                                                    [1000.0, 2.0]]).tobytes()
        assert table.index == {word: table.words.index(word) for word in table.words}

    @settings(max_examples=300, deadline=None)
    @given(embedding_files())
    @example("a 0.5 1#2\nb 1 2\n")
    @example("2 2\r\na 1_000 2\r\n\r\nb\x1c1\x1f2\r\n")
    @example("1 3\nw\u00e9 1\xa02 3\n")
    def test_bulk_and_per_line_paths_agree(self, tmp_path_factory, text):
        path = tmp_path_factory.mktemp("vectors") / "vectors.txt"
        path.write_bytes(text.encode("utf-8"))
        bulk = load_outcome(path)
        with patch.object(evalsim, "_parse_bulk", return_value=None):
            assert load_outcome(path) == bulk

    @settings(max_examples=200, deadline=None)
    @given(embedding_files(), st.integers(1, 3))
    @example("1 2\na 1 0\nb 0 1\nc 1 1\n", 1)
    @example("a 1 0\nb 0 1\nc 1 1\nd 1 2\ne 2 1\n", 2)
    def test_blocks_do_not_change_the_outcome(self, tmp_path_factory, text, block):
        path = tmp_path_factory.mktemp("vectors") / "vectors.txt"
        path.write_bytes(text.encode("utf-8"))
        whole = load_outcome(path)
        with patch.object(evalsim, "LOAD_BLOCK", block):
            assert load_outcome(path) == whole


def rank_oracle(table, informal, formal):
    """Full sort with optimistic tie handling.

    Each cosine is summed exactly with ``math.fsum``, so equal vectors get
    equal cosines wherever they sit in the table and always tie.
    """
    query = table.vector(informal).tolist()

    def cosine(word):
        vector = table.vector(word).tolist()
        dot = math.fsum(a * b for a, b in zip(vector, query))
        norm = math.sqrt(math.fsum(a * a for a in vector))
        return dot / (norm * math.sqrt(math.fsum(b * b for b in query)))

    cosines = {word: cosine(word) for word in table.words if word != informal}
    target = cosines[formal]
    return 1 + sum(1 for value in cosines.values() if value > target)


def random_table(rng, n_words=20, dimension=5):
    words = [f"w{i}" for i in range(n_words)]
    vectors = rng.normal(size=(n_words, dimension))
    return make_table(words, vectors)


def rank_pair(table, informal, formal):
    """``rank_of_formal`` for one pair of words, as a batch of one."""
    return int(rank_of_formal(table, np.array([table.index[informal]]),
                              np.array([table.index[formal]]))[0])


class TestRankOfFormal:
    def test_identical_vector_ranks_first(self):
        table = make_table(["inf", "frm", "x", "y"],
                           [[1, 0, 0], [1, 0, 0], [0, 1, 0], [0, 0, 1]])
        assert rank_pair(table, "inf", "frm") == 1

    def test_matches_full_sort_oracle(self):
        rng = np.random.default_rng(41)
        table = random_table(rng)
        pairs = [rng.choice(table.words, size=2, replace=False) for _ in range(50)]
        queries, formals = np.array([[table.index[w] for w in pair] for pair in pairs]).T
        assert rank_of_formal(table, queries, formals).tolist() == [
            rank_oracle(table, informal, formal) for informal, formal in pairs
        ]

    def test_scale_invariant(self):
        rng = np.random.default_rng(43)
        table = random_table(rng)
        scaled = make_table(table.words, table.vectors * 7.5)
        for _ in range(20):
            informal, formal = rng.choice(table.words, size=2, replace=False)
            assert rank_pair(table, informal, formal) == rank_pair(
                scaled, informal, formal
            )

    def test_ties_do_not_worsen_rank(self):
        table = make_table(["inf", "frm", "tie"], [[1, 0], [0, 1], [0, 2]])
        assert rank_pair(table, "inf", "frm") == 1
        assert rank_pair(table, "inf", "tie") == 1

    def test_exact_copies_tie_wherever_they_sit(self):
        # OpenBLAS's matrix-vector product gave w0 and w4 different cosines
        # here (w0 rank 5, w4 rank 6 for query w2), by their places in the
        # table alone.
        rows = np.round(np.random.default_rng(0).normal(size=(7, 24)), 3)
        rows[4] = rows[0]
        table = make_table([f"w{i}" for i in range(7)], rows)
        for query in ("w1", "w2", "w3", "w5", "w6"):
            expected = rank_oracle(table, query, "w0")
            assert rank_pair(table, query, "w0") == expected
            assert rank_pair(table, query, "w4") == expected

    def test_negative_zero_copy_ties(self):
        table = make_table(["a", "b", "q"], [[0.0, 1.0, 2.0], [-0.0, 1.0, 2.0], [1.0, 1.0, 0.0]])
        assert table.copy_groups[0] == table.copy_groups[1] != table.copy_groups[2]
        assert rank_pair(table, "q", "a") == rank_pair(table, "q", "b") == 1


def cells_for_block(rows, n_queries, table):
    """A ``RANK_CELLS`` under which ``rank_of_formal`` walks ``table`` ``rows``
    rows at a time for ``n_queries`` queries, all in one chunk."""
    return rows * (n_queries + table.dimension)


@st.composite
def tables_with_copies(draw):
    """A random table in which one row's vector is copied to several rows,
    pairs that mostly ask for one of those copies, and a ``RANK_CELLS`` that
    cuts the table into blocks of 1-5 rows or the queries into chunks."""
    n_rows = draw(st.integers(9, 40))
    dim = draw(st.integers(2, 24))
    rng = np.random.default_rng(draw(st.integers(0, 2**32 - 1)))
    rows = np.round(rng.normal(size=(n_rows, dim)), 3)
    source = draw(st.integers(0, n_rows - 1))
    # Every offset mod 8 and the last rows, which BLAS kernels handle apart
    # from full blocks.
    offset = draw(st.integers(0, 7))
    copies = sorted({*range(offset, n_rows, 8), n_rows - 1, n_rows - 2} - {source})
    if draw(st.booleans()):
        rows[source, 0] = 0.0
    rows[copies] = rows[source]
    if rows[source, 0] == 0.0:
        rows[copies[-1], 0] = -0.0
    words = [f"w{i}" for i in range(n_rows)]
    n_pairs = draw(st.integers(1, 12))
    group = [source, *copies]
    pairs = []
    for _ in range(n_pairs):
        formal = rng.choice(group) if rng.random() < 0.6 else rng.integers(n_rows)
        informal = (formal + rng.integers(1, n_rows)) % n_rows
        pairs.append(VariantPair(informal=words[informal], formal=words[formal],
                                 score=1.0, method="baseline"))
    table = make_table(words, rows)
    # Blocks end mid-table and chunks mid-list, so copies fall on either side
    # of a block edge and queries with copied formals on either side of a
    # chunk edge.
    if n_pairs > 1 and draw(st.booleans()):
        cells = draw(st.integers(1, n_pairs - 1)) + dim
    else:
        cells = cells_for_block(draw(st.integers(1, 5)), n_pairs, table)
    return table, pairs, cells


def rank_table_with_copies(seed, n_rows=200, dim=20, n_queries=300):
    """A table of rounded rows in which a few rows are copied many times, and
    queries that mostly ask for a copied row."""
    rng = np.random.default_rng(seed)
    rows = np.round(rng.normal(size=(n_rows, dim)), 3)
    for source in range(5):
        rows[rng.choice(np.arange(5, n_rows), size=7, replace=False)] = rows[source]
    table = make_table([f"w{i}" for i in range(n_rows)], rows)
    formals = np.where(rng.random(n_queries) < 0.5, rng.integers(5, size=n_queries),
                       rng.integers(n_rows, size=n_queries))
    queries = (formals + rng.integers(1, n_rows, size=n_queries)) % n_rows
    return table, queries, formals


class TestBatchedRanking:
    @settings(max_examples=50, deadline=None)
    @given(tables_with_copies())
    def test_matches_oracle_with_exact_copies(self, case):
        table, pairs, cells = case
        with patch.object(evalsim, "RANK_CELLS", cells):
            report = evaluate_pairs(table, pairs, frozenset(table.words), ks=(1,))
            for pair, outcome in zip(pairs, report.per_pair):
                expected = rank_oracle(table, pair.informal, pair.formal)
                assert outcome.rank == expected
                assert rank_pair(table, pair.informal, pair.formal) == expected

    def test_matches_per_pair_ranks_across_blocks(self):
        rng = np.random.default_rng(61)
        table = random_table(rng, n_words=50, dimension=6)
        pairs = [
            VariantPair(informal=f"w{a}", formal=f"w{b}", score=1.0, method="baseline")
            for a, b in rng.integers(50, size=(199, 2))
            if a != b
        ]
        per_pair = [rank_pair(table, p.informal, p.formal) for p in pairs]
        caps = [cells_for_block(rows, len(pairs), table) for rows in range(1, 6)]
        # One row at a time against chunks of 64 and of 1 query.
        caps += [64 + table.dimension, 1]
        for cells in caps:
            with patch.object(evalsim, "RANK_CELLS", cells):
                report = evaluate_pairs(table, pairs, frozenset(table.words), ks=(1,))
            assert [o.rank for o in report.per_pair] == per_pair

    @pytest.mark.parametrize("seed", [0, 1, 2])
    def test_ranks_do_not_depend_on_the_block_size(self, seed):
        table, queries, formals = rank_table_with_copies(seed)
        ranks = rank_of_formal(table, queries, formals)
        for rows in (1, 7):
            with patch.object(evalsim, "RANK_CELLS",
                              cells_for_block(rows, len(queries), table)):
                assert rank_of_formal(table, queries, formals).tolist() == ranks.tolist()


def traced_peak(call):
    """Bytes allocated at the peak of ``call()`` beyond what was held before."""
    tracemalloc.start()
    try:
        call()
        return tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()


class TestMemory:
    def test_ranking_peak_is_bounded_by_the_product_cap(self):
        n_rows, dim, n_queries = 5000, 50, 3000
        rng = np.random.default_rng(5)
        table = random_table(rng, n_words=n_rows, dimension=dim)
        queries = rng.integers(n_rows, size=n_queries)
        formals = (queries + rng.integers(1, n_rows, size=n_queries)) % n_rows
        peak = traced_peak(lambda: rank_of_formal(table, queries, formals))
        # A float64 product and its boolean comparison, 9 bytes a cell, plus
        # arrays sized by the queries (their vectors, the formals' unit rows,
        # indices and counts) and by the rows (norm order and copy groups).
        bound = RANK_CELLS * 9 + n_queries * (3 * dim * 8 + 128) + n_rows * 64
        assert peak <= bound
        # The whole product would be far larger.
        assert n_queries * n_rows * 8 > 8 * bound

    def test_duplicate_words_do_not_copy_the_table(self, tmp_path):
        rng = np.random.default_rng(7)
        rows = [" ".join(f"{x:.3f}" for x in row) for row in rng.normal(size=(20000, 20))]
        lines = [f"w{i} {row}" for i, row in enumerate(rows)]
        plain = write_embeddings(tmp_path, "\n".join(lines) + "\n", "plain.txt")
        # The first row's word again at the end: the table keeps its first vector.
        repeated = write_embeddings(tmp_path, "\n".join([*lines, f"w0 {rows[1]}"]) + "\n",
                                    "repeated.txt")
        table = load_embeddings(repeated)
        assert table.vectors.tobytes() == load_embeddings(plain).vectors.tobytes()
        # Small blocks, so that the array, not a block's text, sets the peak.
        with patch.object(evalsim, "LOAD_BLOCK", 512):
            peaks = [traced_peak(lambda: load_embeddings(path)) for path in (plain, repeated)]
        assert peaks[1] < peaks[0] + table.vectors.nbytes // 4

    def test_header_count_does_not_size_the_array(self, tmp_path, capsys):
        path = write_embeddings(tmp_path, "1000000000 3\na 1 0 0\nb 0 1 0\n")
        peak = traced_peak(lambda: pytest.raises(EmbeddingFormatError, load_embeddings, path))
        assert peak < 1 << 20
        pairs = tmp_path / "pairs.tsv"
        pairs.write_text("informal\tformal\tscore\tmethod\torigin\tentry_id\n"
                         "a\tb\t1.0\tbaseline\tr\te1\n", encoding="utf-8")
        vocab = tmp_path / "vocab.txt"
        vocab.write_text("b\n", encoding="utf-8")
        code = main(["eval", "--pairs", str(pairs), "--embeddings", str(path),
                     "--formal-vocab", str(vocab), "--out", str(tmp_path / "out")])
        assert code == 2
        assert capsys.readouterr().err == (
            f"error: {path}: line 1: header says 1000000000 vectors, found 2\n")


def planted_pairs(n=20):
    return [
        VariantPair(informal=f"inf{i}", formal=f"frm{i}", score=1.0, method="baseline")
        for i in range(n)
    ]


def planted_table(n=20, n_background=60):
    """Each informal vector equals its formal vector; the rest point elsewhere."""
    rng = np.random.default_rng(47)
    words, rows = [], []
    for i in range(n):
        direction = rng.normal(size=8)
        words.extend([f"inf{i}", f"frm{i}"])
        rows.extend([direction, direction.copy()])
    for i in range(n_background):
        words.append(f"bg{i}")
        rows.append(rng.normal(size=8))
    return make_table(words, np.array(rows))


class TestEvaluatePairs:
    def test_mutual_nearest_neighbours_hit_at_one(self):
        table = planted_table()
        vocab = frozenset(f"frm{i}" for i in range(20))
        report = evaluate_pairs(table, planted_pairs(), vocab, ks=(1, 20))
        assert report.matched_pairs == 20
        assert report.accuracy[1] == 1.0

    def test_huge_k_always_hits(self):
        table = planted_table(n=5, n_background=10)
        vocab = frozenset(f"frm{i}" for i in range(5))
        report = evaluate_pairs(table, planted_pairs(5), vocab, ks=(len(table) - 1,))
        assert report.accuracy[len(table) - 1] == 1.0

    def test_accuracy_monotone_in_k(self):
        rng = np.random.default_rng(53)
        table = random_table(rng, n_words=40)
        pairs = [
            VariantPair(informal=f"w{2 * i}", formal=f"w{2 * i + 1}",
                        score=1.0, method="baseline")
            for i in range(20)
        ]
        vocab = frozenset(table.words)
        report = evaluate_pairs(table, pairs, vocab, ks=(1, 5, 10, 39))
        values = [report.accuracy[k] for k in (1, 5, 10, 39)]
        assert values == sorted(values)
        assert report.accuracy[39] == 1.0

    def test_vocab_filter_records_miss(self):
        table = planted_table(n=2, n_background=4)
        pairs = planted_pairs(2)
        vocab = frozenset({"frm0"})
        report = evaluate_pairs(table, pairs, vocab, ks=(1,))
        assert report.matched_pairs == 1
        missed = [o for o in report.per_pair if o.miss]
        assert [o.miss for o in missed] == ["formal-not-in-vocab"]

    def test_words_absent_from_table_record_roles(self):
        table = make_table(["inf0", "frm0"], [[1, 0], [1, 0]])
        pairs = [
            VariantPair(informal="inf0", formal="frm0", score=1.0, method="baseline"),
            VariantPair(informal="ghost", formal="frm0", score=1.0, method="baseline"),
            VariantPair(informal="inf0", formal="phantom", score=1.0, method="baseline"),
        ]
        vocab = frozenset({"frm0", "phantom"})
        report = evaluate_pairs(table, pairs, vocab, ks=(1,))
        assert report.matched_pairs == 1
        assert [o.miss for o in report.per_pair] == [
            None, "informal-not-in-table", "formal-not-in-table",
        ]

    def test_no_evaluable_pairs_rejected(self):
        table = planted_table(n=2, n_background=2)
        with pytest.raises(ValueError, match="no evaluable pairs"):
            evaluate_pairs(table, planted_pairs(2), frozenset(), ks=(1,))

    def test_lookup_is_case_folded(self):
        table = make_table(["inf0", "frm0", "bg"], [[1, 0], [1, 0], [0, 1]])
        pairs = [VariantPair(informal="Inf0", formal="FRM0", score=1.0, method="baseline")]
        report = evaluate_pairs(table, pairs, frozenset({"frm0"}), ks=(1,))
        assert report.accuracy[1] == 1.0

    def test_bad_cutoff_rejected(self):
        table = planted_table(n=2, n_background=2)
        with pytest.raises(ValueError, match="cutoffs"):
            evaluate_pairs(table, planted_pairs(2), frozenset({"frm0"}), ks=(0,))

    def test_miss_counts_by_reason(self):
        table = make_table(["inf0", "frm0"], [[1, 0], [1, 0]])
        pairs = [
            VariantPair(informal=i, formal=f, score=1.0, method="baseline")
            for i, f in [("inf0", "frm0"), ("ghost", "frm0"), ("inf0", "phantom"),
                         ("inf0", "other"), ("ghost", "phantom")]
        ]
        report = evaluate_pairs(table, pairs, frozenset({"frm0", "phantom"}), ks=(1,))
        assert report.miss_counts() == {
            "formal-not-in-vocab": 1, "informal-not-in-table": 2, "formal-not-in-table": 1,
        }
        assert list(report.miss_counts()) == list(MISS_REASONS)

    def test_hits_match_ranks(self):
        rng = np.random.default_rng(59)
        table = random_table(rng, n_words=30)
        pairs = [
            VariantPair(informal=f"w{i}", formal=f"w{i + 15}", score=1.0, method="baseline")
            for i in range(15)
        ]
        report = evaluate_pairs(table, pairs, frozenset(table.words), ks=(5,))
        expected = sum(1 for o in report.per_pair if o.rank is not None and o.rank <= 5)
        assert report.hits[5] == expected


class TestLoadVocab:
    def test_basic(self, tmp_path):
        path = tmp_path / "vocab.txt"
        path.write_text("Mate\nyes\n\nmate\n", encoding="utf-8")
        assert read_word_list(path) == frozenset({"mate", "yes"})

    def test_comment_lines_skipped(self, tmp_path):
        path = tmp_path / "vocab.txt"
        path.write_text("# formal words\nmate\n  # indented comment\nyes\n", encoding="utf-8")
        assert read_word_list(path) == frozenset({"mate", "yes"})


class TestPearson:
    def test_hand_computed_example(self):
        assert pearson([1, 2, 3, 4], [1, 3, 2, 4]) == pytest.approx(0.8, abs=1e-12)

    def test_perfect_positive(self):
        xs = [1.0, 2.0, 5.0, 9.0]
        assert pearson(xs, [2 * x + 1 for x in xs]) == pytest.approx(1.0, abs=1e-12)

    def test_perfect_negative(self):
        xs = [1.0, 2.0, 5.0, 9.0]
        assert pearson(xs, [-x for x in xs]) == pytest.approx(-1.0, abs=1e-12)

    def test_length_mismatch(self):
        with pytest.raises(ValueError, match="length mismatch"):
            pearson([1, 2], [1, 2, 3])

    def test_too_short(self):
        with pytest.raises(ValueError, match="two points"):
            pearson([1], [2])

    def test_constant_input(self):
        with pytest.raises(ValueError, match="variance"):
            pearson([3, 3, 3], [1, 2, 3])

    @pytest.mark.parametrize("bad", [float("nan"), float("inf"), float("-inf")])
    def test_non_finite_input(self, bad):
        with pytest.raises(ValueError, match="non-finite"):
            pearson([bad, 0.5, -2.0], [0.1, 0.3, 0.2])
        with pytest.raises(ValueError, match="non-finite"):
            pearson([0.1, 0.3, 0.2], [0.5, bad, -2.0])

    @pytest.mark.parametrize("xs", [[1e308, -1e308, 1e308], [1e200, -1e200, 0.0]])
    def test_overflowing_input(self, xs):
        with pytest.raises(ValueError, match="too large"):
            pearson(xs, [0.1, 0.3, 0.2])

    @given(
        st.lists(
            st.floats(min_value=-100, max_value=100, allow_nan=False),
            min_size=3,
            max_size=12,
        ),
        st.lists(
            st.floats(min_value=-100, max_value=100, allow_nan=False),
            min_size=3,
            max_size=12,
        ),
    )
    def test_symmetric_and_bounded(self, xs, ys):
        n = min(len(xs), len(ys))
        xs, ys = xs[:n], ys[:n]
        try:
            r = pearson(xs, ys)
        except ValueError:
            return
        assert -1.0 - 1e-9 <= r <= 1.0 + 1e-9
        assert pearson(ys, xs) == pytest.approx(r, abs=1e-12)

    def test_tiny_variance_stays_bounded(self):
        r = pearson([0.0, 0.0, 0.0625], [0.0, 0.0, 4.8751452963321565e-157])
        assert r <= 1.0
        assert r == pytest.approx(1.0, abs=1e-12)

    def test_underflowing_variance_product(self):
        tiny = [0.0, 0.0, 4.8751452963321565e-157]
        r = pearson(tiny, tiny)
        assert r <= 1.0
        assert r == pytest.approx(1.0, abs=1e-12)

    def test_affine_invariance(self):
        xs = [1.0, 4.0, 2.0, 8.0]
        ys = [3.0, 1.0, 7.0, 2.0]
        base = pearson(xs, ys)
        assert pearson([2.5 * x + 3 for x in xs], ys) == pytest.approx(base, abs=1e-12)
