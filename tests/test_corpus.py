import json

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from vulnfuse.corpus import (
    Contract,
    Dataset,
    check_disjoint,
    decode_strings,
    encode_strings,
    ingest,
    load_taxonomy,
    preprocess,
    read_ids,
    read_labels,
    strip_comments,
)
from vulnfuse.errors import EmptyContract, ParseError, SchemaError


def oracle_strip_comments(raw):
    """Character-at-a-time state machine that `strip_comments` must equal."""
    out = []
    i, n = 0, len(raw)
    state = "code"  # code | line | block | string
    quote = ""
    while i < n:
        ch = raw[i]
        nxt = raw[i + 1] if i + 1 < n else ""
        if state == "code":
            if ch == "/" and nxt == "/":
                state = "line"
                i += 2
            elif ch == "/" and nxt == "*":
                state = "block"
                i += 2
            elif ch in ("'", '"'):
                state = "string"
                quote = ch
                out.append(ch)
                i += 1
            else:
                out.append(ch)
                i += 1
        elif state == "line":
            if ch == "\n":
                state = "code"
                out.append(ch)
            i += 1
        elif state == "block":
            if ch == "*" and nxt == "/":
                state = "code"
                i += 2
            else:
                if ch == "\n":
                    out.append(ch)
                i += 1
        else:  # string
            if ch == "\\" and nxt:
                out.append(ch)
                out.append(nxt)
                i += 2
            elif ch == quote:
                state = "code"
                out.append(ch)
                i += 1
            elif ch == "\n":
                state = "code"
                out.append(ch)
                i += 1
            else:
                out.append(ch)
                i += 1
    return "".join(out)


# the characters that steer comment and literal boundaries, plus filler
SOURCE_TEXT = st.text(alphabet="/*\"'\\\nax ", max_size=40)


class TestStripCommentsProperties:
    @settings(max_examples=2000, deadline=None)
    @given(SOURCE_TEXT)
    @example('"a \\" b // c" /* d\n*/ e // f\n\'/*\'')
    @example("/*/ x */ '\\")
    def test_matches_state_machine(self, raw):
        assert strip_comments(raw) == oracle_strip_comments(raw)

    @settings(max_examples=1000, deadline=None)
    @given(SOURCE_TEXT)
    @example('"\\ \n"//"')
    @example('"a\\\n\nb"//x"')
    def test_preprocess_idempotent(self, raw):
        try:
            once = preprocess(raw)
        except EmptyContract:
            return
        assert preprocess(once) == once

    @settings(max_examples=500, deadline=None)
    @given(quote=st.sampled_from("\"'"),
           before=st.text(alphabet="/*ax ", max_size=10),
           marker=st.sampled_from(["//", "/*", "*/"]),
           after=st.text(alphabet="/*ax ", max_size=10))
    def test_comment_markers_in_literals_kept(self, quote, before, marker, after):
        src = f"s = {quote}{before}{marker}{after}{quote};"
        assert preprocess(src) == src


class TestPreprocess:
    def test_strips_line_comment(self):
        assert preprocess("a; // note\nb;") == "a;\nb;"

    def test_empty_source_raises(self):
        with pytest.raises(EmptyContract):
            preprocess("")

    def test_comment_only_source_raises(self):
        with pytest.raises(EmptyContract):
            preprocess("// nothing\n/* here */\n   \n")

    def test_string_literal_protected(self):
        src = 'x = "// not a comment";'
        assert preprocess(src) == src

    def test_single_quote_literal_protected(self):
        src = "y = '/* keep */';"
        assert preprocess(src) == src

    def test_escaped_quote_inside_string(self):
        src = 'z = "a \\" b // c";'
        assert preprocess(src) == src

    def test_block_comment_removed(self):
        assert preprocess("a /* gone */ b;") == "a  b;"

    def test_multiline_block_comment(self):
        assert preprocess("a;\n/* one\ntwo\nthree */\nb;") == "a;\nb;"

    def test_blank_line_runs_removed(self):
        assert preprocess("a;\n\n\n\nb;\n\n") == "a;\nb;"

    def test_per_line_whitespace_stripped(self):
        assert preprocess("   a;   \n\t b; \t") == "a;\nb;"

    @pytest.mark.parametrize("src", [
        "a; // note\nb;",
        "contract C {\n  function f() public {}\n}",
        'x = "// s";\n/* b */ y;\n\n\nz;',
        "   spaced   \n\n mixed // tail",
    ])
    def test_idempotent(self, src):
        once = preprocess(src)
        assert preprocess(once) == once


class TestReadIds:
    def test_ids_in_file_order_without_preprocessing(self, tmp_path):
        data = tmp_path / "data.jsonl"
        data.write_text('{"id": "b", "source": "// only a comment"}\n\n'
                        '{"id": "a", "source": "x;"}\n')
        assert read_ids(data) == ("b", "a")

    def test_malformed_line_reports_index(self, tmp_path):
        data = tmp_path / "data.jsonl"
        data.write_text('{"id": "a", "source": "x;"}\n{"id": "b"}\n')
        with pytest.raises(ParseError) as err:
            read_ids(data)
        assert err.value.record_index == 1

    def test_duplicate_id(self, tmp_path):
        data = tmp_path / "data.jsonl"
        data.write_text('{"id": "a", "source": "x;"}\n{"id": "a", "source": "y;"}\n')
        with pytest.raises(SchemaError):
            read_ids(data)


class TestIngest:
    def _write(self, tmp_path, records, taxonomy):
        data = tmp_path / "data.jsonl"
        with open(data, "w") as fh:
            for r in records:
                fh.write(json.dumps(r) + "\n")
        tax = tmp_path / "taxonomy.json"
        tax.write_text(json.dumps(list(taxonomy)))
        return data, tax

    def test_two_records(self, tmp_path, taxonomy5):
        data, tax = self._write(tmp_path, [
            {"id": "a", "source": "contract A { }", "labels": [1, 0, 1, 0, 0]},
            {"id": "b", "source": "contract B { }", "labels": [0, 0, 0, 0, 0]},
        ], taxonomy5)
        ds = ingest(data, load_taxonomy(tax))
        assert len(ds) == 2
        assert ds.contracts[0].labels == (1, 0, 1, 0, 0)

    def test_label_length_mismatch(self, tmp_path, taxonomy5):
        data, tax = self._write(tmp_path, [
            {"id": "a", "source": "contract A { }", "labels": [1, 0, 1, 0]},
        ], taxonomy5)
        with pytest.raises(SchemaError):
            ingest(data, load_taxonomy(tax))

    @pytest.mark.parametrize("labels", [
        [0, 2, 1, 0, 0],
        [-1, 0, 0, 0, 0],
        [0.7, 1, 0, 0, 0],   # int() would truncate these two to 0 and 1
        [1.9, 0, 0, 0, 0],
        [1.0, 0, 0, 0, 0],
        ["1", 0, 0, 0, 0],
        [True, False, False, False, False],
        [[1], 0, 0, 0, 0],
        "abcde",             # as long as the taxonomy
        {"a": 1, "b": 0, "c": 0, "d": 0, "e": 0},
        1,
    ])
    @pytest.mark.parametrize("read", [ingest, read_labels])
    def test_labels_must_be_integers_0_or_1(self, tmp_path, taxonomy5, labels, read):
        data, _ = self._write(tmp_path, [
            {"id": "a", "source": "x;", "labels": [0, 0, 0, 0, 1]},
            {"id": "b", "source": "y;", "labels": labels},
        ], taxonomy5)
        with pytest.raises(SchemaError, match=r"record 1 \('b'\): labels must be"):
            read(data, taxonomy5)

    def test_read_labels_by_id(self, tmp_path, taxonomy5):
        data, _ = self._write(tmp_path, [
            {"id": "a", "source": "// only a comment", "labels": [0, 1, 0, 0, 1]},
            {"id": "b", "source": "y;"},
        ], taxonomy5)
        assert read_labels(data, taxonomy5) == {"a": (0, 1, 0, 0, 1), "b": None}

    def test_malformed_record_reports_index(self, tmp_path, taxonomy5):
        data = tmp_path / "data.jsonl"
        data.write_text('{"id": "a", "source": "x;"}\nnot json\n')
        with pytest.raises(ParseError) as err:
            ingest(data, taxonomy5)
        assert err.value.record_index == 1

    def test_missing_source_field(self, tmp_path, taxonomy5):
        data = tmp_path / "data.jsonl"
        data.write_text('{"id": "a"}\n')
        with pytest.raises(ParseError):
            ingest(data, taxonomy5)

    def test_duplicate_id(self, tmp_path, taxonomy5):
        data, _ = self._write(tmp_path, [
            {"id": "a", "source": "x;"},
            {"id": "a", "source": "y;"},
        ], taxonomy5)
        with pytest.raises(SchemaError):
            ingest(data, taxonomy5)

    def test_sources_preprocessed(self, tmp_path, taxonomy5):
        data, _ = self._write(tmp_path, [
            {"id": "a", "source": "x; // comment\n\n\ny;"},
        ], taxonomy5)
        ds = ingest(data, taxonomy5)
        assert ds.contracts[0].source == "x;\ny;"

    def test_export_ingest_identity(self, tmp_path, taxonomy5):
        data, _ = self._write(tmp_path, [
            {"id": "a", "source": "x = 1; // c\ny = 2;", "labels": [1, 0, 0, 0, 1]},
            {"id": "b", "source": "z;"},
        ], taxonomy5)
        ds = ingest(data, taxonomy5)
        out = tmp_path / "out.jsonl"
        with open(out, "w") as fh:
            for c in ds:
                record = {"id": c.id, "source": c.source}
                if c.labels is not None:
                    record["labels"] = list(c.labels)
                fh.write(json.dumps(record) + "\n")
        again = ingest(out, taxonomy5)
        assert again == ds

    def test_unlabeled_records_allowed(self, tmp_path, taxonomy5):
        data, _ = self._write(tmp_path, [{"id": "a", "source": "x;"}], taxonomy5)
        ds = ingest(data, taxonomy5)
        assert ds.contracts[0].labels is None


class TestDataset:
    def test_split_disjointness_check(self, taxonomy5):
        a = Dataset((Contract("x", "a;"),), taxonomy5, {"x": "train"})
        b = Dataset((Contract("x", "b;"),), taxonomy5, {"x": "test"})
        with pytest.raises(SchemaError):
            check_disjoint(a.ids(), b.ids())

    def test_get_by_id(self, taxonomy5):
        contracts = tuple(Contract(f"c{i}", f"s{i};") for i in range(5))
        ds = Dataset(contracts, taxonomy5)
        assert [ds.get(f"c{i}") for i in (3, 0, 4)] == [contracts[3], contracts[0], contracts[4]]
        with pytest.raises(KeyError):
            ds.get("missing")

    def test_taxonomy_rejects_duplicates(self, tmp_path):
        tax = tmp_path / "t.json"
        tax.write_text('["a", "a"]')
        with pytest.raises(SchemaError):
            load_taxonomy(tax)


class TestStoredStrings:
    @settings(max_examples=200, deadline=None)
    @given(strings=st.lists(st.text()))
    @example(strings=["a\x00", "\x00", "", "a"])
    def test_round_trip(self, strings):
        data = encode_strings(strings)
        assert data.dtype == np.uint8 and data.ndim == 1
        assert decode_strings(data) == tuple(strings)

    def test_names_the_old_string_array_format(self):
        with pytest.raises(ValueError, match="UTF-8 JSON bytes, got <U1"):
            decode_strings(np.array(["a", "b"], dtype=str))

    @pytest.mark.parametrize("data", [
        np.frombuffer(b'{"a": 1}', dtype=np.uint8),
        np.frombuffer(b'["a", 1]', dtype=np.uint8),
        np.frombuffer(b'["a"', dtype=np.uint8),
        np.frombuffer(b'["\xff"]', dtype=np.uint8),
    ], ids=["object", "non-string", "truncated", "not utf-8"])
    def test_rejects_other_arrays(self, data):
        with pytest.raises(ValueError):
            decode_strings(data)
