import json

import pytest

from vulnfuse.corpus import (
    Contract,
    Dataset,
    LabelVector,
    check_disjoint,
    ingest,
    load_taxonomy,
    preprocess,
)
from vulnfuse.errors import EmptyContract, ParseError, SchemaError


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


class TestLabelVector:
    def test_rejects_non_binary(self):
        with pytest.raises(SchemaError):
            LabelVector(bits=(0, 2, 1))

    def test_names_roundtrip(self, taxonomy5):
        vec = LabelVector(bits=(1, 0, 1, 0, 0))
        assert vec.names(taxonomy5) == ("reentrancy", "unchecked-call")


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
        assert ds.contracts[0].labels.bits == (1, 0, 1, 0, 0)

    def test_label_length_mismatch(self, tmp_path, taxonomy5):
        data, tax = self._write(tmp_path, [
            {"id": "a", "source": "contract A { }", "labels": [1, 0, 1, 0]},
        ], taxonomy5)
        with pytest.raises(SchemaError):
            ingest(data, load_taxonomy(tax))

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
                    record["labels"] = list(c.labels.bits)
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
            check_disjoint(a, b)

    def test_taxonomy_rejects_duplicates(self, tmp_path):
        tax = tmp_path / "t.json"
        tax.write_text('["a", "a"]')
        with pytest.raises(SchemaError):
            load_taxonomy(tax)
