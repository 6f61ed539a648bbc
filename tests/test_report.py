import json

import pytest

from vulnfuse.corpus import Contract
from vulnfuse.report import (
    DEFAULT_KNOWLEDGE,
    SECTION_HEADERS,
    llm_report,
    load_knowledge,
    load_prompt_template,
    render_report,
)


@pytest.fixture
def contract():
    return Contract(id="c-42", source="contract X { function f() public {} }")


def section_positions(text, label):
    return [text.find(f"### {label}: {header}") for header in SECTION_HEADERS]


class TestRender:
    def test_no_findings(self, contract, taxonomy5):
        text = render_report(contract, (0,) * 5, [0.1] * 5, taxonomy5)
        assert "No vulnerabilities detected" in text
        assert "## General recommendations" in text
        assert "###" not in text

    def test_one_label_five_sections_one_row(self, contract, taxonomy5):
        labels = (1, 0, 0, 0, 0)
        text = render_report(contract, labels, [0.9, 0, 0, 0, 0], taxonomy5)
        positions = section_positions(text, "reentrancy")
        assert all(p >= 0 for p in positions)
        assert positions == sorted(positions)  # headers appear in order
        assert text.count("### ") == 5
        table_rows = [l for l in text.splitlines()
                      if l.startswith("|") and "---" not in l and "Vulnerability type" not in l]
        assert len(table_rows) == 1

    def test_two_labels(self, contract, taxonomy5):
        labels = (1, 0, 1, 0, 0)
        text = render_report(contract, labels, [0.9, 0, 0.8, 0, 0], taxonomy5)
        assert text.count("### ") == 10
        table_rows = [l for l in text.splitlines()
                      if l.startswith("|") and "---" not in l and "Vulnerability type" not in l]
        assert len(table_rows) == 2
        # both labels carry every section, in declared order
        for label in ("reentrancy", "unchecked-call"):
            positions = section_positions(text, label)
            assert all(p >= 0 for p in positions) and positions == sorted(positions)

    def test_unknown_label_falls_back_flagged(self, contract):
        taxonomy = ("mystery-vuln",)
        text = render_report(contract, (1,), [0.7], taxonomy)
        assert "No curated knowledge entry" in text
        assert text.count("### ") == 5

    def test_pure_function(self, contract, taxonomy5):
        labels = (0, 1, 0, 0, 0)
        first = render_report(contract, labels, [0, 0.8, 0, 0, 0], taxonomy5)
        second = render_report(contract, labels, [0, 0.8, 0, 0, 0], taxonomy5)
        assert first == second

    def test_contract_id_present(self, contract, taxonomy5):
        text = render_report(contract, (0,) * 5, [0] * 5, taxonomy5)
        assert "c-42" in text

    def test_knowledge_file_roundtrip(self, tmp_path):
        path = tmp_path / "knowledge.json"
        path.write_text(json.dumps(DEFAULT_KNOWLEDGE, indent=2, sort_keys=True))
        assert load_knowledge(path) == DEFAULT_KNOWLEDGE


class TestRemote:
    def _valid_reply(self, labels):
        parts = []
        for label in labels:
            for header in SECTION_HEADERS:
                parts.append(f"### {label}: {header}\n\nRemote analysis text.\n")
        return "\n".join(parts)

    def test_endpoint_down_falls_back(self, contract, taxonomy5):
        labels = (1, 0, 0, 0, 0)
        local = render_report(contract, labels, [0.9, 0, 0, 0, 0], taxonomy5)
        text, fell_back = llm_report(contract, labels, [0.9, 0, 0, 0, 0], taxonomy5,
                                     endpoint="http://127.0.0.1:9/", timeout=0.5)
        assert fell_back
        assert local in text
        assert "unavailable" in text

    def test_missing_section_falls_back(self, contract, taxonomy5, mock_endpoint):
        labels = (1, 0, 0, 0, 0)
        incomplete = self._valid_reply(["reentrancy"]).replace(
            "### reentrancy: Mitigation strategies", "### reentrancy: Other")

        with mock_endpoint(lambda body: (200, {"text": incomplete})) as ep:
            text, fell_back = llm_report(contract, labels, [0.9, 0, 0, 0, 0],
                                         taxonomy5, endpoint=ep.url)
        assert fell_back

    def test_valid_reply_passes_through(self, contract, taxonomy5, mock_endpoint):
        labels = (1, 0, 0, 0, 0)
        reply = self._valid_reply(["reentrancy"])
        with mock_endpoint(lambda body: (200, {"text": reply})) as ep:
            text, fell_back = llm_report(contract, labels, [0.9, 0, 0, 0, 0],
                                         taxonomy5, endpoint=ep.url)
        assert not fell_back
        assert text == reply
        assert "Remote analysis text." in text

    def test_no_findings_skips_remote_call(self, contract, taxonomy5):
        # endpoint is never contacted for a clean contract
        text, fell_back = llm_report(contract, (0,) * 5, [0] * 5,
                                     taxonomy5, endpoint="http://127.0.0.1:9/")
        assert not fell_back
        assert "No vulnerabilities detected" in text

    def test_prompt_lists_all_elements(self, contract, taxonomy5, mock_endpoint):
        labels = (0, 1, 0, 0, 0)
        reply = self._valid_reply(["integer-overflow"])
        with mock_endpoint(lambda body: (200, {"text": reply})) as ep:
            llm_report(contract, labels, [0, 0.9, 0, 0, 0], taxonomy5, endpoint=ep.url)
            prompt = ep.requests[0]["body"]["prompt"]
        for header in SECTION_HEADERS:
            assert header in prompt
        assert "integer-overflow" in prompt
        assert contract.source in prompt

    def test_custom_template_file(self, contract, taxonomy5, tmp_path, mock_endpoint):
        template_path = tmp_path / "prompt.txt"
        template_path.write_text("AUDIT {labels} :: {elements} :: {source}")
        template = load_prompt_template(template_path)
        labels = (1, 0, 0, 0, 0)
        reply = self._valid_reply(["reentrancy"])
        with mock_endpoint(lambda body: (200, {"text": reply})) as ep:
            llm_report(contract, labels, [0.9, 0, 0, 0, 0], taxonomy5,
                       endpoint=ep.url, prompt_template=template)
            prompt = ep.requests[0]["body"]["prompt"]
        assert prompt.startswith("AUDIT reentrancy ::")

    def test_prompt_names_the_set_labels(self, contract, taxonomy5, mock_endpoint):
        template = "AUDIT {labels} :: {elements} :: {source}"
        reply = self._valid_reply(["reentrancy", "unchecked-call"])
        with mock_endpoint(lambda body: (200, {"text": reply})) as ep:
            llm_report(contract, (1, 0, 1, 0, 0), [0.9, 0, 0.8, 0, 0], taxonomy5,
                       endpoint=ep.url, prompt_template=template)
            prompt = ep.requests[0]["body"]["prompt"]
        # the names of the set labels, in taxonomy order
        assert prompt.startswith("AUDIT reentrancy, unchecked-call ::")

    def test_template_missing_placeholder_rejected(self, tmp_path):
        template_path = tmp_path / "prompt.txt"
        template_path.write_text("no placeholders here")
        with pytest.raises(ValueError):
            load_prompt_template(template_path)
