"""Vulnerability report rendering: deterministic template plus remote elaboration.

Each detected label gets five sections in fixed order (location and
manifestation, root causes, security risks, potential impact, mitigation
strategies), followed by a summary table and general recommendations. Section
text comes from a knowledge file mapping label names to the five strings; a
remote endpoint can elaborate the report, with automatic fallback to the
local template when the reply is missing or malformed.
"""

from __future__ import annotations

import json
import urllib.error
import urllib.request
from pathlib import Path
from typing import Optional, Sequence

from .corpus import Contract

SECTION_HEADERS = (
    "Location and manifestation",
    "Root causes",
    "Security risks",
    "Potential impact",
    "Mitigation strategies",
)

SECTION_KEYS = (
    "location_and_manifestation",
    "root_causes",
    "security_risks",
    "potential_impact",
    "mitigation_strategies",
)

GENERAL_RECOMMENDATIONS = (
    "Pin the compiler version, add unit tests around state-changing functions, "
    "prefer checks-effects-interactions ordering, and schedule periodic audits "
    "of privileged roles and external call sites."
)

# built-in knowledge for the default synthetic taxonomy
DEFAULT_KNOWLEDGE = {
    "reentrancy": {
        "location_and_manifestation": (
            "External value-transfer calls (call/send) execute before the caller's "
            "balance bookkeeping is updated, typically inside withdraw-style functions."
        ),
        "root_causes": (
            "State mutations are sequenced after an external call, letting the callee "
            "re-enter the function while the old state is still live."
        ),
        "security_risks": (
            "A malicious fallback function can loop back into the contract and drain "
            "funds before the first invocation finishes."
        ),
        "potential_impact": (
            "Repeated unauthorized withdrawals up to the full contract balance."
        ),
        "mitigation_strategies": (
            "Apply checks-effects-interactions, zero the balance before transferring, "
            "or guard entry points with a reentrancy lock."
        ),
    },
    "integer-overflow": {
        "location_and_manifestation": (
            "Unchecked arithmetic on balances or counters, often inside add/sub "
            "helpers or token mint paths."
        ),
        "root_causes": (
            "Fixed-width integer arithmetic wraps around instead of failing when the "
            "result exceeds the type range."
        ),
        "security_risks": (
            "Attackers can wrap a balance to a huge value or bypass require checks "
            "built on wrapped quantities."
        ),
        "potential_impact": (
            "Minting of unbacked tokens, corrupted accounting, or bypassed limits."
        ),
        "mitigation_strategies": (
            "Use checked arithmetic (compiler >= 0.8 or a safe-math library) and "
            "validate ranges before arithmetic."
        ),
    },
    "unchecked-call": {
        "location_and_manifestation": (
            "Low-level call/send return values are discarded, so failed transfers "
            "pass silently."
        ),
        "root_causes": (
            "Low-level calls report failure via their boolean result rather than "
            "reverting, and the result is never inspected."
        ),
        "security_risks": (
            "State is updated as if a payment succeeded when it did not, desynchronizing "
            "balances from reality."
        ),
        "potential_impact": (
            "Permanently inconsistent accounting and funds stuck with no retry path."
        ),
        "mitigation_strategies": (
            "Check every low-level call result with require, or use transfer patterns "
            "that revert on failure."
        ),
    },
    "timestamp-dependence": {
        "location_and_manifestation": (
            "Branching on block.timestamp (or block numbers as clocks) inside payout, "
            "lottery, or deadline logic."
        ),
        "root_causes": (
            "Miners can skew block timestamps within protocol tolerance, so timestamps "
            "are attacker-influenced inputs."
        ),
        "security_risks": (
            "Outcomes that should be unpredictable or fair can be nudged by whoever "
            "orders the block."
        ),
        "potential_impact": (
            "Biased lotteries or auctions and prematurely or belatedly unlocked funds."
        ),
        "mitigation_strategies": (
            "Avoid tight timestamp windows, use block-count ranges with slack, or source "
            "randomness from commitments/oracles."
        ),
    },
    "tx-origin-auth": {
        "location_and_manifestation": (
            "Authorization checks compare tx.origin (not msg.sender) against an owner "
            "address."
        ),
        "root_causes": (
            "tx.origin names the transaction's initiating account, which stays the victim "
            "even when the call is proxied through an attacker contract."
        ),
        "security_risks": (
            "A phishing contract invoked by the owner inherits the owner's authority in "
            "downstream calls."
        ),
        "potential_impact": (
            "Full takeover of owner-gated functionality, including fund withdrawal."
        ),
        "mitigation_strategies": (
            "Authenticate with msg.sender and restrict privileged paths to direct calls."
        ),
    },
}

GENERIC_SECTIONS = {
    "location_and_manifestation": (
        "The detector flagged this vulnerability class for the contract; inspect the "
        "flagged source for the class's characteristic constructs."
    ),
    "root_causes": (
        "No curated analysis is available for this label; the detection rests on "
        "similarity to known-vulnerable contracts."
    ),
    "security_risks": (
        "Contracts carrying this class have historically been exploitable; treat the "
        "finding as actionable until manually cleared."
    ),
    "potential_impact": (
        "Impact depends on the reachable state and value flows of the flagged code."
    ),
    "mitigation_strategies": (
        "Review the flagged contract against the class's published remediation "
        "guidance and add a regression test."
    ),
}

COT_PROMPT_TEMPLATE = (
    "You are auditing a smart contract. Think through each detected vulnerability "
    "step by step before writing.\n"
    "Contract source:\n{source}\n\n"
    "Detected vulnerability types: {labels}\n\n"
    "For every detected type, write a section with a '### <type>: <element>' header "
    "for each of these elements, in this order:\n{elements}\n"
    "Finish with a summary table (type, affected location, consequence, solution) "
    "and general recommendations."
)


def load_knowledge(path) -> dict:
    data = json.loads(Path(path).read_text(encoding="utf-8"))
    return {label: dict(sections) for label, sections in data.items()}


def load_prompt_template(path) -> str:
    """Custom prompt template; must keep the {source}/{labels}/{elements} slots."""
    text = Path(path).read_text(encoding="utf-8")
    for slot in ("{source}", "{labels}", "{elements}"):
        if slot not in text:
            raise ValueError(f"prompt template is missing the {slot} placeholder")
    return text


def _sections_for(label: str, knowledge: dict) -> tuple[dict, bool]:
    entry = knowledge.get(label)
    if entry and all(entry.get(k) for k in SECTION_KEYS):
        return entry, False
    return GENERIC_SECTIONS, True


def render_report(contract: Contract, final_labels: Sequence[int],
                  probabilities: Sequence[float], taxonomy: Sequence[str],
                  knowledge: Optional[dict] = None) -> str:
    """Deterministic Markdown report for one contract's verified 0/1 labels."""
    knowledge = DEFAULT_KNOWLEDGE if knowledge is None else knowledge
    detected = [(name, probabilities[i]) for i, name in enumerate(taxonomy)
                if final_labels[i]]
    lines = [f"# Vulnerability report for contract `{contract.id}`", ""]
    if not detected:
        lines += [
            "No vulnerabilities detected.",
            "",
            "## General recommendations",
            "",
            GENERAL_RECOMMENDATIONS,
            "",
        ]
        return "\n".join(lines)

    summary_rows = []
    for name, prob in detected:
        sections, generic = _sections_for(name, knowledge)
        lines.append(f"## {name} (confidence {prob:.2f})")
        lines.append("")
        if generic:
            lines.append("_No curated knowledge entry for this label; generic guidance follows._")
            lines.append("")
        for header, key in zip(SECTION_HEADERS, SECTION_KEYS):
            lines.append(f"### {name}: {header}")
            lines.append("")
            lines.append(sections[key])
            lines.append("")
        summary_rows.append((
            name,
            sections["location_and_manifestation"].split(",")[0].rstrip("."),
            sections["potential_impact"].rstrip("."),
            sections["mitigation_strategies"].split(",")[0].rstrip("."),
        ))

    lines += ["## Summary", "",
              "| Vulnerability type | Affected location | Consequence | Solution |",
              "| --- | --- | --- | --- |"]
    for row in summary_rows:
        lines.append("| " + " | ".join(row) + " |")
    lines += ["", "## General recommendations", "", GENERAL_RECOMMENDATIONS, ""]
    return "\n".join(lines)


def _reply_has_all_sections(text: str, labels: Sequence[str]) -> bool:
    return all(
        f"### {label}: {header}" in text
        for label in labels
        for header in SECTION_HEADERS
    )


def llm_report(contract: Contract, final_labels: Sequence[int],
               probabilities: Sequence[float], taxonomy: Sequence[str],
               endpoint: str, knowledge: Optional[dict] = None,
               timeout: float = 30.0,
               prompt_template: str = COT_PROMPT_TEMPLATE) -> tuple[str, bool]:
    """Ask a remote endpoint to elaborate the report; fall back to the template.

    Returns (markdown, used_fallback). Transport errors and replies missing
    any of the five section headers both trigger the fallback.
    """
    detected = [name for name, bit in zip(taxonomy, final_labels) if bit]
    fallback = render_report(contract, final_labels, probabilities, taxonomy, knowledge)
    if not detected:
        return fallback, False
    prompt = prompt_template.format(
        source=contract.source,
        labels=", ".join(detected),
        elements="\n".join(f"- {h}" for h in SECTION_HEADERS),
    )
    try:
        request = urllib.request.Request(
            endpoint,
            data=json.dumps({"prompt": prompt}).encode("utf-8"),
            headers={"Content-Type": "application/json"},
            method="POST",
        )
        with urllib.request.urlopen(request, timeout=timeout) as response:
            reply = json.loads(response.read().decode("utf-8"))
        text = reply.get("text")
        if isinstance(text, str) and _reply_has_all_sections(text, detected):
            return text, False
    except (urllib.error.URLError, TimeoutError, OSError, ValueError):
        pass
    notice = "_Remote report generation unavailable; rendered from the local template._\n\n"
    return notice + fallback, True
