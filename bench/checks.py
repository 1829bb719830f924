"""Output checks that survive optimisation: each compares the program's output
with what follows from the generation plan, or with an independent oracle.

Each ``check_*`` returns a list of problems; an empty list means correct.
"""

from __future__ import annotations

import json
import math
import re
from collections import Counter
from decimal import ROUND_HALF_EVEN, Decimal
from pathlib import Path

SCORE_TOLERANCE = 1e-9

# ------------------------------------------------------------------ kb_build


def check_kb(kb_path: Path, plan: dict) -> list[str]:
    """The KB holds exactly the planted answers, in ascending id order, each
    line byte for byte the record the generator planned for it."""
    expected = plan["expected"]
    lines = {}
    for line in kb_path.read_text(encoding="utf-8").splitlines():
        lines[str(json.loads(line)["answer_id"])] = line
    problems = []
    missing = sorted(set(expected) - set(lines), key=int)
    extra = sorted(set(lines) - set(expected), key=int)
    if missing:
        problems.append(f"{len(missing)} planted answers missing from the KB, e.g. {missing[:5]}")
    if extra:
        problems.append(f"{len(extra)} unplanted answers in the KB, e.g. {extra[:5]}")
    ids = [int(a) for a in lines]
    if ids != sorted(ids):
        problems.append("KB entries are not in ascending answer id order")
    wrong = []
    for aid in sorted(set(expected) & set(lines), key=int):
        want = expected[aid]
        if lines[aid] != json.dumps(want, ensure_ascii=False):
            got = json.loads(lines[aid])
            fields = [k for k in want if got.get(k) != want[k]] + [k for k in got if k not in want]
            wrong.append(f"answer {aid}: {', '.join(fields) or 'the line bytes'} differ from the plan")
    if wrong:
        problems.append(f"{len(wrong)} KB records differ from the plan, e.g. {wrong[0]}")
    return problems


# ------------------------------------------------------------ retrieve_query

# The benchmark's own reading of the documented tokenizer: `name=value`
# compounds, dotted paths and words, each also split into lowercased
# camelCase/snake_case parts.
_TOKEN_RE = re.compile(
    r"(?P<assign>[A-Za-z_]\w*(?:\.\w+)*[ \t]*=(?!=)[ \t]*\w+(?:\.\w+)*)"
    r"|(?P<dotted>[A-Za-z_]\w*(?:\.\w+)+)"
    r"|(?P<word>\w+)"
)
_PART_RE = re.compile(r"[A-Z]+(?![a-z])|[A-Z][a-z0-9]*|[a-z0-9]+")


def _word(word: str) -> list[str]:
    whole = word.lower()
    parts = [p.lower() for p in _PART_RE.findall(word)]
    return [whole] if parts == [whole] else [whole] + parts


def oracle_tokens(text: str) -> list[str]:
    tokens: list[str] = []
    for match in _TOKEN_RE.finditer(text):
        raw = match.group()
        if match.lastgroup == "assign":
            compound = re.sub(r"\s+", "", raw).lower()
            tokens.append(compound)
            lhs = compound.split("=", 1)[0]
            if "." in lhs:
                tokens.append(lhs)
            for part in re.findall(r"\w+", raw):
                tokens.extend(_word(part))
        elif match.lastgroup == "dotted":
            tokens.append(raw.lower())
            for part in raw.split("."):
                tokens.extend(_word(part))
        else:
            tokens.extend(_word(raw))
    return tokens


class Bm25Oracle:
    """Exhaustive BM25 over the KB JSONL, without the program's index.

    Reads every entry's code blocks, counts term frequencies of the query
    terms in every document, and scores every document that holds one.
    """

    def __init__(self, kb_path: Path, queries: dict[int, str], k1: float = 1.2, b: float = 0.75):
        self.k1, self.b = k1, b
        self.query_terms = {q: list(dict.fromkeys(oracle_tokens(code))) for q, code in queries.items()}
        wanted = {t for terms in self.query_terms.values() for t in terms}
        self.answer_ids: list[int] = []
        self.doc_len: list[int] = []
        self.tf: dict[str, dict[int, int]] = {t: {} for t in wanted}
        with open(kb_path, encoding="utf-8") as fh:
            for doc, line in enumerate(fh):
                entry = json.loads(line)
                tokens = oracle_tokens("\n".join(entry["code_blocks"]))
                self.answer_ids.append(entry["answer_id"])
                self.doc_len.append(len(tokens))
                for term, count in Counter(t for t in tokens if t in wanted).items():
                    self.tf[term][doc] = count
        self.avg_len = sum(self.doc_len) / len(self.doc_len)
        # Scored up front, so the work overlaps the program's index build.
        self._scores = {q: self._score(q) for q in self.query_terms}

    def scores(self, query_no: int) -> dict[int, float]:
        """answer_id -> score for every document sharing a term with the query."""
        return self._scores[query_no]

    def _score(self, query_no: int) -> dict[int, float]:
        n = len(self.doc_len)
        scores: dict[int, float] = {}
        for term in self.query_terms[query_no]:
            docs = self.tf[term]
            idf = math.log((n - len(docs) + 0.5) / (len(docs) + 0.5) + 1.0)
            for doc, tf in docs.items():
                norm = self.k1 * (1.0 - self.b + self.b * self.doc_len[doc] / self.avg_len)
                aid = self.answer_ids[doc]
                scores[aid] = scores.get(aid, 0.0) + idf * (tf * (self.k1 + 1.0)) / (tf + norm)
        return scores


def check_ranking(got: list | None, oracle_scores: dict[int, float], k: int) -> str | None:
    """None when `got` is a valid top-k under the oracle, else the reason.

    Scores must match within SCORE_TOLERANCE; documents whose oracle scores
    tie within the tolerance may come in either order, exact ties by
    ascending answer id.
    """
    if got is None:
        return "retrieve raised"
    positive = sorted((s for s in oracle_scores.values() if s > 0.0), reverse=True)
    if len(got) != min(k, len(positive)):
        return f"{len(got)} hits, oracle has {min(k, len(positive))}"
    if len({aid for aid, _ in got}) != len(got):
        return "an answer appears twice"
    floor = positive[len(got) - 1] if got else 0.0
    previous = None
    for aid, score in got:
        want = oracle_scores.get(aid)
        if want is None or abs(score - want) > SCORE_TOLERANCE:
            return f"answer {aid} scored {score}, oracle {want}"
        if score < floor - SCORE_TOLERANCE:
            return f"answer {aid} is outside the oracle's top {k}"
        if previous is not None:
            if score > previous[1] + SCORE_TOLERANCE:
                return "hits are not in descending score order"
            if score == previous[1] and aid < previous[0]:
                return "tied hits are not in ascending answer id order"
        previous = (aid, score)
    return None


def check_rankings(rankings: dict[str, list | None], oracle: Bm25Oracle, plan: dict) -> dict[int, str]:
    """query_no -> problem, for the checked queries and the planted ones."""
    problems = {}
    for query_no in plan["checked_queries"]:
        got = rankings.get(str(query_no))
        reason = check_ranking(got, oracle.scores(query_no), plan["k"])
        planted = plan["planted"].get(str(query_no))
        if reason is None and planted is not None and got[0][0] != planted:
            reason = f"planted answer {planted} is not ranked first"
        if reason is not None:
            problems[query_no] = reason
    return problems


# ----------------------------------------------------------------- eval_arms


def round_rate(value: float) -> float:
    return float(Decimal(value).quantize(Decimal("0.1"), rounding=ROUND_HALF_EVEN))


def expected_report(plan: dict) -> dict:
    """per_arm, counts and per_cwe that follow from the sample kinds.

    Filtered samples are dropped by the dual-tool filter. prompt_only keeps
    every sample unchanged; the other arms revise with the mock provider,
    which removes `shell=True` (fixing its CWE-78) and leaves the rest.
    """
    kept = [s for s in plan["samples"] if s["kind"] != "filtered"]
    n = len(kept)
    vulns = sum(len(s["before_cwes"]) for s in kept)
    changed = [s for s in kept if s["kind"] == "changed"]
    per_arm = {}
    for arm in plan["arms"]:
        fixed = 0 if arm == "prompt_only" else sum(len(s["before_cwes"]) for s in changed)
        unchanged = n if arm == "prompt_only" else n - len(changed)
        per_arm[arm] = {
            "samples": n,
            "vulns_before": vulns,
            "fix_rate": round_rate(100.0 * fixed / vulns) if vulns else None,
            "intro_rate": 0.0,
            "no_change_rate": round_rate(100.0 * unchanged / n),
            "delta_fix_vs_baseline": None,
        }
    base = per_arm.get("prompt_only", {}).get("fix_rate")
    for arm, metrics in per_arm.items():
        if arm != "prompt_only" and metrics["fix_rate"] is not None and base is not None:
            metrics["delta_fix_vs_baseline"] = round_rate(metrics["fix_rate"] - base)
    per_cwe: dict[str, dict[str, int]] = {}
    for sample in kept:
        for cwe in sample["before_cwes"]:
            stat = per_cwe.setdefault(cwe, {"total": 0, "fixed": 0})
            stat["total"] += 1
            stat["fixed"] += sample["kind"] == "changed"
    return {
        "per_arm": per_arm,
        "counts": {"samples": n, "vulns_before": vulns},
        "per_cwe": {cwe: per_cwe[cwe] for cwe in sorted(per_cwe)},
    }


def check_report(report: dict, plan: dict) -> list[str]:
    want = expected_report(plan)
    problems = []
    for arm, metrics in want["per_arm"].items():
        got = report.get("per_arm", {}).get(arm)
        if got != metrics:
            problems.append(f"per_arm[{arm}] is {got}, the plan gives {metrics}")
    for key in ("counts", "per_cwe"):
        if report.get(key) != want[key]:
            problems.append(f"{key} is {report.get(key)}, the plan gives {want[key]}")
    return problems
