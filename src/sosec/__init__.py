"""Retrieval-backed security review for generated code.

Pipeline: build a security-oriented knowledge base from Stack Overflow
dumps, retrieve discussions whose code resembles a given snippet (BM25),
let an LLM provider revise the snippet with those discussions as advisory
context, and score the outcome with static-analyzer findings.
"""

__version__ = "0.1.0"

from .analysis import (
    AdapterConfig,
    CweMap,
    Finding,
    FindingDiff,
    analyze_file,
    parse_bandit_json,
    parse_sarif,
    run_analyzer,
)
from .evaluation import (
    CodeSample,
    EvalReport,
    SampleOutcome,
    analyze_code,
    compute_metrics,
    load_samples,
    per_cwe_breakdown,
    run_arms,
)
from .kb import (
    KeywordSet,
    KnowledgeEntry,
    build_knowledge_base,
    is_security_relevant,
    parse_answer_body,
    parse_dump_rows,
    passes_quality_gate,
)
from .retrieval import (
    RetrievalHit,
    RetrievalIndex,
    build_index,
    load_index,
    retrieve,
    save_index,
    tokenize_code,
)
from .revision import (
    ProviderConfig,
    RevisionRecord,
    build_revision_prompt,
    extract_revised_code,
    is_unchanged,
    revise,
)

__all__ = [
    "AdapterConfig",
    "CodeSample",
    "CweMap",
    "EvalReport",
    "Finding",
    "FindingDiff",
    "KeywordSet",
    "KnowledgeEntry",
    "ProviderConfig",
    "RetrievalHit",
    "RetrievalIndex",
    "RevisionRecord",
    "SampleOutcome",
    "analyze_code",
    "analyze_file",
    "build_index",
    "build_knowledge_base",
    "build_revision_prompt",
    "compute_metrics",
    "extract_revised_code",
    "is_security_relevant",
    "is_unchanged",
    "load_index",
    "load_samples",
    "parse_answer_body",
    "parse_bandit_json",
    "parse_dump_rows",
    "parse_sarif",
    "passes_quality_gate",
    "per_cwe_breakdown",
    "retrieve",
    "revise",
    "run_analyzer",
    "run_arms",
    "save_index",
    "tokenize_code",
]
