"""Retrieval-backed security review for generated code.

Pipeline: build a security-oriented knowledge base from Stack Overflow
dumps, retrieve discussions whose code resembles a given snippet (BM25),
let an LLM provider revise the snippet with those discussions as advisory
context, and score the outcome with static-analyzer findings.
"""

__version__ = "0.1.0"
