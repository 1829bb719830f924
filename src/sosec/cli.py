"""The `sosec` command line: one subcommand per pipeline stage.

Exit codes: 0 success, 1 usage error, 2 runtime error. The CLI is pure
orchestration; all behavior lives in the stage modules.
"""

from __future__ import annotations

import argparse
import json
import os
import sys
from dataclasses import fields
from pathlib import Path

from . import __version__
from .analysis import CweMap, analyze_file, load_adapters
from .config import GlobalConfig, load_config
from .errors import SosecError, open_text
from .evaluation import (
    ARM_PROMPT_ONLY,
    compute_metrics,
    load_samples,
    load_supported_cwes,
    render_report_text,
    run_arms,
)
from .kb import DEFAULT_MIN_UPVOTE, KeywordSet, build_knowledge_base, load_kb_jsonl, write_kb_jsonl
from .retrieval import DEFAULT_B, DEFAULT_K1, build_index, load_index, retrieve, save_index
from .revision import PROVIDER_KINDS, ProviderConfig, make_provider, revise


class UsageError(Exception):
    pass


class _Parser(argparse.ArgumentParser):
    def error(self, message):  # exit 1 instead of argparse's default 2
        raise UsageError(f"{self.format_usage()}{self.prog}: error: {message}")


def _add_common_flags(p: argparse.ArgumentParser, format_default: str = "text") -> None:
    p.add_argument("--config", help="JSON config file layered under the flags")
    p.add_argument("--format", choices=("text", "json"), default=format_default)


def _build_parser() -> _Parser:
    parser = _Parser(prog="sosec", description=__doc__)
    sub = parser.add_subparsers(dest="command", metavar="COMMAND", parser_class=_Parser)

    p = sub.add_parser("version", help="print the package version")
    _add_common_flags(p)

    p = sub.add_parser("build-kb", help="build the knowledge base from dump XML")
    _add_common_flags(p)
    p.add_argument("--posts", required=True)
    p.add_argument("--comments", required=True)
    p.add_argument("--keywords", dest="keyword_path")
    p.add_argument("--out", required=True)
    p.add_argument("--min-upvote", type=int, default=DEFAULT_MIN_UPVOTE)

    p = sub.add_parser("index", help="build the retrieval index from KB JSONL")
    _add_common_flags(p)
    p.add_argument("--kb", required=True)
    p.add_argument("--out", required=True)
    p.add_argument("--k1", type=float, default=DEFAULT_K1)
    p.add_argument("--b", type=float, default=DEFAULT_B)

    p = sub.add_parser("retrieve", help="rank KB entries against a code file")
    _add_common_flags(p)
    p.add_argument("--index", required=True)
    p.add_argument("--code", required=True)
    p.add_argument("-k", type=int)

    p = sub.add_parser("revise", help="revise a code file with retrieved context")
    _add_common_flags(p, format_default="json")  # the revision record is the output
    p.add_argument("--index", required=True)
    p.add_argument("--code", required=True)
    p.add_argument("-k", type=int)
    p.add_argument("--provider", help=f"provider kind: {', '.join(PROVIDER_KINDS)}")
    p.add_argument("--transcript")
    p.add_argument("--budget", type=int)

    p = sub.add_parser("analyze", help="run one analyzer adapter on a file")
    _add_common_flags(p)
    p.add_argument("--file", required=True)
    p.add_argument("--adapter", required=True)
    p.add_argument("--cwe-map", dest="cwe_map_path")
    p.add_argument("--adapters", dest="adapters_path")

    p = sub.add_parser("eval", help="run arms over a dataset and report metrics")
    _add_common_flags(p)
    p.add_argument("--dataset", required=True)
    p.add_argument("--arm", required=True, help="comma-separated arm names")
    p.add_argument("--index")
    p.add_argument("--provider", help=f"provider kind: {', '.join(PROVIDER_KINDS)}")
    p.add_argument("--transcript")
    p.add_argument("--out")
    p.add_argument("--adapters", dest="adapters_path")
    p.add_argument("--cwe-map", dest="cwe_map_path")
    p.add_argument("--supported-cwes", dest="supported_cwes_path")
    p.add_argument("--baseline-arm", dest="baseline_arm")
    p.add_argument("-k", type=int)
    p.add_argument("--budget", type=int)
    p.add_argument("--workers", type=int)

    return parser


def _layer_flags(config: GlobalConfig, flags: dict) -> GlobalConfig:
    """Set each given flag over the config field its dest names, then validate.

    The config file's provider section applies unless --provider names another kind.
    """
    for f in fields(config):
        if f.name != "provider" and flags.get(f.name) is not None:
            setattr(config, f.name, flags[f.name])
    kind = flags.get("provider")
    if kind is not None and kind != config.provider.kind:
        config.provider = ProviderConfig(kind=kind)
    if flags.get("transcript"):
        config.provider.transcript_path = flags["transcript"]
    return config.validate()


def _emit(args, payload, text: str) -> None:
    out = json.dumps(payload, ensure_ascii=False, indent=2) if args.format == "json" else text
    try:
        print(out)
    except UnicodeEncodeError as exc:  # a lone surrogate, say, in a provider's reply
        raise SosecError(f"output cannot be encoded: {exc}") from exc


def _check_out_dir(out: str, inputs: dict[str, str | None]) -> None:
    """Refuse an --out path that no file can be written to, or that is one of the
    command's `inputs` (flag: path), before the work that fills it."""
    path = Path(out)
    if path.is_dir():
        raise SosecError(f"--out {out} is a directory")
    if not path.parent.is_dir():
        raise SosecError(f"--out {out}: directory {path.parent} does not exist")
    if path.exists():
        for flag, value in inputs.items():
            if value and os.path.exists(value) and os.path.samefile(out, value):
                raise SosecError(f"--out {out} is the file that {flag} {value} names")


def _cmd_version(args, config) -> int:
    _emit(args, {"version": __version__}, f"sosec {__version__}")
    return 0


def _cmd_build_kb(args, config: GlobalConfig) -> int:
    _check_out_dir(args.out, {"--posts": args.posts, "--comments": args.comments,
                              "--keywords": args.keyword_path, "--config": args.config})
    keywords = KeywordSet.from_file(config.keyword_path)
    with open(args.posts, "rb") as posts_fh, open(args.comments, "rb") as comments_fh:
        entries = build_knowledge_base(posts_fh, comments_fh, keywords, min_upvote=args.min_upvote)
    write_kb_jsonl(entries, args.out)
    summary = {
        "out": args.out,
        "entries": len(entries),
        "posts_skipped": entries.counts["posts_skipped"],
        "comments_skipped": entries.counts["comments_skipped"],
        "duplicate_answers": entries.counts["duplicate_answers"],
        "unparseable_bodies": entries.counts["unparseable_bodies"],
    }
    _emit(
        args,
        summary,
        f"wrote {len(entries)} entries to {args.out} "
        f"(skipped {summary['posts_skipped']} post rows, {summary['comments_skipped']} comment rows, "
        f"{summary['unparseable_bodies']} unparseable answer bodies)",
    )
    return 0


def _cmd_index(args, config: GlobalConfig) -> int:
    _check_out_dir(args.out, {"--kb": args.kb, "--config": args.config})
    entries = load_kb_jsonl(args.kb)
    index = build_index(entries, k1=args.k1, b=args.b)
    save_index(index, args.out)
    summary = {"out": args.out, "docs": len(entries), "terms": len(index.terms)}
    _emit(args, summary, f"indexed {summary['docs']} entries ({summary['terms']} terms) to {args.out}")
    return 0


def _hit_payload(hit) -> dict:
    return {
        "rank": hit.rank,
        "score": hit.score,
        "answer_id": hit.entry.answer_id,
        "url": hit.entry.url,
        "entry": hit.entry.to_dict(),
    }


def _code_and_hits(args, config: GlobalConfig):
    """The --code file's text and its top config.k hits in the --index index."""
    index = load_index(args.index)
    with open_text(args.code) as fh:
        code = fh.read()
    return code, retrieve(index, code, k=config.k)


def _cmd_retrieve(args, config: GlobalConfig) -> int:
    _, hits = _code_and_hits(args, config)
    text = "\n".join(
        f"{h.rank:>2}. score={h.score:.4f}  {h.entry.url}" for h in hits
    ) or "no entries share tokens with the query"
    _emit(args, [_hit_payload(h) for h in hits], text)
    return 0


def _cmd_revise(args, config: GlobalConfig) -> int:
    code, hits = _code_and_hits(args, config)
    provider = make_provider(config.provider)
    record = revise(
        provider,
        code,
        hits,
        sample_id=Path(args.code).name,
        budget=config.budget,
    )
    text = (
        f"changed={record.changed} parse_ok={record.parse_ok} "
        f"context_answers={record.context_answer_ids}\n{record.revised_code}"
    )
    _emit(args, record.to_dict(), text)
    return 0


def _cmd_analyze(args, config: GlobalConfig) -> int:
    adapters = load_adapters(config.adapters_path)
    if args.adapter not in adapters:
        raise SosecError(
            f"unknown adapter {args.adapter!r}; configured: {', '.join(sorted(adapters))}"
        )
    cwe_map = CweMap.from_file(config.cwe_map_path)
    findings = analyze_file(adapters[args.adapter], cwe_map, args.file)
    if findings is None:
        raise SosecError(f"adapter {args.adapter} could not analyze {args.file}")
    text = "\n".join(
        f"{f.file}:{f.line} [{f.severity}] {f.rule_id} ({f.cwe or 'unmapped'}): {f.message}"
        for f in findings
    ) or "no findings"
    _emit(args, [f.to_dict() for f in findings], text)
    return 0


def _cmd_eval(args, config: GlobalConfig) -> int:
    samples = load_samples(args.dataset)
    arms = [a.strip() for a in args.arm.split(",") if a.strip()]
    if not arms:
        raise UsageError("--arm names no arms")
    if args.baseline_arm and args.baseline_arm not in arms:
        raise SosecError(f"--baseline-arm {args.baseline_arm!r} is not among --arm {','.join(arms)}")
    if args.out:
        # refused now, not after every analyzer and provider call has run;
        # a missing file is created empty, an existing one is left as it is
        _check_out_dir(args.out, {
            "--dataset": args.dataset, "--index": args.index, "--transcript": args.transcript,
            "--adapters": args.adapters_path, "--cwe-map": args.cwe_map_path,
            "--supported-cwes": args.supported_cwes_path, "--config": args.config,
        })
        open(args.out, "a", encoding="utf-8").close()

    adapters = load_adapters(config.adapters_path)
    cwe_map = CweMap.from_file(config.cwe_map_path)
    supported = load_supported_cwes(config.supported_cwes_path)

    index = load_index(args.index) if args.index else None
    # one provider for the whole run, so its rate limits hold across workers;
    # prompt_only makes no provider calls
    provider = make_provider(config.provider) if set(arms) - {ARM_PROMPT_ONLY} else None

    trials = run_arms(
        samples,
        arms,
        provider,
        index=index,
        adapters=list(adapters.values()),
        cwe_map=cwe_map,
        supported_cwes=supported,
        k=config.k,
        budget=config.budget,
        workers=config.workers,
    )

    baseline = args.baseline_arm or (ARM_PROMPT_ONLY if ARM_PROMPT_ONLY in arms else None)
    report = compute_metrics(trials, baseline_arm=baseline)

    if args.out:
        Path(args.out).write_text(
            json.dumps(report.to_dict(), ensure_ascii=False, indent=2), encoding="utf-8"
        )
    _emit(args, report.to_dict(), render_report_text(report))
    return 0


_COMMANDS = {
    "version": _cmd_version,
    "build-kb": _cmd_build_kb,
    "index": _cmd_index,
    "retrieve": _cmd_retrieve,
    "revise": _cmd_revise,
    "analyze": _cmd_analyze,
    "eval": _cmd_eval,
}


def main(argv: list[str] | None = None) -> int:
    parser = _build_parser()
    try:
        args = parser.parse_args(argv)
        if not args.command:
            raise UsageError(parser.format_usage() + "sosec: error: a subcommand is required")
        config = _layer_flags(load_config(args.config), vars(args))
        code = _COMMANDS[args.command](args, config)
        sys.stdout.flush()  # a reader that closed the pipe shows here, not at exit
        return code
    except BrokenPipeError:
        # Point stdout at devnull so that the flush at exit does not fail
        # again, and exit 1 as Python does on EPIPE, with nothing on stderr.
        devnull = os.open(os.devnull, os.O_WRONLY)
        os.dup2(devnull, sys.stdout.fileno())
        os.close(devnull)
        return 1
    except UsageError as exc:
        print(exc, file=sys.stderr)
        return 1
    except (SosecError, OSError) as exc:
        print(f"sosec: error: {exc}", file=sys.stderr)
        return 2


def entry() -> None:
    sys.exit(main())
