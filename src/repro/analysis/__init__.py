"""Analysis layer: per-task reports, the population census and its corpus."""

from .census import Census, run_census
from .corpus import (
    CorpusConfig,
    CorpusError,
    CorpusResult,
    load_manifest,
    run_corpus,
    validate_manifest,
    verify_manifest,
)
from .report import TaskReport, analyze_task

__all__ = [
    "Census",
    "CorpusConfig",
    "CorpusError",
    "CorpusResult",
    "TaskReport",
    "analyze_task",
    "load_manifest",
    "run_census",
    "run_corpus",
    "validate_manifest",
    "verify_manifest",
]
