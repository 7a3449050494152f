"""Experiment harness: standard machine points, runners, the batch
execution layer (sweep plans, parallel runner, result cache, resumable
plan journals), and the table/figure regeneration functions T1, T2,
E1..E10."""

from .cache import ResultCache, cache_key
from .client import ServerError, SweepClient
from .experiments import (EXPERIMENTS, corpus_plan, e1_main, e2_window,
                          e3_recovery_cost, e4_policies, e5_network,
                          e6_commit_wave, e7_conflict_sweep,
                          e8_storeset_ablation, e9_corpus_ordering,
                          e10_squash_work, table_t1, table_t2)
from .journal import PlanJournal, journals_under, plan_digest
from .metrics import (SweepMetrics, merge_session_metrics, session_shard_path,
                      write_session_shard)
from .parallel import (CellResult, ParallelRunner, arch_state_digest,
                       execute_cell)
from .pool import (PoolExhaustedError, WorkerPool, golden_for,
                   reset_golden_memo, run_cell_chunk)
from .runner import (POINT_ORDER, STANDARD_POINTS, golden_of, run_point,
                     run_points)
from .server import ServerConfig, SweepServer
from .sweep import SweepCell, SweepPlan

__all__ = [
    "EXPERIMENTS", "POINT_ORDER", "STANDARD_POINTS", "CellResult",
    "ParallelRunner", "PlanJournal", "PoolExhaustedError", "ResultCache",
    "ServerConfig", "ServerError", "SweepCell", "SweepClient",
    "SweepMetrics", "SweepPlan", "SweepServer", "WorkerPool",
    "arch_state_digest", "cache_key", "corpus_plan", "e1_main", "e2_window",
    "e3_recovery_cost", "e4_policies", "e5_network", "e6_commit_wave",
    "e7_conflict_sweep", "e8_storeset_ablation", "e9_corpus_ordering",
    "e10_squash_work",
    "execute_cell", "golden_for", "golden_of", "journals_under",
    "merge_session_metrics", "plan_digest", "reset_golden_memo",
    "run_cell_chunk", "run_point", "run_points", "session_shard_path",
    "table_t1", "table_t2", "write_session_shard",
]
