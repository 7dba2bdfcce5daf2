"""Error-injection campaigns and their statistics (paper §IV-A, Fig. 4/6)."""

from .criteria import (
    CRITERIA,
    ConfidenceDrop,
    Top1Misclassification,
    Top1NotInTopK,
    as_criterion,
)
from .parallel import ParallelCampaignExecutor
from .recovery import (
    CampaignJournal,
    JournalError,
    JournalMismatchError,
    RecoveryPolicy,
    load_journal,
    plan_fingerprint,
)
from .resume import ActivationCheckpointCache, CampaignResumeEngine
from .runner import CampaignInterrupted, CampaignResult, InjectionCampaign
from .trace import InjectionEvent, InjectionTrace, margin
from .stats import Proportion, normal_interval, required_trials, wilson_interval, z_score

__all__ = [
    "ActivationCheckpointCache",
    "CRITERIA",
    "CampaignInterrupted",
    "CampaignJournal",
    "CampaignResult",
    "CampaignResumeEngine",
    "ConfidenceDrop",
    "JournalError",
    "JournalMismatchError",
    "RecoveryPolicy",
    "InjectionCampaign",
    "InjectionEvent",
    "InjectionTrace",
    "ParallelCampaignExecutor",
    "load_journal",
    "margin",
    "plan_fingerprint",
    "Proportion",
    "Top1Misclassification",
    "Top1NotInTopK",
    "as_criterion",
    "normal_interval",
    "required_trials",
    "wilson_interval",
    "z_score",
]
