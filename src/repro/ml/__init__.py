"""From-scratch online-learning substrate (no external ML dependencies).

Each agent's model maps to one learner here:

* SmartOverclock → :class:`repro.ml.qlearning.QLearner`
* SmartHarvest   → :class:`repro.ml.costsensitive.CostSensitiveClassifier`
* SmartMemory    → :class:`repro.ml.bandits.ThompsonSamplingState`
"""

from repro.ml.bandits import ThompsonSamplingState
from repro.ml.costsensitive import CostSensitiveClassifier, asymmetric_core_costs
from repro.ml.features import (
    FEATURE_NAMES,
    FeatureExtractor,
    distributional_features,
)
from repro.ml.linear import OnlineLinearRegression
from repro.ml.metrics import Ewma, RollingMean, RollingRate, StreamingMeanVar
from repro.ml.qlearning import QLearner

__all__ = [
    "CostSensitiveClassifier",
    "Ewma",
    "FEATURE_NAMES",
    "FeatureExtractor",
    "OnlineLinearRegression",
    "QLearner",
    "RollingMean",
    "RollingRate",
    "StreamingMeanVar",
    "ThompsonSamplingState",
    "asymmetric_core_costs",
    "distributional_features",
]
