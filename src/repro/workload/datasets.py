"""Synthetic stand-ins for the ShareGPT and Alpaca request datasets.

The paper samples request lengths from ShareGPT (long, conversational
prompts and responses) and Alpaca (short instruction-following prompts and
responses).  Neither dataset is available offline, so this module provides
length distributions calibrated to the statistics commonly reported for
them: log-normally distributed prompt and response lengths with the means /
spreads listed in :data:`DATASET_PROFILES`.

The substitution preserves the behaviour that matters to the simulator: the
ratio of prefill to decode work, the variance of sequence lengths inside a
batch (which drives selective batching and KV paging), and the total memory
pressure of a request stream.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Dict, List, Tuple

__all__ = ["DatasetProfile", "DATASET_PROFILES", "LengthSampler", "get_profile"]


@dataclass(frozen=True)
class DatasetProfile:
    """Log-normal length statistics of a request dataset.

    Attributes
    ----------
    name:
        Dataset name (``"sharegpt"`` or ``"alpaca"``).
    mean_input_tokens / mean_output_tokens:
        Target mean prompt / response lengths in tokens.
    sigma_input / sigma_output:
        Log-space standard deviations controlling the spread.
    min_tokens / max_tokens:
        Clamping bounds applied after sampling.
    """

    name: str
    mean_input_tokens: float
    mean_output_tokens: float
    sigma_input: float
    sigma_output: float
    min_tokens: int = 4
    max_tokens: int = 2048


#: Length statistics for the datasets used in the paper's evaluation.
#: ShareGPT has long, high-variance conversations; Alpaca has short
#: instruction prompts and short answers.
DATASET_PROFILES: Dict[str, DatasetProfile] = {
    "sharegpt": DatasetProfile(
        name="sharegpt",
        mean_input_tokens=161.0,
        mean_output_tokens=338.0,
        sigma_input=1.0,
        sigma_output=0.9,
    ),
    "alpaca": DatasetProfile(
        name="alpaca",
        mean_input_tokens=20.0,
        mean_output_tokens=58.0,
        sigma_input=0.7,
        sigma_output=0.8,
        max_tokens=1024,
    ),
}


def get_profile(name: str) -> DatasetProfile:
    """Look up a dataset profile by (case-insensitive) name."""
    key = name.lower()
    if key not in DATASET_PROFILES:
        known = ", ".join(sorted(DATASET_PROFILES))
        raise KeyError(f"unknown dataset {name!r}; known datasets: {known}")
    return DATASET_PROFILES[key]


class LengthSampler:
    """Samples (input_tokens, output_tokens) pairs from a dataset profile.

    The sampler is deterministic for a given seed so that experiments are
    reproducible run to run.
    """

    def __init__(self, profile: DatasetProfile, seed: int = 0) -> None:
        import numpy as np

        self.profile = profile
        self._rng = np.random.default_rng(seed)
        # Choose each mu so that the log-normal's mean equals the target mean.
        sigma_in, sigma_out = profile.sigma_input, profile.sigma_output
        self._input_mu = np.log(profile.mean_input_tokens) - 0.5 * sigma_in * sigma_in
        self._output_mu = np.log(profile.mean_output_tokens) - 0.5 * sigma_out * sigma_out

    def _sample_lognormal(self, mu: float, sigma: float) -> int:
        value = self._rng.lognormal(mean=mu, sigma=sigma)
        return int(min(max(round(value), self.profile.min_tokens), self.profile.max_tokens))

    def sample(self) -> Tuple[int, int]:
        """Draw one (prompt length, response length) pair."""
        input_tokens = self._sample_lognormal(self._input_mu, self.profile.sigma_input)
        output_tokens = self._sample_lognormal(self._output_mu, self.profile.sigma_output)
        return input_tokens, output_tokens

    def sample_many(self, count: int) -> List[Tuple[int, int]]:
        """Draw ``count`` length pairs."""
        if count < 0:
            raise ValueError("count must be non-negative")
        return [self.sample() for _ in range(count)]
