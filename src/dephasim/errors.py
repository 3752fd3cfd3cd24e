"""Exception types shared across the package."""


class UnsupportedScenarioError(ValueError):
    """No closed-form reference exists for the requested (state, scenario) pair."""
