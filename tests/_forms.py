"""Force the form every knapsack table takes, for tests that check both.

`blkp.knapsack._use_list` picks a dense DP row or a list of all
selections for each table; these helpers replace that rule for one test.
"""

from blkp import knapsack

FORMS = ("dense", "list")


def force(monkeypatch, form):
    """Build every knapsack table as `form` ("dense" or "list") until the test ends."""
    monkeypatch.setattr(knapsack, "_use_list", lambda n, length: form == "list")


def each_form(monkeypatch):
    """Force each form in turn, yielding its name."""
    for form in FORMS:
        force(monkeypatch, form)
        yield form
