"""Force the form every knapsack table takes, for tests that check each.

`blkp.knapsack._use_list` decides whether each table is a list of all
selections or a row: the covering row for an at-most table, the dense
row for an exact-weight one. These helpers replace that rule for one
test.
"""

from blkp import knapsack

FORMS = ("row", "list")


def force(monkeypatch, form):
    """Build every knapsack table as `form` ("row" or "list") until the test ends."""
    monkeypatch.setattr(knapsack, "_use_list", lambda n, length: form == "list")


def each_form(monkeypatch):
    """Force each form in turn, yielding its name."""
    for form in FORMS:
        force(monkeypatch, form)
        yield form
