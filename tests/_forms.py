"""Force the form every knapsack table takes, for tests that check each.

`blkp.knapsack._form` picks a dense DP row, a covering DP row or a list
of all selections for each table; these helpers replace that rule for
one test. A table with no covering form, the exact-weight leader table,
is dense where "cover" is forced.
"""

from blkp import knapsack

FORMS = ("dense", "list", "cover")


def force(monkeypatch, form):
    """Build every knapsack table as `form` ("dense", "list" or "cover") until the test ends."""
    monkeypatch.setattr(knapsack, "_form", lambda n, length, cover_length:
                        "dense" if form == "cover" and cover_length is None else form)


def each_form(monkeypatch):
    """Force each form in turn, yielding its name."""
    for form in FORMS:
        force(monkeypatch, form)
        yield form
