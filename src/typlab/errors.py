"""The one exception type of typlab.

Every failure the library detects, from a non-Hermitian matrix to a
malformed config or CSV file, raises :class:`TyplabError`; its message
names the check that failed and the offending value.  The CLI catches it
and prints the message as one ``error:`` line.
"""


class TyplabError(Exception):
    """A typlab check failed; the message says which and why."""
