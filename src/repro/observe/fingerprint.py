"""Statement canonicalization and query fingerprinting.

One normalizer, three consumers: the plan cache keys entries on
:func:`canonicalize_sql` (whitespace collapsed, literals preserved —
``'very  tall'`` and ``'very tall'`` are different linguistic terms), each
query event stores the same canonical text, and workload analytics group on
:func:`fingerprint_sql` — a stable short id of the *statement template*,
where every literal and ``?`` placeholder collapses to ``?``.  Two
executions of the same statement shape with different constants (or
different prepared-statement bindings) therefore share a fingerprint,
which is what lets ``\\top`` and the slow-query report aggregate a
workload by statement identity instead of by raw text.

The split matters: the plan cache must *not* conflate different literals
(a grouped anti-join bakes its comparison values into the compiled
predicate), while workload analytics must.  Both behaviours share the
same scanner so they can never disagree about what counts as a literal.
"""

from __future__ import annotations

import hashlib
from dataclasses import dataclass

#: Hex digits of the SHA-256 template digest kept as the fingerprint id.
FINGERPRINT_HEX_DIGITS = 12


def canonicalize_sql(text: str) -> str:
    """Collapse insignificant whitespace so equivalent texts share a key.

    Runs of whitespace *outside* string literals become single spaces and
    leading/trailing whitespace is dropped; quoted literals are copied
    verbatim.  Keyword case is left alone — the lexer is case-insensitive
    for keywords but identifiers and linguistic terms are data.
    """
    out = []
    pending_space = False
    i, n = 0, len(text)
    while i < n:
        ch = text[i]
        if ch.isspace():
            pending_space = True
            i += 1
            continue
        if pending_space and out:
            out.append(" ")
        pending_space = False
        if ch in "'\"":
            end = text.find(ch, i + 1)
            end = n - 1 if end == -1 else end
            out.append(text[i:end + 1])
            i = end + 1
            continue
        out.append(ch)
        i += 1
    return "".join(out)


def statement_template(text: str) -> str:
    """The canonical text with every literal replaced by ``?``.

    Quoted strings and numeric literals become ``?``; numbers embedded in
    identifiers (``R1.K``) are left alone, as are existing ``?``
    placeholders — so a prepared statement template and any statement
    executing it with inline constants render identically.
    """
    canonical = canonicalize_sql(text)
    out = []
    i, n = 0, len(canonical)
    while i < n:
        ch = canonical[i]
        if ch in "'\"":
            end = canonical.find(ch, i + 1)
            end = n - 1 if end == -1 else end
            out.append("?")
            i = end + 1
            continue
        if ch.isdigit() and not (out and (out[-1].isalnum() or out[-1] in "_?")):
            j = i
            while j < n and (canonical[j].isdigit() or canonical[j] == "."):
                j += 1
            # Exponent tail of scientific notation (1e-3, 2.5E+7).
            if j < n and canonical[j] in "eE":
                k = j + 1
                if k < n and canonical[k] in "+-":
                    k += 1
                if k < n and canonical[k].isdigit():
                    j = k
                    while j < n and canonical[j].isdigit():
                        j += 1
            out.append("?")
            i = j
            continue
        out.append(ch)
        i += 1
    return "".join(out)


@dataclass(frozen=True)
class Fingerprint:
    """A statement identity: the short id and the template it digests."""

    id: str
    template: str


def fingerprint(text: str) -> Fingerprint:
    """The :class:`Fingerprint` of one statement text."""
    template = statement_template(text)
    digest = hashlib.sha256(template.encode("utf-8")).hexdigest()
    return Fingerprint(digest[:FINGERPRINT_HEX_DIGITS], template)


def fingerprint_sql(text: str) -> str:
    """Just the fingerprint id of one statement text."""
    return fingerprint(text).id


__all__ = [
    "FINGERPRINT_HEX_DIGITS",
    "Fingerprint",
    "canonicalize_sql",
    "fingerprint",
    "fingerprint_sql",
    "statement_template",
]
