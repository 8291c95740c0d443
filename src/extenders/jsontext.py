"""The text of a ``--json`` report, byte for byte as
``json.dumps(value, sort_keys=True, indent=2)`` writes it.

The CLI has an encoder of its own, because Python 3.11 uses its C encoder
only when ``indent`` is None; with an indent, ``json`` runs a pure-Python
generator that writes each integer of a face list as a separate chunk.
The encoder writes a face list as one string from ``str``
of its int lists.  It writes a list of records, such as the interval
records and the attachment log, column by column: one such string for all
the int lists of a key, and one recursive call for all the records listed
under a key.  A list or record that a report shares between its parts (the
extender's facets, each partition, each interval's record in its partition
and in its log entry) is encoded once per report.
"""

from __future__ import annotations

import itertools
import json
from operator import itemgetter
from typing import Optional

_INDENT = "  "
_quote = json.encoder.encode_basestring_ascii


def _int_lists(lists: list, indent: str) -> list:
    """The texts of a non-empty list of lists (not tuples) of ints, each at
    indentation ``indent``.  ``str`` writes them all in one call, as
    ``[[1, 2], [], [3]]``; only the separators need rewriting, since no
    digit run holds a bracket or a comma."""
    inner = indent + _INDENT
    sep = ",\n" + inner
    opening, closing = "[\n" + inner, "\n" + indent + "]"
    bodies = str(lists)[2:-2].replace(", ", sep).split("]" + sep + "[")
    return [opening + body + closing if body else "[]" for body in bodies]


def _record_texts(records: list, indent: str, memo: dict) -> Optional[list]:
    """The texts of a non-empty list of dicts, each at indentation
    ``indent``, if they are records; None if not.  A record is a dict whose
    keys are the first record's, all str, and whose every value is a list
    of ints or, recursively, a list of records: interval records and the
    attachment log have this shape.

    The records are written column by column.  All the int lists of one
    key are written by one :func:`_int_lists` call; all the records in the
    lists of one key by one recursive call, whose texts are then split back
    to their lists.  A row is a %-template over its value texts in key
    order, so each level of nesting is one call.

    Each record's text goes into ``memo``, as :func:`_encode` keeps it.  A
    list whose records were all written before, at one indentation, is
    re-indented in one pass: a report lists each interval's record in its
    partition and in its attachment-log entry."""
    seen = list(map(memo.get, map(id, records)))
    if None not in seen and len(set(map(itemgetter(0), seen))) == 1:
        # A NUL in a string is written as \u0000, so it parts the texts.
        return _reindent("\0".join(map(itemgetter(1), seen)), seen[0][0], indent).split("\0")
    first = records[0]
    if not first or set(map(type, first)) != {str} or set(map(len, records)) != {len(first)}:
        return None
    names = sorted(first)
    try:
        table = [list(map(itemgetter(name), records)) for name in names]
    except KeyError:  # a record with as many keys, but other ones
        return None
    field = indent + _INDENT
    inner = field + _INDENT
    columns = []
    for values in table:
        if set(map(type, values)) != {list}:
            return None
        items = list(itertools.chain.from_iterable(values))
        kinds = set(map(type, items))
        if kinds <= {int}:
            columns.append(_int_lists(values, field))
            continue
        texts = _record_texts(items, inner, memo) if kinds == {dict} else None
        if texts is None:
            return None
        rows, sep, start = [], ",\n" + inner, 0
        for value in values:
            end = start + len(value)
            rows.append("[\n" + inner + sep.join(texts[start:end]) + "\n" + field + "]"
                        if value else "[]")
            start = end
        columns.append(rows)
    row = "{" + ",".join(["\n" + field + _quote(name).replace("%", "%%") + ": %s"
                          for name in names]) + "\n" + indent + "}"
    texts = [row % values for values in zip(*columns)]
    memo.update(zip(map(id, records), zip(itertools.repeat(indent), texts)))
    return texts


def _reindent(text: str, at: str, indent: str) -> str:
    """``text``, written at indentation ``at``, at indentation ``indent``."""
    return text if at == indent else text.replace("\n" + at, "\n" + indent)


def _encode(value, indent: str, memo: dict) -> str:
    """The text of ``value`` at indentation ``indent``, as
    ``json.dumps(value, sort_keys=True, indent=2)`` writes it.

    Takes the JSON types exactly: dicts with str keys, lists, tuples, str,
    int, float, bool and None.  Anything else raises ``TypeError``.  Each
    level of nesting is one call, as in ``json``'s own encoder, so any value
    that ``json.loads`` could read back is written.

    ``memo`` maps the ``id`` of each list, tuple and dict encoded so far in
    one :func:`_dumps` call to its indentation and text, so a value shared
    between parts of a report is encoded once.  At another indentation the
    text is re-indented by rewriting the indentation after each newline;
    that is exact, because a newline in the text is never inside a string,
    where it is written as ``\\n``."""
    kind = type(value)
    if kind is str:
        return _quote(value)
    if kind is int:
        return int.__repr__(value)
    if kind is float:
        return json.dumps(value)
    if value is None:
        return "null"
    if kind is bool:
        return "true" if value else "false"
    if kind is not list and kind is not tuple and kind is not dict:
        raise TypeError(f"Object of type {kind.__name__} is not JSON serializable")
    if not value:
        return "{}" if kind is dict else "[]"
    seen = memo.get(id(value))
    if seen is not None:
        return _reindent(seen[1], seen[0], indent)
    inner = indent + _INDENT
    sep = ",\n" + inner
    if kind is dict:
        parts = []
        for key in sorted(value):
            if type(key) is not str:
                raise TypeError(f"keys must be str, not {type(key).__name__}")
            parts.append(_quote(key) + ": " + _encode(value[key], inner, memo))
        text = "{\n" + inner + sep.join(parts) + "\n" + indent + "}"
    else:
        kinds = set(map(type, value))
        text = None
        if kinds == {int}:
            text = _int_lists([list(value)], indent)[0]
        elif (kinds == {list} and all(value)
              and set(map(type, itertools.chain.from_iterable(value))) == {int}):
            # A face list: each row is a non-empty list of ints.
            text = "[\n" + inner + sep.join(_int_lists(list(value), inner)) + "\n" + indent + "]"
        elif kinds == {dict}:
            rows = _record_texts(value, inner, memo)
            if rows is not None:
                text = "[\n" + inner + sep.join(rows) + "\n" + indent + "]"
        if text is None:
            parts = []
            for item in value:
                parts.append(_encode(item, inner, memo))
            text = "[\n" + inner + sep.join(parts) + "\n" + indent + "]"
    memo[id(value)] = indent, text
    return text


def _dumps(value) -> str:
    """``json.dumps(value, sort_keys=True, indent=2)``, byte for byte."""
    return _encode(value, "", {})
