"""Budget tables and their CSV/JSON serialization.

A table is its columns, one Python list each in the row class's form (float
or str; no -0.0 in a budget table), plus its TableMeta.  Sweeps build them in
that form in numpy; only loaded and scalar-path values are coerced (_coerced).
`.points`, the rows as BudgetPoint/SpinFigurePoint objects, is built on first read.

Number formatting is the shortest round-trip decimal (Python float repr),
column order is fixed, and emit(parse(text)) == text byte for byte.
Lossless-probe thresholds are infinite; they serialize as the string "inf"
in CSV and as null in JSON.  The JSON text is json.dumps(payload, indent=2),
written directly from a fixed per-row template.
"""

from __future__ import annotations

import json
import math
from dataclasses import dataclass
from functools import cached_property
from json.encoder import encode_basestring_ascii
from typing import Iterable

from .errors import ConfigError


@dataclass(frozen=True)
class BudgetPoint:
    """One frequency of the noise budget (all PSDs force-referred)."""

    omega: float
    sql: float
    dql: float
    s_thr: float
    s_sum_opt: float
    regime: str
    s_fdt: float
    s_total: float
    sigma_opt: float
    s_xx_opt: float
    re_s_xf_opt: float
    im_s_xf_opt: float

    def __post_init__(self) -> None:
        # via the instance dict (half the cost of object.__setattr__); + 0.0
        # normalizes -0.0 so emitted tables are stable
        v = self.__dict__
        for name in _BUDGET_FLOATS:
            v[name] = float(v[name]) + 0.0
        v["regime"] = str(v["regime"])


@dataclass(frozen=True)
class SpinFigurePoint:
    """One back-action budget of the three-way comparison sweep."""

    s_ff: float
    s_sum_full: float
    s_sum_sigma_zero: float
    s_sum_spin_matched: float
    regime_full: str

    def __post_init__(self) -> None:
        v = self.__dict__  # as in BudgetPoint
        for name in SPIN_FIGURE_COLUMNS[:4]:
            v[name] = float(v[name])
        v["regime_full"] = str(v["regime_full"])


# the column order of each table is its row class's field order
BUDGET_COLUMNS = tuple(BudgetPoint.__dataclass_fields__)
SPIN_FIGURE_COLUMNS = tuple(SpinFigurePoint.__dataclass_fields__)
_BUDGET_FLOATS = tuple(c for c in BUDGET_COLUMNS if c != "regime")


@dataclass(frozen=True)
class TableMeta:
    kind: str
    version: str
    config_hash: str
    transitions: tuple


def _emit_csv(table) -> str:
    meta = table.meta
    lines = [
        f"# qnl {meta.kind} v{meta.version}",
        f"# config_hash={meta.config_hash}",
        "# transitions=" + ",".join(repr(float(t)) for t in meta.transitions),
        "# lossless thresholds serialize as inf (null in JSON)",
        ",".join(table.COLUMNS),
    ]
    cols = [c if n in table._STR_COLUMNS else list(map(repr, c))
            for n, c in zip(table.COLUMNS, table.columns)]
    lines += map(",".join, zip(*cols))
    return "\n".join(lines) + "\n"


def _emit_json(table) -> str:
    """json.dumps(payload, indent=2) + "\\n" with non-finite numbers as null,
    byte for byte; the rows are written from a fixed template, because with
    indent json.dumps runs its pure-Python encoder."""
    meta, names = table.meta, table.COLUMNS
    head = json.dumps({"kind": meta.kind, "version": meta.version, "config_hash": meta.config_hash,
                       "transitions": list(meta.transitions), "columns": list(names)}, indent=2)
    cols = [list(map(encode_basestring_ascii, c)) if n in table._STR_COLUMNS  # as json.dumps
            else [repr(v) if math.isfinite(v) else "null" for v in c]
            for n, c in zip(names, table.columns)]
    row = "    {\n" + ",\n".join(f"      {json.dumps(n)}: %s" for n in names) + "\n    }"
    rows = ",\n".join(map(row.__mod__, zip(*cols)))
    # head ends "\n}": the rows go in as the payload's last key
    return head[:-2] + ',\n  "rows": ' + (f"[\n{rows}\n  ]" if rows else "[]") + "\n}\n"


def _parse_csv(cls, text: str):
    kind, columns = cls._KIND, cls.COLUMNS
    lines = text.splitlines()
    if len(lines) < 5:
        raise ConfigError(f"{kind} CSV too short to contain header and metadata")
    prefix = "# qnl "
    if not lines[0].startswith(prefix):
        raise ConfigError(f"line 1: expected '{prefix}... ' banner, got {lines[0]!r}")
    banner = lines[0][len(prefix):]
    got_kind, _, version = banner.rpartition(" v")
    if got_kind != kind:
        raise ConfigError(f"line 1: expected a {kind!r} table, got {got_kind!r}")
    if not lines[1].startswith("# config_hash="):
        raise ConfigError(f"line 2: expected '# config_hash=...', got {lines[1]!r}")
    config_hash = lines[1].split("=", 1)[1]
    if not lines[2].startswith("# transitions="):
        raise ConfigError(f"line 3: expected '# transitions=...', got {lines[2]!r}")
    raw = lines[2].split("=", 1)[1]
    try:
        transitions = tuple(float(t) for t in raw.split(",")) if raw else ()
    except ValueError as exc:
        raise ConfigError(f"line 3: malformed transitions: {exc}") from None
    header = lines[4]
    if header != ",".join(columns):
        raise ConfigError(f"line 5: unexpected column header {header!r}")
    meta = TableMeta(kind=kind, version=version, config_hash=config_hash, transitions=transitions)
    rows = [line.split(",") for line in lines[5:] if line]
    try:
        if any(len(parts) != len(columns) for parts in rows):
            raise ValueError
        return cls._of(cls._coerced(list(zip(*rows)) or [()] * len(columns)), meta)  # float() raises
    except ValueError:  # malformed: read row by row, for the first offending line
        for idx, line in ((i, line) for i, line in enumerate(lines[5:], start=6) if line):
            parts = line.split(",")
            if len(parts) != len(columns):
                raise ConfigError(f"line {idx}: expected {len(columns)} fields, got {len(parts)}")
            try:
                cls._coerced([[p] for p in parts])
            except ValueError as exc:
                raise ConfigError(f"line {idx}: {exc}") from None
        raise


def _decode_json(text: str) -> dict:
    try:
        payload = json.loads(text)
    except json.JSONDecodeError as exc:
        raise ConfigError(f"line {exc.lineno} column {exc.colno}: {exc.msg}") from None
    if not isinstance(payload, dict):
        raise ConfigError(f"expected a JSON object, got {type(payload).__name__}")
    return payload


def _parse_json(cls, payload: dict):
    kind, columns, str_columns = cls._KIND, cls.COLUMNS, cls._STR_COLUMNS
    if payload.get("kind") != kind:
        raise ConfigError(f"expected a {kind!r} table, got {payload.get('kind')!r}")
    if tuple(payload.get("columns", ())) != tuple(columns):
        raise ConfigError(f"unexpected columns {payload.get('columns')!r}")
    try:
        entries = payload["rows"]
        try:
            table = cls._of(cls._coerced([[entry[c] for entry in entries] if c in str_columns else
                                          [math.inf if (v := entry[c]) is None else v
                                           for entry in entries] for c in columns]), None)
        except (KeyError, TypeError, ValueError):  # malformed: the first bad entry, row by row
            for entry in entries:
                for c in columns:
                    if (value := entry[c]) is not None and c not in str_columns:
                        float(value)
            raise
        table.meta = TableMeta(kind, str(payload["version"]), str(payload["config_hash"]),
                               tuple(float(t) for t in payload["transitions"]))
    except KeyError as exc:
        raise ConfigError(f"malformed {kind} table: missing field {exc}") from None
    except (TypeError, ValueError) as exc:
        raise ConfigError(f"malformed {kind} table: {exc}") from None
    return table


class _Table:
    """Columns, meta, the row view and parsing of both table kinds; each
    kind defines its emitters and how its float columns are coerced."""

    def __init__(self, points: Iterable, meta: TableMeta):
        self.points = tuple(points)  # row objects, which coerced their fields
        self.columns = tuple([getattr(p, c) for p in self.points] for c in self.COLUMNS)
        self.meta = meta

    @classmethod
    def _of(cls, columns, meta: TableMeta | None):
        """The table of these columns, lists already in the row class's form."""
        table = object.__new__(cls)
        table.meta = meta
        table.columns = tuple(columns)
        return table

    @classmethod
    def _coerced(cls, columns) -> list:
        """Loaded or scalar-path columns, coerced as the row class coerces its fields."""
        return [list(map(str, col)) if name in cls._STR_COLUMNS else cls._floats(col)
                for name, col in zip(cls.COLUMNS, columns)]

    @cached_property
    def points(self) -> tuple:
        """The rows as point objects, built on first read (rows() is cheaper), minus
        the generated __init__, which only stores the fields and calls __post_init__."""
        cls, points = self._POINT, []
        for row in zip(*self.columns):
            p = object.__new__(cls)
            p.__dict__.update(zip(cls.__dataclass_fields__, row))
            p.__post_init__()
            points.append(p)
        return tuple(points)

    def rows(self) -> list[list]:
        return [list(r) for r in zip(*self.columns)]

    def __eq__(self, other):
        if type(other) is not type(self):
            return NotImplemented
        return (self.columns, self.meta) == (other.columns, other.meta)

    def __repr__(self) -> str:
        return f"{type(self).__name__}(<{len(self.columns[0])} rows>, meta={self.meta!r})"

    from_csv = classmethod(_parse_csv)

    @classmethod
    def from_json(cls, text: str):
        return _parse_json(cls, _decode_json(text))


class BudgetTable(_Table):
    """Frequency-ordered budget rows plus run metadata."""

    COLUMNS = BUDGET_COLUMNS
    _KIND = "budget"
    _STR_COLUMNS = {"regime"}
    _POINT = BudgetPoint

    # as BudgetPoint's float(v) + 0.0, which turns -0.0 into 0.0 (falsy), minus a new float each
    _floats = staticmethod(lambda col: [float(v) or 0.0 for v in col])

    to_csv, to_json = _emit_csv, _emit_json


class SpinFigureTable(_Table):
    """The three-series back-action sweep (full, sigma-zero, spin-matched)."""

    COLUMNS = SPIN_FIGURE_COLUMNS
    _KIND = "spin-figure"
    _STR_COLUMNS = {"regime_full"}
    _POINT = SpinFigurePoint

    _floats = staticmethod(lambda col: list(map(float, col)))

    to_csv, to_json = _emit_csv, _emit_json


def load_table(text: str):
    """Load either table kind from CSV or JSON text, sniffing the format."""
    stripped = text.lstrip()
    if stripped.startswith("{"):
        payload = _decode_json(text)  # decoded once, then dispatched on its kind
        for cls in (BudgetTable, SpinFigureTable):
            if payload.get("kind") == cls._KIND:
                return _parse_json(cls, payload)
        raise ConfigError(f"unknown table kind {payload.get('kind')!r}")
    for cls in (BudgetTable, SpinFigureTable):
        if stripped.startswith(f"# qnl {cls._KIND}"):
            return cls.from_csv(text)
    raise ConfigError("unrecognized table format")
