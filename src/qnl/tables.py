"""Budget tables and their CSV/JSON serialization.

Number formatting is the shortest round-trip decimal (Python float repr),
column order is fixed, and emit(parse(text)) == text byte for byte.
Lossless-probe thresholds are infinite; they serialize as the string "inf"
in CSV and as null in JSON.
"""

from __future__ import annotations

import json
import math
from dataclasses import dataclass
from typing import Iterable, Sequence

from .errors import ConfigError

BUDGET_COLUMNS = (
    "omega",
    "sql",
    "dql",
    "s_thr",
    "s_sum_opt",
    "regime",
    "s_fdt",
    "s_total",
    "sigma_opt",
    "s_xx_opt",
    "re_s_xf_opt",
    "im_s_xf_opt",
)

SPIN_FIGURE_COLUMNS = (
    "s_ff",
    "s_sum_full",
    "s_sum_sigma_zero",
    "s_sum_spin_matched",
    "regime_full",
)
_BUDGET_FLOATS = tuple(c for c in BUDGET_COLUMNS if c != "regime")


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


@dataclass(frozen=True)
class TableMeta:
    kind: str
    version: str
    config_hash: str
    transitions: tuple


def _format_value(value) -> str:
    if isinstance(value, str):
        return value
    return repr(float(value))


def _meta_lines(meta: TableMeta) -> list[str]:
    return [
        f"# qnl {meta.kind} v{meta.version}",
        f"# config_hash={meta.config_hash}",
        "# transitions=" + ",".join(repr(float(t)) for t in meta.transitions),
        "# lossless thresholds serialize as inf (null in JSON)",
    ]


def _emit_csv(meta: TableMeta, columns: Sequence[str], rows: Iterable[Sequence]) -> str:
    lines = _meta_lines(meta)
    lines.append(",".join(columns))
    for row in rows:
        lines.append(",".join(_format_value(v) for v in row))
    return "\n".join(lines) + "\n"


def _parse_csv(text: str, kind: str, columns: Sequence[str], str_columns: set[str]):
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
    rows = []
    for idx, line in enumerate(lines[5:], start=6):
        if not line:
            continue
        parts = line.split(",")
        if len(parts) != len(columns):
            raise ConfigError(f"line {idx}: expected {len(columns)} fields, got {len(parts)}")
        try:
            rows.append([
                part if col in str_columns else float(part)
                for col, part in zip(columns, parts)
            ])
        except ValueError as exc:
            raise ConfigError(f"line {idx}: {exc}") from None
    meta = TableMeta(kind=kind, version=version, config_hash=config_hash, transitions=transitions)
    return meta, rows


def _emit_json(meta: TableMeta, columns: Sequence[str], rows: Iterable[Sequence]) -> str:
    payload = {
        "kind": meta.kind,
        "version": meta.version,
        "config_hash": meta.config_hash,
        "transitions": list(meta.transitions),
        "columns": list(columns),
        "rows": [
            {
                col: (None if isinstance(v, float) and not math.isfinite(v) else v)
                for col, v in zip(columns, row)
            }
            for row in rows
        ],
    }
    return json.dumps(payload, indent=2) + "\n"


def _decode_json(text: str) -> dict:
    try:
        payload = json.loads(text)
    except json.JSONDecodeError as exc:
        raise ConfigError(f"line {exc.lineno} column {exc.colno}: {exc.msg}") from None
    if not isinstance(payload, dict):
        raise ConfigError(f"expected a JSON object, got {type(payload).__name__}")
    return payload


def _parse_json(payload: dict, kind: str, columns: Sequence[str], str_columns: set[str]):
    if payload.get("kind") != kind:
        raise ConfigError(f"expected a {kind!r} table, got {payload.get('kind')!r}")
    if tuple(payload.get("columns", ())) != tuple(columns):
        raise ConfigError(f"unexpected columns {payload.get('columns')!r}")
    try:
        rows = []
        for entry in payload["rows"]:
            row = []
            for col in columns:
                value = entry[col]
                if col in str_columns:
                    row.append(str(value))
                else:
                    row.append(math.inf if value is None else float(value))
            rows.append(row)
        meta = TableMeta(
            kind=kind,
            version=str(payload["version"]),
            config_hash=str(payload["config_hash"]),
            transitions=tuple(float(t) for t in payload["transitions"]),
        )
    except KeyError as exc:
        raise ConfigError(f"malformed {kind} table: missing field {exc}") from None
    except (TypeError, ValueError) as exc:
        raise ConfigError(f"malformed {kind} table: {exc}") from None
    return meta, rows


def _build(cls, rows) -> list:
    """cls(*row) per row, minus the generated __init__, which only stores the
    fields and calls __post_init__: half the cost of a row in bulk."""
    points = []
    for row in rows:
        p = object.__new__(cls)
        p.__dict__.update(zip(cls.__dataclass_fields__, row))
        p.__post_init__()
        points.append(p)
    return points


class _Table:
    """Row access and parsing of both table kinds; each defines its emitters."""

    def rows(self) -> list[list]:
        return [[getattr(p, col) for col in self.COLUMNS] for p in self.points]

    @classmethod
    def _from_rows(cls, meta: TableMeta, rows):
        return cls(points=tuple(_build(cls._POINT, rows)), meta=meta)

    @classmethod
    def from_csv(cls, text: str):
        return cls._from_rows(*_parse_csv(text, cls._KIND, cls.COLUMNS, cls._STR_COLUMNS))

    @classmethod
    def from_json(cls, text: str):
        return cls._from_rows(
            *_parse_json(_decode_json(text), cls._KIND, cls.COLUMNS, cls._STR_COLUMNS)
        )


@dataclass(frozen=True)
class BudgetTable(_Table):
    """Frequency-ordered budget rows plus run metadata."""

    points: tuple
    meta: TableMeta

    COLUMNS = BUDGET_COLUMNS
    _KIND = "budget"
    _STR_COLUMNS = {"regime"}
    _POINT = BudgetPoint

    def to_csv(self) -> str:
        return _emit_csv(self.meta, self.COLUMNS, self.rows())

    def to_json(self) -> str:
        return _emit_json(self.meta, self.COLUMNS, self.rows())


@dataclass(frozen=True)
class SpinFigureTable(_Table):
    """The three-series back-action sweep (full, sigma-zero, spin-matched)."""

    points: tuple
    meta: TableMeta

    COLUMNS = SPIN_FIGURE_COLUMNS
    _KIND = "spin-figure"
    _STR_COLUMNS = {"regime_full"}
    _POINT = SpinFigurePoint

    def to_csv(self) -> str:
        return _emit_csv(self.meta, self.COLUMNS, self.rows())

    def to_json(self) -> str:
        return _emit_json(self.meta, self.COLUMNS, self.rows())


def load_table(text: str):
    """Load either table kind from CSV or JSON text, sniffing the format."""
    stripped = text.lstrip()
    if stripped.startswith("{"):
        payload = _decode_json(text)  # decoded once, then dispatched on its kind
        for cls in (BudgetTable, SpinFigureTable):
            if payload.get("kind") == cls._KIND:
                meta, rows = _parse_json(payload, cls._KIND, cls.COLUMNS, cls._STR_COLUMNS)
                del payload  # peak memory holds the document or the row objects, not both
                return cls._from_rows(meta, rows)
        raise ConfigError(f"unknown table kind {payload.get('kind')!r}")
    for cls in (BudgetTable, SpinFigureTable):
        if stripped.startswith(f"# qnl {cls._KIND}"):
            return cls.from_csv(text)
    raise ConfigError("unrecognized table format")
