"""Command-line front end: YAML config plus flag overrides, corpus walking,
table serialization, and the run report.

Exit codes: 0 full success, 1 configuration or fatal error, 2 partial
success (some scores failed; see the report).
"""

from __future__ import annotations

import argparse
import gc
import logging
import sys
from dataclasses import dataclass, field
from pathlib import Path
from typing import Optional, TextIO

import yaml

from .engine import (
    SCORE_EXTENSIONS,
    ConfigError,
    ExtractorConfig,
    RunReport,
    extract,
)
from .postprocess import MergeGroup, ProcessorConfig, process
from .table import FeatureTable

log = logging.getLogger(__name__)

OUTPUT_FORMATS = ("csv", "jsonl")

# The collector's gen0 threshold from ``run``'s extract to its report. A parse
# allocates many objects that live until its score is built, and the table's
# columns live until they are written: the default of 700 runs the collector
# over them again and again.
GC_GEN0_THRESHOLD = 50_000


@dataclass
class RunConfig:
    extractor: ExtractorConfig = field(default_factory=ExtractorConfig)
    processor: ProcessorConfig = field(default_factory=ProcessorConfig)
    output_path: Optional[Path] = None
    output_format: str = "csv"
    report_path: Optional[Path] = None
    log_level: str = "WARNING"


def _expect(value, kinds, keypath: str):
    if not isinstance(value, kinds):
        names = "/".join(k.__name__ for k in (kinds if isinstance(kinds, tuple) else (kinds,)))
        raise ConfigError(f"{keypath}: expected {names}, got {type(value).__name__} ({value!r})")
    return value


def _as_int(value, keypath: str) -> int:
    if isinstance(value, bool) or not isinstance(value, int):
        raise ConfigError(f"{keypath}: expected integer, got {value!r}")
    return value


def _as_name_list(value, keypath: str) -> list[str]:
    if isinstance(value, str):
        return [part.strip() for part in value.split(",") if part.strip()]
    _expect(value, list, keypath)
    return [str(_expect(v, str, f"{keypath}[{i}]")) for i, v in enumerate(value)]


def _merge_groups(value, keypath: str) -> list[MergeGroup]:
    _expect(value, list, keypath)
    groups = []
    for i, item in enumerate(value):
        _expect(item, dict, f"{keypath}[{i}]")
        pattern = _expect(item.get("pattern", ""), str, f"{keypath}[{i}].pattern")
        target = item.get("target")
        if not pattern or not isinstance(target, str) or not target:
            raise ConfigError(f"{keypath}[{i}]: needs 'pattern' and 'target'")
        stats = item.get("stats", ["mean"])
        groups.append(MergeGroup(pattern=pattern, target=target,
                                 stats=tuple(_as_name_list(stats, f"{keypath}[{i}].stats"))))
    return groups


def _as_path(value, keypath: str) -> Path:
    return Path(_expect(value, (str, Path), keypath))


def _as_str(value, keypath: str) -> str:
    return _expect(value, str, keypath)


def _as_bool(value, keypath: str) -> bool:
    return _expect(value, bool, keypath)


# Config key -> (YAML section, converter). YAML keys and flag overrides both
# go through this table; "" is the top level of the YAML file.
_SETTINGS = {
    **dict.fromkeys(("xml_dir", "harmony_dir", "cache_dir"), ("extract", _as_path)),
    **dict.fromkeys(("features", "basic_modules", "hooks"), ("extract", _as_name_list)),
    **dict.fromkeys(("window_size", "window_overlap"), ("extract", _as_int)),
    **dict.fromkeys(("replace_missing_with_zero", "drop_columns"), ("process", _as_name_list)),
    "merge_groups": ("process", _merge_groups),
    "keep_raw_after_merge": ("process", _as_bool),
    "output": ("", _as_path),
    "format": ("", _as_str),
    "report": ("", _as_path),
    "log_level": ("", _as_str),
}
_SECTIONS = {"extract": "extractor", "process": "processor"}
_TOP_ATTRS = {"output": "output_path", "format": "output_format", "report": "report_path"}


def _apply(config: RunConfig, key: str, value, keypath: str) -> None:
    section, convert = _SETTINGS[key]
    target = getattr(config, _SECTIONS[section]) if section else config
    setattr(target, _TOP_ATTRS.get(key, key), convert(value, keypath))


def _apply_yaml(config: RunConfig, section: str, mapping) -> None:
    _expect(mapping, dict, section or "config root")
    for key, value in mapping.items():
        keypath = f"{section}.{key}" if section else key
        if not section and key in _SECTIONS:
            _apply_yaml(config, key, value or {})
        elif key in _SETTINGS and _SETTINGS[key][0] == section:
            _apply(config, key, value, keypath)
        else:
            log.warning("unknown config key %r ignored", keypath)


def load_config(yaml_path: Optional[Path], overrides: Optional[dict] = None) -> RunConfig:
    """defaults <- YAML <- flag overrides, later layers winning per key."""
    config = RunConfig()
    if yaml_path is not None:
        try:
            # libyaml's loader where PyYAML was built with it, several
            # times faster than the pure-Python one
            raw = yaml.load(Path(yaml_path).read_text("utf-8"),
                            Loader=getattr(yaml, "CSafeLoader", yaml.SafeLoader))
        except OSError as exc:
            raise ConfigError(f"cannot read config file: {exc}") from exc
        except yaml.YAMLError as exc:
            raise ConfigError(f"bad YAML in {yaml_path}: {exc}") from exc
        _apply_yaml(config, "", raw if raw is not None else {})

    for key, value in (overrides or {}).items():
        if value is None:
            continue
        if key not in _SETTINGS:
            raise ConfigError(f"unknown override {key!r}")
        _apply(config, key, value, f"--{key.replace('_', '-')}")

    if config.output_format not in OUTPUT_FORMATS:
        raise ConfigError(f"format must be one of {OUTPUT_FORMATS}, got {config.output_format!r}")
    # a name maps to its number; an unknown name maps to "Level <name>"
    if not isinstance(logging.getLevelName(config.log_level.upper()), int):
        raise ConfigError(f"log_level must be a logging level name, got {config.log_level!r}")
    return config


class _Parser(argparse.ArgumentParser):
    def error(self, message):  # config errors exit 1, not argparse's 2
        raise ConfigError(message)


def build_parser() -> argparse.ArgumentParser:
    parser = _Parser(
        prog="scorefeat",
        description="Extract musicological features from MusicXML/MIDI scores "
        "into a CSV or JSONL table.",
    )
    parser.add_argument("--config", type=Path, default=None, help="YAML config file")
    parser.add_argument("--xml-dir", dest="xml_dir", default=None,
                        help="directory holding the score files")
    parser.add_argument("--harmony-dir", dest="harmony_dir", default=None,
                        help="directory holding <stem>.harmony.tsv annotation files")
    parser.add_argument("--features", default=None,
                        help="comma-separated feature modules (default: all stock modules)")
    parser.add_argument("--window-size", dest="window_size", type=int, default=None,
                        help="measure-window length; omit for one row per score")
    parser.add_argument("--window-overlap", dest="window_overlap", type=int, default=None,
                        help="measures shared by consecutive windows (default 0)")
    parser.add_argument("--cache-dir", dest="cache_dir", default=None,
                        help="cache directory for parsed scores")
    # accepted and ignored (files run one at a time) until old scripts stop passing it
    parser.add_argument("--jobs", type=int, default=None, help=argparse.SUPPRESS)
    parser.add_argument("--output", default=None, help="output file (default: stdout)")
    parser.add_argument("--format", default=None, choices=OUTPUT_FORMATS,
                        help="output format (default csv)")
    parser.add_argument("--report", default=None, help="write the JSON-lines run report here")
    parser.add_argument("--log-level", dest="log_level", default=None,
                        help="logging level (default WARNING)")
    return parser


def collect_score_paths(xml_dir: Path) -> list[Path]:
    paths = [
        p
        for p in xml_dir.rglob("*")
        if p.is_file() and p.suffix.lower() in SCORE_EXTENSIONS
    ]
    return sorted(paths, key=lambda p: p.as_posix())


def _serialize(table: FeatureTable, config: RunConfig, stream: TextIO) -> None:
    if config.output_format == "csv":
        table.to_csv(stream)
    else:
        table.to_jsonl(stream)


def run(argv: Optional[list[str]] = None) -> int:
    parser = build_parser()
    try:
        args = parser.parse_args(argv)
        overrides = {
            k: v for k, v in vars(args).items() if k not in ("config", "jobs") and v is not None
        }
        config = load_config(args.config, overrides)
        logging.basicConfig(level=config.log_level.upper())
        if args.jobs is not None:
            log.warning("--jobs is ignored: files run one at a time")

        if config.extractor.xml_dir is None:
            raise ConfigError("no input directory: pass --xml-dir or set extract.xml_dir")
        xml_dir = Path(config.extractor.xml_dir)
        if not xml_dir.is_dir():
            raise ConfigError(f"input directory {xml_dir} does not exist")
        paths = collect_score_paths(xml_dir)
        if not paths:
            raise ConfigError(f"no score files found under {xml_dir}")

        report = RunReport()
        threshold = gc.get_threshold()
        gc.set_threshold(GC_GEN0_THRESHOLD, *threshold[1:])
        try:
            table = extract(config.extractor, paths, report=report)
            table = process(table, config.processor, report)

            if config.output_path is not None:
                config.output_path.parent.mkdir(parents=True, exist_ok=True)
                with open(config.output_path, "w", encoding="utf-8") as out:
                    _serialize(table, config, out)
            else:
                _serialize(table, config, sys.stdout)

            report_text = report.to_json_lines()
            if config.report_path is not None:
                config.report_path.parent.mkdir(parents=True, exist_ok=True)
                config.report_path.write_text(report_text, encoding="utf-8")
            else:
                sys.stderr.write(report_text)
        finally:
            gc.set_threshold(*threshold)

        return 2 if report.failures else 0
    except ConfigError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1
    except Exception as exc:  # fatal, non-config
        log.exception("fatal error")
        print(f"fatal: {exc}", file=sys.stderr)
        return 1


def main() -> None:
    raise SystemExit(run())


if __name__ == "__main__":
    main()
