"""The one reader of outside key=value text: curve configs, key files,
scenario blocks and bench parameters all parse here, and each format passes
the Error subclass its malformed input raises."""

from __future__ import annotations

from pathlib import Path

from .errors import Error


def parse_kv(text: str, error: type[Error], required: tuple[str, ...] = (),
             hex_fields: tuple[str, ...] = ()) -> dict:
    """Parse 'key=value' lines; '#' starts a comment, blank lines are skipped.

    Keys are case-folded, values stripped; hex fields (each also required)
    come back as ints.  Raises error on a malformed line, an empty or
    duplicate key, a missing required field or a non-hex hex field.
    """
    out: dict = {}
    for lineno, raw in enumerate(text.splitlines(), 1):
        line = raw.split("#", 1)[0].strip()
        if not line:
            continue
        key, eq, value = line.partition("=")
        key = key.strip().lower()
        if not eq:
            raise error(f"line {lineno}: expected key=value, got {raw!r}")
        if not key:
            raise error(f"line {lineno}: empty key")
        if key in out:
            raise error(f"line {lineno}: duplicate key {key!r}")
        out[key] = value.strip()
    missing = [k for k in required if k not in out]
    if missing:
        raise error(f"missing fields: {', '.join(missing)}")
    for key in hex_fields:
        try:
            out[key] = int(out[key], 16)
        except ValueError:
            raise error(f"field {key!r} is not hexadecimal") from None
    return out


def read_text(path, error: type[Error], what: str) -> str:
    """The file's text; error when it cannot be read or is not UTF-8."""
    try:
        return Path(path).read_text(encoding="utf-8")
    except (OSError, UnicodeDecodeError) as e:
        raise error(f"cannot read {what}: {e}") from None


def split_blocks(text: str) -> list[str]:
    """Split text into blank-line separated blocks (comments stripped)."""
    blocks: list[str] = []
    current: list[str] = []
    for raw in text.splitlines():
        line = raw.split("#", 1)[0].rstrip()
        if line.strip():
            current.append(line)
        elif current:
            blocks.append("\n".join(current))
            current = []
    if current:
        blocks.append("\n".join(current))
    return blocks
