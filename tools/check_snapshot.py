#!/usr/bin/env python3
"""Offline integrity audit of an ENLD snapshot store.

Usage: check_snapshot.py <snapshot_root> [--all] [--json=<path>]

Walks the snapshot directory written by SnapshotStore (docs/PERSISTENCE.md)
and re-verifies, with nothing but the Python standard library:

  * the CURRENT pointer names an existing snapshot directory,
  * MANIFEST.json parses, carries the expected schema/seq, and every
    listed file matches its recorded byte size and CRC32 (zlib.crc32 —
    the store writes the same IEEE polynomial),
  * each dataset directory's manifest.json is consistent (shard row
    totals, per-shard size + CRC32),
  * every shard starts with the ENLDSHD1 magic and little-endian tag,
  * state.bin parses structurally: ENLDSNP1 magic, endian tag, version 3
    (the only version the store reads), and every section's payload CRC
    matches its envelope (meta/stats/rng/conditional/selected/admission).

By default only the snapshot CURRENT points at is audited; --all checks
every snap-* directory present. Violations are typed findings — one
"FAIL <path> [<section>/<reason>] <detail>" line each on stderr, and,
with --json=<path>, a machine-readable report (schema
"enld-snapshot-audit-v1") for downstream tooling.

Exit codes: 0 = store verified clean; 3 = integrity violations found;
2 = usage error; 1 = hard error (unwritable --json output). CI callers
gating on zero/nonzero are unaffected by the 1 -> 3 split.
"""

import json
import os
import struct
import sys
import zlib

SNAPSHOT_SCHEMA = "enld-snapshot-manifest-v1"
DATASET_SCHEMA = "enld-dataset-manifest-v1"
AUDIT_SCHEMA = "enld-snapshot-audit-v1"
SNAPSHOT_MAGIC = b"ENLDSNP1"
SHARD_MAGIC = b"ENLDSHD1"
ENDIAN_TAG = 0x01020304
STATE_VERSION = 3
# meta, stats, rng, conditional, selected, admission
STATE_SECTION_IDS = (1, 2, 3, 4, 5, 6)

# Typed findings, mirroring the C++ scrubber's vocabulary
# (src/store/scrub.h): section in {"file", "header", "section-<id>",
# "manifest", "pointer", "geometry"}, reason in {"missing", "unreadable",
# "malformed", "bad_magic", "truncated", "size_mismatch", "crc_mismatch",
# "mismatch", "dangling"}.
findings = []


def fail(path, detail, section="file", reason="mismatch"):
    findings.append({"path": path, "section": section, "reason": reason,
                     "detail": detail})


def check_file_crc(path, expect_bytes, expect_crc):
    try:
        with open(path, "rb") as f:
            data = f.read()
    except OSError as e:
        fail(path, f"unreadable: {e}", reason="unreadable")
        return None
    if len(data) != expect_bytes:
        fail(path, f"size {len(data)} != manifest bytes {expect_bytes}",
             reason="size_mismatch")
    crc = zlib.crc32(data) & 0xFFFFFFFF
    if crc != expect_crc:
        fail(path, f"crc32 {crc:#010x} != manifest crc32 {expect_crc:#010x}",
             reason="crc_mismatch")
    return data


def check_sections(path, data, offset, expected_ids):
    """Verifies a run of (id u32, len u64, crc u32, payload) envelopes."""
    for section_id in expected_ids:
        section = f"section-{section_id}"
        if offset + 16 > len(data):
            fail(path, f"truncated before section {section_id}",
                 section=section, reason="truncated")
            return
        sid, length, crc = struct.unpack_from("<IQI", data, offset)
        offset += 16
        if sid != section_id:
            fail(path, f"section id {sid} where {section_id} expected",
                 section=section, reason="malformed")
            return
        if offset + length > len(data):
            fail(path, f"section {sid} payload truncated",
                 section=section, reason="truncated")
            return
        payload = data[offset : offset + length]
        offset += length
        if (zlib.crc32(payload) & 0xFFFFFFFF) != crc:
            fail(path, f"section {sid} payload fails its CRC",
                 section=section, reason="crc_mismatch")
    if offset != len(data):
        fail(path, f"{len(data) - offset} trailing bytes after last section",
             reason="malformed")


def check_state_bin(path, data):
    if not data.startswith(SNAPSHOT_MAGIC):
        fail(path, "bad magic (not an ENLD snapshot state file)",
             section="header", reason="bad_magic")
        return
    if len(data) < 20:
        fail(path, "truncated header", section="header", reason="truncated")
        return
    endian, version = struct.unpack_from("<II", data, 8)
    if endian != ENDIAN_TAG:
        fail(path, f"byte-order tag {endian:#010x} != {ENDIAN_TAG:#010x}",
             section="header", reason="malformed")
        return
    if version != STATE_VERSION:
        fail(path, f"unsupported state version {version}",
             section="header", reason="malformed")
        return
    (count,) = struct.unpack_from("<I", data, 16)
    if count != len(STATE_SECTION_IDS):
        fail(path, f"section count {count} != {len(STATE_SECTION_IDS)}",
             section="header", reason="malformed")
        return
    check_sections(path, data, 20, STATE_SECTION_IDS)


def check_shard_header(path, data):
    if not data.startswith(SHARD_MAGIC):
        fail(path, "bad magic (not an ENLD shard)",
             section="header", reason="bad_magic")
        return
    endian, version = struct.unpack_from("<II", data, 8)
    if endian != ENDIAN_TAG:
        fail(path, f"byte-order tag {endian:#010x} != {ENDIAN_TAG:#010x}",
             section="header", reason="malformed")
    if version != 1:
        fail(path, f"unsupported shard version {version}",
             section="header", reason="malformed")


def load_json(path, schema):
    try:
        with open(path, "r", encoding="utf-8") as f:
            doc = json.load(f)
    except OSError as e:
        fail(path, f"unreadable: {e}", section="manifest", reason="unreadable")
        return None
    except ValueError as e:
        fail(path, f"malformed JSON: {e}", section="manifest",
             reason="malformed")
        return None
    if doc.get("schema") != schema:
        fail(path, f"schema {doc.get('schema')!r} != {schema!r}",
             section="manifest", reason="malformed")
        return None
    return doc


def check_dataset_dir(dataset_dir):
    manifest = load_json(os.path.join(dataset_dir, "manifest.json"),
                         DATASET_SCHEMA)
    if manifest is None:
        return
    listed_rows = 0
    for entry in manifest.get("shards", []):
        shard_path = os.path.join(dataset_dir, entry["file"])
        listed_rows += int(entry["rows"])
        data = check_file_crc(shard_path, int(entry["bytes"]),
                              int(entry["crc32"]))
        if data is not None and len(data) >= 16:
            check_shard_header(shard_path, data)
    if listed_rows != int(manifest.get("num_rows", -1)):
        fail(dataset_dir,
             f"shard rows total {listed_rows} != num_rows "
             f"{manifest.get('num_rows')}",
             section="geometry")


def check_snapshot_dir(snap_dir, expect_seq):
    manifest = load_json(os.path.join(snap_dir, "MANIFEST.json"),
                         SNAPSHOT_SCHEMA)
    if manifest is None:
        return
    if int(manifest.get("seq", -1)) != expect_seq:
        fail(snap_dir,
             f"manifest seq {manifest.get('seq')} != directory seq "
             f"{expect_seq}",
             section="manifest")
    listed = {e["file"] for e in manifest.get("files", [])}
    for required in ("state.bin", "model.bin"):
        if required not in listed:
            fail(snap_dir, f"manifest does not list {required}",
                 section="manifest", reason="missing")
    for entry in manifest.get("files", []):
        path = os.path.join(snap_dir, entry["file"])
        data = check_file_crc(path, int(entry["bytes"]), int(entry["crc32"]))
        if data is not None and entry["file"] == "state.bin":
            check_state_bin(path, data)
    for dataset in manifest.get("datasets", []):
        dataset_dir = os.path.join(snap_dir, dataset)
        if not os.path.isdir(dataset_dir):
            fail(snap_dir, f"listed dataset directory missing: {dataset}",
                 reason="missing")
            continue
        check_dataset_dir(dataset_dir)


def main():
    args = [a for a in sys.argv[1:] if not a.startswith("--")]
    check_all = "--all" in sys.argv[1:]
    json_out = None
    for arg in sys.argv[1:]:
        if arg.startswith("--json="):
            json_out = arg[len("--json="):]
        elif arg.startswith("--") and arg != "--all":
            print(f"unknown flag {arg}", file=sys.stderr)
            print(__doc__)
            return 2
    if len(args) != 1:
        print(__doc__)
        return 2
    root = args[0]

    current_path = os.path.join(root, "CURRENT")
    try:
        with open(current_path, "r", encoding="utf-8") as f:
            current = f.read().strip()
    except OSError as e:
        fail(current_path, f"unreadable: {e}", section="pointer",
             reason="unreadable")
        current = None

    current_seq = None
    if current is not None:
        if (len(current) == 11 and current.startswith("snap-")
                and current[5:].isdigit() and int(current[5:]) > 0):
            current_seq = int(current[5:])
            if not os.path.isdir(os.path.join(root, current)):
                fail(current_path, f"points at missing directory {current}",
                     section="pointer", reason="dangling")
                current_seq = None
        else:
            fail(current_path, f"malformed pointer {current!r}",
                 section="pointer", reason="malformed")

    if check_all:
        targets = sorted(
            int(name[5:]) for name in os.listdir(root)
            if len(name) == 11 and name.startswith("snap-")
            and name[5:].isdigit())
    else:
        targets = [current_seq] if current_seq is not None else []

    for seq in targets:
        check_snapshot_dir(os.path.join(root, f"snap-{seq:06d}"), seq)

    if json_out is not None:
        report = {
            "schema": AUDIT_SCHEMA,
            "root": root,
            "current_seq": current_seq or 0,
            "audited": [f"snap-{seq:06d}" for seq in targets],
            "clean": not findings,
            "findings": findings,
        }
        try:
            with open(json_out, "w", encoding="utf-8") as f:
                json.dump(report, f, indent=2)
                f.write("\n")
        except OSError as e:
            print(f"FAIL cannot write {json_out}: {e}", file=sys.stderr)
            return 1

    if findings:
        for finding in findings:
            print(f"FAIL {finding['path']} "
                  f"[{finding['section']}/{finding['reason']}] "
                  f"{finding['detail']}", file=sys.stderr)
        print(f"{len(findings)} integrity violation(s) in {root}",
              file=sys.stderr)
        return 3
    audited = ", ".join(f"snap-{seq:06d}" for seq in targets) or "(none)"
    print(f"OK: snapshot store {root} verified ({audited})")
    return 0


if __name__ == "__main__":
    sys.exit(main())
