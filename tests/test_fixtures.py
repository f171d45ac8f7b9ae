"""The fixture bundle's bytes are pinned: refactoring the generator must not move them."""

from __future__ import annotations

import hashlib

from planvet.fixtures import build_bundle

BUNDLE_FILES = 1010
BUNDLE_SHA256 = "6abc31dbd47d0d64b6493ae0977fe422c5611f408beca95be2a198d0b03ef9fb"
POLICY_SHA256 = "9c52edacd90e1c15334e1184f8d4b7cab968280f53e7204ee99c3a6436021102"


def _sha256(data: bytes) -> str:
    return hashlib.sha256(data).hexdigest()


def test_bundle_bytes_are_pinned(tmp_path):
    root = build_bundle(tmp_path / "bundle")
    files = [p for p in root.rglob("*") if p.is_file()]
    # One line per file, "<relative posix path>\0<sha256 of its bytes>\n", sorted.
    lines = sorted(f"{p.relative_to(root).as_posix()}\0{_sha256(p.read_bytes())}\n" for p in files)
    assert len(files) == BUNDLE_FILES
    assert _sha256((root / "policy.json").read_bytes()) == POLICY_SHA256
    assert _sha256("".join(lines).encode("utf-8")) == BUNDLE_SHA256
