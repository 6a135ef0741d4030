"""The shared hashing module: byte-stability is the whole contract.

Committed corpus manifests and the tower diskstore embed
:func:`content_hash` digests, so these tests pin exact output bytes,
not just self-consistency.
"""

from __future__ import annotations

import hashlib

from repro.service.keys import (
    DEFAULT_KEY_LENGTH,
    canonical_dumps,
    content_hash,
    json_hash,
)


class TestContentHash:
    def test_is_truncated_sha256(self):
        text = "in:<(0:0), (1:0)>\nout:<(0:1)>"
        expected = hashlib.sha256(text.encode("utf-8")).hexdigest()[:40]
        assert content_hash(text) == expected
        assert len(content_hash(text)) == DEFAULT_KEY_LENGTH

    def test_pinned_digest(self):
        # a literal golden value: if this moves, every committed corpus
        # manifest and tower-store directory key silently invalidates
        assert content_hash("repro") == (
            "681d1638f10411fb29eb810a9184e68742579702"
        )

    def test_length_parameter(self):
        assert len(content_hash("x", length=12)) == 12
        assert content_hash("x", length=12) == content_hash("x")[:12]

    def test_diskstore_reexports_the_same_function(self):
        from repro.topology import diskstore

        assert diskstore.content_hash is content_hash


class TestCanonicalDumps:
    def test_key_order_is_irrelevant(self):
        assert canonical_dumps({"b": 1, "a": 2}) == canonical_dumps(
            {"a": 2, "b": 1}
        )

    def test_non_json_values_fall_back_to_str(self):
        class Odd:
            def __str__(self):
                return "odd-thing"

        assert '"odd-thing"' in canonical_dumps({"v": Odd()})

    def test_json_hash_is_hash_of_canonical_text(self):
        payload = {"op": "decide", "params": {"max_rounds": 2}}
        assert json_hash(payload) == content_hash(canonical_dumps(payload))
